(* Per-extent divisor tables, memoised in an immutable map behind an
   atomic: schedule rounding runs inside Runtime.parallel_map workers, and
   a read is one Atomic.get and a map lookup, with no lock. A miss builds
   the table outside any critical section and publishes it with a
   compare-and-set; tables are deterministic, so a racing double build
   just offers the same value twice. *)

type table = {
  divs : int array;  (* ascending *)
  logs : float array;  (* log (float d) *)
  values : float array;  (* Float.round (exp (log (float d))) *)
  list : int list;  (* [divs] as a list, shared by every [divisors] call *)
}

module Int_map = Map.Make (Int)

let memo : table Int_map.t Atomic.t = Atomic.make Int_map.empty

let build n =
  let small = ref [] and large = ref [] in
  let i = ref 1 in
  while !i * !i <= n do
    if n mod !i = 0 then begin
      small := !i :: !small;
      if !i <> n / !i then large := (n / !i) :: !large
    end;
    incr i
  done;
  let list = List.rev_append !small !large in
  let divs = Array.of_list list in
  let logs = Array.map (fun d -> log (float_of_int d)) divs in
  let values = Array.map (fun l -> Float.round (exp l)) logs in
  { divs; logs; values; list }

let table n =
  if n < 1 then invalid_arg "Factorize.table: n must be >= 1";
  match Int_map.find_opt n (Atomic.get memo) with
  | Some t -> t
  | None ->
    let t = build n in
    let rec publish () =
      let m = Atomic.get memo in
      match Int_map.find_opt n m with
      | Some t' -> t'
      | None -> if Atomic.compare_and_set memo m (Int_map.add n t m) then t else publish ()
    in
    publish ()

let divisor t k = t.divs.(k)
let log_divisor t k = t.logs.(k)
let integer_value t k = t.values.(k)

(* The first minimum of |log d - log x| in ascending divisor order: a NaN
   distance never compares below the running best, so x = NaN (and
   x = +inf, whose distances are all infinite) picks the first divisor. *)
let nearest t x =
  if x <= 0.0 then 0
  else begin
    let lx = log x in
    let logs = t.logs in
    let best = ref 0 and best_v = ref (Float.abs (Array.unsafe_get logs 0 -. lx)) in
    for k = 1 to Array.length logs - 1 do
      let v = Float.abs (Array.unsafe_get logs k -. lx) in
      if v < !best_v then begin
        best := k;
        best_v := v
      end
    done;
    !best
  end

let divisors n =
  if n < 1 then invalid_arg "Factorize.divisors: n must be >= 1";
  (table n).list

let is_divisor d n = d > 0 && n mod d = 0

let nearest_divisor n x =
  let t = table n in
  divisor t (nearest t x)

let round_log_to_divisor n y = log (float_of_int (nearest_divisor n (exp y)))

let rec split rng n k =
  if k <= 0 then invalid_arg "Factorize.split: k must be >= 1";
  if k = 1 then [ n ]
  else begin
    let d = Rng.choose_list rng (divisors n) in
    d :: split rng (n / d) (k - 1)
  end

let rec num_splits n k =
  if k <= 1 then 1
  else List.fold_left (fun acc d -> acc + num_splits (n / d) (k - 1)) 0 (divisors n)
