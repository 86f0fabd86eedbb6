open Expr

(* [open Expr] shadows the integer operators with expression builders;
   restore the integer ones for loop/index arithmetic below. *)
let ( - ) = Stdlib.( - )

(* --- symbolic differentiation -------------------------------------------- *)

let diff (e : Expr.t) (x : string) : Expr.t =
  (* Memoised per call on node identity: hash-consed expressions are DAGs,
     and a shared subterm has one derivative, not one per occurrence. *)
  let memo : Expr.t Expr.Memo.t = Expr.Memo.create () in
  let rec go (e : Expr.t) : Expr.t =
    match Expr.Memo.find_opt memo e with
    | Some d -> d
    | None ->
      let d =
        match e with
        | Const _ -> zero
        | Var v -> if String.equal v x then one else zero
        | Binop (Add, a, b) -> add (go a) (go b)
        | Binop (Sub, a, b) -> sub (go a) (go b)
        | Binop (Mul, a, b) -> add (mul (go a) b) (mul a (go b))
        | Binop (Div, a, b) -> div (sub (mul (go a) b) (mul a (go b))) (mul b b)
        | Binop (Pow, a, b) ->
          (* d(a^b) = a^b * (b' ln a + b a'/a); specialise constant exponents to
             avoid introducing log of possibly-negative bases. *)
          let da = go a and db = go b in
          if equal db zero then mul (mul b (pow a (sub b one))) da
          else mul (pow a b) (add (mul db (log_ a)) (div (mul b da) a))
        | Binop (Min, a, b) -> select (le a b) (go a) (go b)
        | Binop (Max, a, b) -> select (ge a b) (go a) (go b)
        | Unop (Neg, a) -> neg (go a)
        | Unop (Log, a) -> div (go a) a
        | Unop (Exp, a) -> mul (exp_ a) (go a)
        | Unop (Sqrt, a) -> div (go a) (mul (const 2.0) (sqrt_ a))
        | Unop (Abs, a) -> mul (select (ge a zero) one (const (-1.0))) (go a)
        | Select (c, a, b) -> select c (go a) (go b)
      in
      Expr.Memo.add memo e d;
      d
  in
  go e

let gradient e = List.map (fun v -> (v, Simplify.simplify (diff e v))) (vars e)

(* --- compiled tapes ------------------------------------------------------- *)

module Tape = struct
  type instr =
    | Iconst of float
    | Iinput of int
    | Ibin of binop * int * int
    | Iun of unop * int
    | Isel of cmpop * int * int * int * int  (* lhs, rhs, then, else *)

  type t = {
    instrs : instr array;
    outputs : int array;  (* slot of each output *)
    n_inputs : int;
  }

  let num_inputs t = t.n_inputs
  let num_outputs t = Array.length t.outputs
  let length t = Array.length t.instrs

  (* Flatten boolean connectives so only Cmp conditions reach the tape.
     Memoised per call so shared subtrees are flattened once. *)
  let flatten_selects (e : Expr.t) : Expr.t =
    let memo : Expr.t Expr.Memo.t = Expr.Memo.create () in
    let rec fs (e : Expr.t) : Expr.t =
      match e with
      | Const _ | Var _ -> e
      | Binop _ | Unop _ | Select _ -> (
        match Expr.Memo.find_opt memo e with
        | Some e' -> e'
        | None ->
          let e' =
            let e = map_children fs e in
            match e with
            | Select (And (c1, c2), a, b) -> fs (select c1 (select c2 a b) b)
            | Select (Or (c1, c2), a, b) -> fs (select c1 a (select c2 a b))
            | Select (Not c, a, b) -> fs (select c b a)
            | Select (Bconst true, a, _) -> a
            | Select (Bconst false, _, b) -> b
            | _ -> e
          in
          Expr.Memo.add memo e e';
          e')
    in
    fs e

  (* --- post-compile optimiser ---------------------------------------------

     Every rewrite below is bit-exact for BOTH the forward values and the
     reverse-mode adjoints: the tuner's contract is that an optimised tape
     produces bitwise-identical results, so only transformations that
     provably preserve IEEE-754 semantics and the adjoint accumulation
     order are applied. Three families qualify:

     - constant folding of instructions whose operands are all constants
       (the fold performs the very float op the tape would have), plus
       constant-condition / equal-branch select resolution;
     - duplicate-constant merging, keyed by bit pattern so 0.0 and -0.0
       (or distinct NaNs) are never conflated;
     - copy propagation for identities that are bit-exact as values
       (x*1, 1*x, x/1, x - (+0.0), min/max(x,x), select with equal
       branches, -(-x)) — applied only when the copied-from slot has no
       other consumer, because redirecting a consumer of a multiply-used
       slot would reorder the (non-associative) float additions of the
       adjoint sweep. Note x+0.0 is NOT rewritten: (-0.0)+0.0 = +0.0 ≠ -0.0.

     Dead slots (never referenced by a live instruction or an output) carry
     zero adjoint and are skipped by the backward guard, so removing and
     renumbering them is exact; the forward order of surviving slots is
     preserved. *)

  type opt_report = {
    slots_pre : int;
    slots_post : int;
    folded : int;  (* instructions that became constants *)
    aliased : int;  (* copy-like instructions redirected to their source *)
    dead : int;  (* slots removed by dead-code elimination *)
  }

  let optimize_report t =
    let n = Array.length t.instrs in
    let instrs = Array.copy t.instrs in
    (* alias.(i) = the (earlier, already-final) slot standing in for i *)
    let alias = Array.init n (fun i -> i) in
    let resolve s = alias.(s) in
    (* Reference counts (operand uses + output uses), kept current as
       rewrites fire so the single-consumer guard stays sound. *)
    let uses = Array.make n 0 in
    let count s = uses.(s) <- Stdlib.( + ) uses.(s) 1 in
    let drop s = uses.(s) <- uses.(s) - 1 in
    Array.iter
      (function
        | Iconst _ | Iinput _ -> ()
        | Ibin (_, a, b) ->
          count a;
          count b
        | Iun (_, a) -> count a
        | Isel (_, l, r, a, b) ->
          count l;
          count r;
          count a;
          count b)
      instrs;
    Array.iter count t.outputs;
    let folded = ref 0 and aliased = ref 0 in
    let const_of s = match instrs.(s) with Iconst c -> Some c | _ -> None in
    let is_one s = match const_of s with Some c -> c = 1.0 | None -> false in
    let is_pzero s =
      match const_of s with Some c -> Int64.equal (Int64.bits_of_float c) 0L | None -> false
    in
    let const_slots : (int64, int) Hashtbl.t = Hashtbl.create 32 in
    (* Slot [i] computes bit-exactly vals.(s) with [refs] operand references
       to [s]; [extra] are i's other operands, dropped if the rewrite fires.
       A constant source is always materialised in place; a computed source
       is only aliased when [i] holds its every reference (see above). *)
    let copy_of i s ~refs ~extra =
      match instrs.(s) with
      | Iconst c ->
        instrs.(i) <- Iconst c;
        uses.(s) <- uses.(s) - refs;
        List.iter drop extra;
        incr folded
      | Iinput _ | Ibin _ | Iun _ | Isel _ ->
        if uses.(s) = refs then begin
          alias.(i) <- s;
          uses.(s) <- uses.(i);
          uses.(i) <- 0;
          List.iter drop extra;
          incr aliased
        end
    in
    for i = 0 to n - 1 do
      (match instrs.(i) with
      | Iconst _ | Iinput _ -> ()
      | Ibin (op, a, b) -> instrs.(i) <- Ibin (op, resolve a, resolve b)
      | Iun (op, a) -> instrs.(i) <- Iun (op, resolve a)
      | Isel (op, l, r, a, b) ->
        instrs.(i) <- Isel (op, resolve l, resolve r, resolve a, resolve b));
      (match instrs.(i) with
      | Ibin (op, a, b) -> (
        match (const_of a, const_of b) with
        | Some x, Some y ->
          instrs.(i) <- Iconst (apply_binop op x y);
          drop a;
          drop b;
          incr folded
        | _ -> ())
      | Iun (op, a) -> (
        match const_of a with
        | Some x ->
          instrs.(i) <- Iconst (apply_unop op x);
          drop a;
          incr folded
        | None -> ())
      | Iconst _ | Iinput _ | Isel _ -> ());
      (match instrs.(i) with
      | Ibin (Mul, a, b) when is_one b -> copy_of i a ~refs:1 ~extra:[ b ]
      | Ibin (Mul, a, b) when is_one a -> copy_of i b ~refs:1 ~extra:[ a ]
      | Ibin (Div, a, b) when is_one b -> copy_of i a ~refs:1 ~extra:[ b ]
      | Ibin (Sub, a, b) when is_pzero b -> copy_of i a ~refs:1 ~extra:[ b ]
      | Ibin ((Min | Max), a, b) when a = b -> copy_of i a ~refs:2 ~extra:[]
      | Isel (_, l, r, a, b) when a = b -> copy_of i a ~refs:2 ~extra:[ l; r ]
      | Isel (op, l, r, a, b) -> (
        match (const_of l, const_of r) with
        | Some x, Some y ->
          let taken, untaken = if apply_cmpop op x y then (a, b) else (b, a) in
          copy_of i taken ~refs:1 ~extra:[ l; r; untaken ]
        | _ -> ())
      | Iun (Neg, a) -> (
        match instrs.(a) with
        | Iun (Neg, x) when uses.(a) = 1 && uses.(x) = 1 ->
          (* -(-x) = x bitwise (two sign flips); with both intermediate
             slots single-use the adjoint reaching x is 0-(0-T) = T. *)
          alias.(i) <- x;
          uses.(x) <- uses.(i);
          uses.(i) <- 0;
          uses.(a) <- 0;
          incr aliased
        | _ -> ())
      | Iconst _ | Iinput _ | Ibin _ | Iun _ -> ());
      (* Duplicate constants merge by bit pattern. *)
      match instrs.(i) with
      | Iconst c when alias.(i) = i -> (
        let bits = Int64.bits_of_float c in
        match Hashtbl.find_opt const_slots bits with
        | Some s when s <> i ->
          alias.(i) <- s;
          uses.(s) <- Stdlib.( + ) uses.(s) uses.(i);
          uses.(i) <- 0;
          incr aliased
        | Some _ -> ()
        | None -> Hashtbl.replace const_slots bits i)
      | _ -> ()
    done;
    (* Liveness from the (resolved) outputs, then renumber. *)
    let live = Array.make n false in
    let rec mark s =
      if not live.(s) then begin
        live.(s) <- true;
        match instrs.(s) with
        | Iconst _ | Iinput _ -> ()
        | Ibin (_, a, b) ->
          mark a;
          mark b
        | Iun (_, a) -> mark a
        | Isel (_, l, r, a, b) ->
          mark l;
          mark r;
          mark a;
          mark b
      end
    in
    Array.iter (fun o -> mark (resolve o)) t.outputs;
    let remap = Array.make n (-1) in
    let n_live = ref 0 in
    for i = 0 to n - 1 do
      if live.(i) then begin
        remap.(i) <- !n_live;
        incr n_live
      end
    done;
    let new_instrs = Array.make !n_live (Iconst 0.0) in
    for i = 0 to n - 1 do
      if live.(i) then
        new_instrs.(remap.(i)) <-
          (match instrs.(i) with
          | (Iconst _ | Iinput _) as ins -> ins
          | Ibin (op, a, b) -> Ibin (op, remap.(a), remap.(b))
          | Iun (op, a) -> Iun (op, remap.(a))
          | Isel (op, l, r, a, b) -> Isel (op, remap.(l), remap.(r), remap.(a), remap.(b)))
    done;
    let outputs = Array.map (fun o -> remap.(resolve o)) t.outputs in
    ( { instrs = new_instrs; outputs; n_inputs = t.n_inputs },
      { slots_pre = n;
        slots_post = !n_live;
        folded = !folded;
        aliased = !aliased;
        dead = n - !n_live
      } )

  let optimize t = fst (optimize_report t)

  let compile ?(optimize = true) ~inputs exprs =
    let exprs = List.map flatten_selects exprs in
    let input_index = Hashtbl.create 16 in
    List.iteri (fun i v -> Hashtbl.replace input_index v i) inputs;
    let instrs = ref [] in
    let n = ref 0 in
    (* CSE: identical instructions (same op, same child slots) share a slot. *)
    let cse : (instr, int) Hashtbl.t = Hashtbl.create 256 in
    let emit instr =
      match Hashtbl.find_opt cse instr with
      | Some slot -> slot
      | None ->
        let slot = !n in
        incr n;
        instrs := instr :: !instrs;
        Hashtbl.replace cse instr slot;
        slot
    in
    (* Memoised on node identity: revisiting a shared subterm of a
       hash-consed DAG is O(1) instead of a re-walk (the CSE table would
       dedupe the instructions anyway, so the emitted tape is unchanged). *)
    let memo : int Expr.Memo.t = Expr.Memo.create ~size:256 () in
    let rec go (e : Expr.t) : int =
      match e with
      | Const c -> emit (Iconst c)
      | Var v -> (
        match Hashtbl.find_opt input_index v with
        | Some i -> emit (Iinput i)
        | None -> invalid_arg (Printf.sprintf "Tape.compile: unbound variable %s" v))
      | Binop _ | Unop _ | Select _ -> (
        match Expr.Memo.find_opt memo e with
        | Some slot -> slot
        | None ->
          let slot =
            match e with
            | Binop (op, a, b) ->
              let sa = go a in
              let sb = go b in
              emit (Ibin (op, sa, sb))
            | Unop (op, a) ->
              let sa = go a in
              emit (Iun (op, sa))
            | Select (Cmp (op, l, r), a, b) ->
              let sl = go l in
              let sr = go r in
              let sa = go a in
              let sb = go b in
              emit (Isel (op, sl, sr, sa, sb))
            | Select ((And _ | Or _ | Not _ | Bconst _), _, _) ->
              (* flatten_selects removed these *)
              assert false
            | Const _ | Var _ -> assert false
          in
          Expr.Memo.add memo e slot;
          slot)
    in
    let outputs = Array.of_list (List.map go exprs) in
    let t = { instrs = Array.of_list (List.rev !instrs); outputs; n_inputs = List.length inputs } in
    if optimize then fst (optimize_report t) else t

  (* --- bit-exact serialization ---------------------------------------------

     The persistent pack cache stores compiled tapes on disk. Constants
     cross as 16-hex-char IEEE-754 bit strings (the [Store.Bits]
     convention), so a loaded tape evaluates bitwise-identically to the
     one that was saved — including signed zeros and NaN payloads, which
     decimal text would destroy. [of_json] validates the topological
     order (an instruction only references earlier slots) and every index
     range, so a corrupt cache entry yields [None], never a crash. *)

  let bin_name = function
    | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div"
    | Pow -> "pow" | Min -> "min" | Max -> "max"

  let bin_of_name = function
    | "add" -> Some Add | "sub" -> Some Sub | "mul" -> Some Mul
    | "div" -> Some Div | "pow" -> Some Pow | "min" -> Some Min
    | "max" -> Some Max | _ -> None

  let un_name = function
    | Neg -> "neg" | Log -> "log" | Exp -> "exp" | Sqrt -> "sqrt" | Abs -> "abs"

  let un_of_name = function
    | "neg" -> Some Neg | "log" -> Some Log | "exp" -> Some Exp
    | "sqrt" -> Some Sqrt | "abs" -> Some Abs | _ -> None

  let cmp_name = function
    | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge" | Eq -> "eq" | Ne -> "ne"

  let cmp_of_name = function
    | "lt" -> Some Lt | "le" -> Some Le | "gt" -> Some Gt
    | "ge" -> Some Ge | "eq" -> Some Eq | "ne" -> Some Ne | _ -> None

  let float_bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

  let float_of_bits s =
    if String.length s <> 16 then None
    else
      match Int64.of_string ("0x" ^ s) with
      | bits -> Some (Int64.float_of_bits bits)
      | exception _ -> None

  let to_json t =
    let num i = Json.Num (float_of_int i) in
    let instr_json = function
      | Iconst c -> Json.List [ Json.Str "c"; Json.Str (float_bits c) ]
      | Iinput k -> Json.List [ Json.Str "i"; num k ]
      | Ibin (op, a, b) -> Json.List [ Json.Str "b"; Json.Str (bin_name op); num a; num b ]
      | Iun (op, a) -> Json.List [ Json.Str "u"; Json.Str (un_name op); num a ]
      | Isel (op, l, r, a, b) ->
        Json.List [ Json.Str "s"; Json.Str (cmp_name op); num l; num r; num a; num b ]
    in
    Json.Obj
      [ ("n_inputs", num t.n_inputs);
        ("outputs", Json.List (Array.to_list (Array.map num t.outputs)));
        ("instrs", Json.List (Array.to_list (Array.map instr_json t.instrs))) ]

  let of_json j =
    let ( let* ) = Option.bind in
    let* n_inputs = Option.bind (Json.find j "n_inputs") Json.as_int in
    let* outputs_j = Option.bind (Json.find j "outputs") Json.as_list in
    let* instrs_j = Option.bind (Json.find j "instrs") Json.as_list in
    if n_inputs < 0 then None
    else
      let n = List.length instrs_j in
      (* [slot i lim] accepts only references to already-defined slots, so
         a decoded tape is topologically ordered by construction. *)
      let slot lim v =
        match Json.as_int v with
        | Some s when s >= 0 && s < lim -> Some s
        | Some _ | None -> None
      in
      let instr_of i = function
        | Json.List [ Json.Str "c"; Json.Str bits ] ->
          let* c = float_of_bits bits in
          Some (Iconst c)
        | Json.List [ Json.Str "i"; k ] ->
          let* k = slot n_inputs k in
          Some (Iinput k)
        | Json.List [ Json.Str "b"; Json.Str op; a; b ] ->
          let* op = bin_of_name op in
          let* a = slot i a in
          let* b = slot i b in
          Some (Ibin (op, a, b))
        | Json.List [ Json.Str "u"; Json.Str op; a ] ->
          let* op = un_of_name op in
          let* a = slot i a in
          Some (Iun (op, a))
        | Json.List [ Json.Str "s"; Json.Str op; l; r; a; b ] ->
          let* op = cmp_of_name op in
          let* l = slot i l in
          let* r = slot i r in
          let* a = slot i a in
          let* b = slot i b in
          Some (Isel (op, l, r, a, b))
        | _ -> None
      in
      let* instrs =
        let i = ref 0 in
        List.fold_left
          (fun acc ij ->
            let* acc = acc in
            let* ins = instr_of !i ij in
            incr i;
            Some (ins :: acc))
          (Some []) instrs_j
        |> Option.map (fun l -> Array.of_list (List.rev l))
      in
      let* outputs =
        List.fold_left
          (fun acc oj ->
            let* acc = acc in
            let* s = slot n oj in
            Some (s :: acc))
          (Some []) outputs_j
        |> Option.map (fun l -> Array.of_list (List.rev l))
      in
      Some { instrs; outputs; n_inputs }

  let forward t xs vals =
    let n = Array.length t.instrs in
    for i = 0 to n - 1 do
      vals.(i) <-
        (* [apply_binop]/[apply_unop] are spelled out inline: the function
           call would box its float result on every instruction, and this
           sweep must stay allocation-free (externals like [log]/[exp] are
           [@@unboxed], so only [Float.min]/[Float.max] still call out). *)
        (match t.instrs.(i) with
        | Iconst c -> c
        | Iinput k -> xs.(k)
        | Ibin (op, a, b) -> (
          let va = vals.(a) and vb = vals.(b) in
          match op with
          | Add -> va +. vb
          | Sub -> va -. vb
          | Mul -> va *. vb
          | Div -> va /. vb
          | Pow -> va ** vb
          | Min -> Float.min va vb
          | Max -> Float.max va vb)
        | Iun (op, a) -> (
          let va = vals.(a) in
          match op with
          | Neg -> -.va
          | Log -> log va
          | Exp -> exp va
          | Sqrt -> sqrt va
          | Abs -> Float.abs va)
        | Isel (op, l, r, a, b) ->
          if apply_cmpop op vals.(l) vals.(r) then vals.(a) else vals.(b))
    done

  let eval t xs =
    if Array.length xs <> t.n_inputs then invalid_arg "Tape.eval: input arity mismatch";
    let vals = Array.make (max 1 (Array.length t.instrs)) 0.0 in
    forward t xs vals;
    Array.map (fun slot -> vals.(slot)) t.outputs

  let backward t vals adj grad =
    Array.fill grad 0 (Array.length grad) 0.0;
    for i = Array.length t.instrs - 1 downto 0 do
      let a = adj.(i) in
      if a <> 0.0 then begin
        match t.instrs.(i) with
        | Iconst _ -> ()
        | Iinput k -> grad.(k) <- grad.(k) +. a
        | Ibin (op, ia, ib) -> (
          let va = vals.(ia) and vb = vals.(ib) in
          match op with
          | Add ->
            adj.(ia) <- adj.(ia) +. a;
            adj.(ib) <- adj.(ib) +. a
          | Sub ->
            adj.(ia) <- adj.(ia) +. a;
            adj.(ib) <- adj.(ib) -. a
          | Mul ->
            adj.(ia) <- adj.(ia) +. (a *. vb);
            adj.(ib) <- adj.(ib) +. (a *. va)
          | Div ->
            adj.(ia) <- adj.(ia) +. (a /. vb);
            adj.(ib) <- adj.(ib) -. (a *. va /. (vb *. vb))
          | Pow ->
            let v = vals.(i) in
            (* d/da = b * a^(b-1); d/db = a^b * ln a (only when a > 0) *)
            if va <> 0.0 then adj.(ia) <- adj.(ia) +. (a *. vb *. v /. va)
            else adj.(ia) <- adj.(ia) +. (a *. vb *. (va ** (vb -. 1.0)));
            if va > 0.0 then adj.(ib) <- adj.(ib) +. (a *. v *. log va)
          | Min -> if va <= vb then adj.(ia) <- adj.(ia) +. a else adj.(ib) <- adj.(ib) +. a
          | Max -> if va >= vb then adj.(ia) <- adj.(ia) +. a else adj.(ib) <- adj.(ib) +. a)
        | Iun (op, ia) -> (
          let va = vals.(ia) in
          match op with
          | Neg -> adj.(ia) <- adj.(ia) -. a
          | Log -> adj.(ia) <- adj.(ia) +. (a /. va)
          | Exp -> adj.(ia) <- adj.(ia) +. (a *. vals.(i))
          | Sqrt -> adj.(ia) <- adj.(ia) +. (a /. (2.0 *. vals.(i)))
          | Abs -> adj.(ia) <- adj.(ia) +. (if va >= 0.0 then a else -.a))
        | Isel (op, l, r, ia, ib) ->
          if apply_cmpop op vals.(l) vals.(r) then adj.(ia) <- adj.(ia) +. a
          else adj.(ib) <- adj.(ib) +. a
      end
    done

  let vjp t xs v =
    if Array.length xs <> t.n_inputs then invalid_arg "Tape.vjp: input arity mismatch";
    if Array.length v <> Array.length t.outputs then
      invalid_arg "Tape.vjp: adjoint arity mismatch";
    let n = max 1 (Array.length t.instrs) in
    let vals = Array.make n 0.0 and adj = Array.make n 0.0 in
    forward t xs vals;
    Array.iteri (fun k slot -> adj.(slot) <- adj.(slot) +. v.(k)) t.outputs;
    let grad = Array.make t.n_inputs 0.0 in
    backward t vals adj grad;
    (Array.map (fun slot -> vals.(slot)) t.outputs, grad)

  (* Index arithmetic below needs the integer operators back ([open Expr]
     rebinds them to expression builders). *)
  let ( + ) = Stdlib.( + )
  let ( * ) = Stdlib.( * )

  (* --- compiled superop plans ------------------------------------------------

     A plan lowers an (optimised) tape into a flat program of *superops*:
     chains of two adjacent elementwise instructions fused into one opcode,
     constants pooled into pre-broadcast arena planes, and slot lifetimes
     analysed so values reuse a compact register arena. The program is
     executed over all batch lanes by one C call per sweep (tape_stubs.c)
     or, behind [set_vector_kernels false] / FELIX_NO_SIMD=1, by the
     portable OCaml kernels below — both bitwise-identical, lane for lane,
     to the scalar interpreter ([eval]/[vjp]) at every batch size, because
     the per-lane operation sequence (including the zero-adjoint guard and
     the order of adjoint accumulation) is part of the plan, not of the
     kernel.

     Fusion is restricted to *adjacent* pairs in the const/input-hoisted
     instruction order whose intermediate has exactly one consumer and is
     not an output: contiguity means no other instruction's adjoint
     contribution can interleave between the pair's two backward updates,
     so the accumulation order into every shared slot is exactly the
     interpreter's. The unmaterialised intermediate's value, where the
     backward rule needs it, is recomputed bit-identically from its (still
     materialised) operands — IEEE arithmetic is deterministic. *)

  let ( / ) = Stdlib.( / )

  let bidx = function Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Pow -> 4 | Min -> 5 | Max -> 6
  let uidx = function Neg -> 0 | Log -> 1 | Exp -> 2 | Sqrt -> 3 | Abs -> 4
  let cidx = function Lt -> 0 | Le -> 1 | Gt -> 2 | Ge -> 3 | Eq -> 4 | Ne -> 5

  (* Opcode space, mirrored by tape_stubs.c (keep in sync):
     [0,7)    single binop (+ bidx)
     [16,21)  single unop (+ uidx)
     [32,38)  select (+ cidx)
     [64,80)  fused (a op1 b) op2 c        = 64 + op1*4 + op2
     [96,112) fused c op2 (a op1 b)        = 96 + op1*4 + op2
     [128,140) fused un (a op1 b)          = 128 + un*4 + op1, un: log 0, exp 1, sqrt 2
     op1/op2 range over add 0, sub 1, mul 2, div 3. *)
  let op_bin_base = 0
  let op_un_base = 16
  let op_sel_base = 32
  let op_bin2_base = 64
  let op_bin2r_base = 96
  let op_unbin_base = 128

  (* Every superop is one stride-12 row:
     [op; dst_v; dst_a; o1_v; o1_a; o2_v; o2_a; o3_v; o3_a; o4_v; o4_a; 0]
     (_v value register, _a adjoint register; unused fields 0). The
     backward sweep walks the same rows in reverse. *)
  let plan_stride = 12

  let valid_opcode op =
    (op >= op_bin_base && op < op_bin_base + 7)
    || (op >= op_un_base && op < op_un_base + 5)
    || (op >= op_sel_base && op < op_sel_base + 6)
    || (op >= op_bin2_base && op < op_bin2_base + 16)
    || (op >= op_bin2r_base && op < op_bin2r_base + 16)
    || (op >= op_unbin_base && op < op_unbin_base + 12)

  module Plan = struct
    type t = {
      p_n_inputs : int;
      p_n_outputs : int;
      p_consts : float array;  (* pool values; value register c is plane c *)
      p_n_vregs : int;  (* value planes, consts included *)
      p_n_aregs : int;  (* adjoint planes; the last is the write-only sink *)
      p_code : int array;  (* stride-12 superop rows, forward order *)
      p_inmap_fwd : int array;  (* flattened (input k, value reg) pairs *)
      p_inmap_bwd : int array;  (* flattened (input k, adjoint reg) pairs *)
      p_out_vregs : int array;  (* per output: value register *)
      p_out_aregs : int array;  (* per output: adjoint register *)
      p_source_ops : int;  (* non-const, non-input instructions pre-fusion *)
      p_fused : int;  (* fused pairs *)
    }

    let num_inputs p = p.p_n_inputs
    let num_outputs p = p.p_n_outputs
    let source_ops p = p.p_source_ops
    let superops p = Array.length p.p_code / plan_stride
    let fused_pairs p = p.p_fused

    let to_json p =
      let num i = Json.Num (float_of_int i) in
      let ints a = Json.List (Array.to_list (Array.map num a)) in
      Json.Obj
        [ ("n_inputs", num p.p_n_inputs);
          ("n_outputs", num p.p_n_outputs);
          ("consts", Json.List (Array.to_list (Array.map (fun c -> Json.Str (float_bits c)) p.p_consts)));
          ("n_vregs", num p.p_n_vregs);
          ("n_aregs", num p.p_n_aregs);
          ("code", ints p.p_code);
          ("inmap_fwd", ints p.p_inmap_fwd);
          ("inmap_bwd", ints p.p_inmap_bwd);
          ("out_vregs", ints p.p_out_vregs);
          ("out_aregs", ints p.p_out_aregs);
          ("source_ops", num p.p_source_ops);
          ("fused", num p.p_fused) ]

    let of_json j =
      let ( let* ) = Option.bind in
      let* n_inputs = Option.bind (Json.find j "n_inputs") Json.as_int in
      let* n_outputs = Option.bind (Json.find j "n_outputs") Json.as_int in
      let* n_vregs = Option.bind (Json.find j "n_vregs") Json.as_int in
      let* n_aregs = Option.bind (Json.find j "n_aregs") Json.as_int in
      let* source_ops = Option.bind (Json.find j "source_ops") Json.as_int in
      let* fused = Option.bind (Json.find j "fused") Json.as_int in
      let ints key =
        let* l = Option.bind (Json.find j key) Json.as_list in
        List.fold_left
          (fun acc v ->
            let* acc = acc in
            let* i = Json.as_int v in
            Some (i :: acc))
          (Some []) l
        |> Option.map (fun l -> Array.of_list (List.rev l))
      in
      let* code = ints "code" in
      let* inmap_fwd = ints "inmap_fwd" in
      let* inmap_bwd = ints "inmap_bwd" in
      let* out_vregs = ints "out_vregs" in
      let* out_aregs = ints "out_aregs" in
      let* consts =
        let* l = Option.bind (Json.find j "consts") Json.as_list in
        List.fold_left
          (fun acc v ->
            let* acc = acc in
            let* s = Json.as_string v in
            let* c = float_of_bits s in
            Some (c :: acc))
          (Some []) l
        |> Option.map (fun l -> Array.of_list (List.rev l))
      in
      let vreg_ok r = r >= 0 && r < n_vregs in
      let areg_ok r = r >= 0 && r < n_aregs in
      let rows_ok =
        Array.length code mod plan_stride = 0
        && (let ok = ref true in
            let rows = Array.length code / plan_stride in
            for s = 0 to rows - 1 do
              let w = s * plan_stride in
              if not (valid_opcode code.(w)) then ok := false;
              for f = 0 to 4 do
                if not (vreg_ok code.(w + 1 + (2 * f))) then ok := false;
                if not (areg_ok code.(w + 2 + (2 * f))) then ok := false
              done
            done;
            !ok)
      in
      let pairs_ok m ~reg_ok =
        Array.length m mod 2 = 0
        && (let ok = ref true in
            for p = 0 to (Array.length m / 2) - 1 do
              let k = m.(2 * p) and r = m.((2 * p) + 1) in
              if not (k >= 0 && k < n_inputs && reg_ok r) then ok := false
            done;
            !ok)
      in
      if
        n_inputs >= 0 && n_outputs >= 0 && source_ops >= 0 && fused >= 0
        && n_vregs >= Array.length consts
        && n_aregs >= 1
        && rows_ok
        && pairs_ok inmap_fwd ~reg_ok:vreg_ok
        && pairs_ok inmap_bwd ~reg_ok:areg_ok
        && Array.length out_vregs = n_outputs
        && Array.length out_aregs = n_outputs
        && Array.for_all vreg_ok out_vregs
        && Array.for_all areg_ok out_aregs
      then
        Some
          { p_n_inputs = n_inputs; p_n_outputs = n_outputs; p_consts = consts;
            p_n_vregs = n_vregs; p_n_aregs = n_aregs; p_code = code;
            p_inmap_fwd = inmap_fwd; p_inmap_bwd = inmap_bwd;
            p_out_vregs = out_vregs; p_out_aregs = out_aregs;
            p_source_ops = source_ops; p_fused = fused }
      else None
  end

  let plan_compile_count = Atomic.make 0
  let plan_compiles () = Atomic.get plan_compile_count

  (* Which fused pair a candidate (i1, i2) forms, if any. *)
  type fuse2 =
    | F_bin2 of int * int  (* (a op1 b) op2 c *)
    | F_bin2r of int * int  (* c op2 (a op1 b) *)
    | F_unbin of int * int  (* un (a op1 b) *)

  type superop =
    | S_single of int
    | S_fused of int * int * fuse2 * int  (* i1, i2, kind, c slot (or -1) *)

  let compile_plan (t : t) : Plan.t =
    Atomic.incr plan_compile_count;
    let n = Array.length t.instrs in
    let sz = Stdlib.max 1 n in
    let uses = Array.make sz 0 in
    let last_use = Array.make sz (-1) in
    let iter_operands i f =
      match t.instrs.(i) with
      | Iconst _ | Iinput _ -> ()
      | Ibin (_, a, b) ->
        f a;
        f b
      | Iun (_, a) -> f a
      | Isel (_, l, r, a, b) ->
        f l;
        f r;
        f a;
        f b
    in
    for i = 0 to n - 1 do
      iter_operands i (fun s ->
          uses.(s) <- uses.(s) + 1;
          if i > last_use.(s) then last_use.(s) <- i)
    done;
    let out_count = Array.make sz 0 in
    Array.iter (fun o -> out_count.(o) <- out_count.(o) + 1) t.outputs;
    let arith_bin = function Add | Sub | Mul | Div -> true | _ -> false in
    let arith = ref [] in
    for i = n - 1 downto 0 do
      match t.instrs.(i) with Iconst _ | Iinput _ -> () | _ -> arith := i :: !arith
    done;
    let arith = Array.of_list !arith in
    let na = Array.length arith in
    (* Greedy fusion over the const/input-hoisted instruction sequence:
       pair (i1, i2) fuses when i1 is an add/sub/mul/div whose only
       consumer is i2 — the *next* such instruction — and i1 is not an
       output. Adjacency keeps every backward accumulation in interpreter
       order (nothing can interleave between the pair's updates). *)
    let sups = ref [] in
    let fused_pairs = ref 0 in
    let j = ref 0 in
    while !j < na do
      let i1 = arith.(!j) in
      let fused =
        if !j + 1 >= na then None
        else
          let i2 = arith.(!j + 1) in
          match t.instrs.(i1) with
          | Ibin (op1, _, _) when arith_bin op1 && uses.(i1) = 1 && out_count.(i1) = 0 -> (
            let k1 = bidx op1 in
            match t.instrs.(i2) with
            | Ibin (op2, a2, b2) when arith_bin op2 && (a2 = i1 || b2 = i1) ->
              if a2 = i1 then Some (S_fused (i1, i2, F_bin2 (k1, bidx op2), b2))
              else Some (S_fused (i1, i2, F_bin2r (k1, bidx op2), a2))
            | Iun ((Log | Exp | Sqrt) as u, a2) when a2 = i1 ->
              let ui = match u with Log -> 0 | Exp -> 1 | _ -> 2 in
              Some (S_fused (i1, i2, F_unbin (ui, k1), -1))
            | _ -> None)
          | _ -> None
      in
      match fused with
      | Some s ->
        sups := s :: !sups;
        incr fused_pairs;
        j := !j + 2
      | None ->
        sups := S_single i1 :: !sups;
        incr j
    done;
    let sups = Array.of_list (List.rev !sups) in
    (* Pinning: a slot whose *value* the backward sweep reads (directly, or
       to recompute a fused intermediate) must keep its register to the end
       of the forward sweep; outputs are read by the gather at forward end. *)
    let pinned = Array.make sz false in
    Array.iter (fun o -> pinned.(o) <- true) t.outputs;
    let pin s = pinned.(s) <- true in
    Array.iter
      (fun sup ->
        match sup with
        | S_single i -> (
          match t.instrs.(i) with
          | Iconst _ | Iinput _ -> ()
          | Ibin (op, a, b) -> (
            match op with
            | Mul | Div | Min | Max ->
              pin a;
              pin b
            | Pow ->
              pin a;
              pin b;
              pin i
            | Add | Sub -> ())
          | Iun (op, a) -> (
            match op with
            | Log | Abs -> pin a
            | Exp | Sqrt -> pin i
            | Neg -> ())
          | Isel (_, l, r, _, _) ->
            pin l;
            pin r)
        | S_fused (i1, i2, kind, c) ->
          let op1, a, b =
            match t.instrs.(i1) with Ibin (op, a, b) -> (op, a, b) | _ -> assert false
          in
          let need_vt, pin_c, pin_dst =
            match kind with
            | F_bin2 (_, k2) | F_bin2r (_, k2) ->
              let mul_div = k2 = 2 || k2 = 3 in
              (mul_div, mul_div, false)
            | F_unbin (u, _) -> (u = 0, false, u = 1 || u = 2)
          in
          (* mul/div read both operand values; any vt recompute does too *)
          if need_vt || bidx op1 >= 2 then begin
            pin a;
            pin b
          end;
          if pin_c then pin c;
          if pin_dst then pin i2)
      sups;
    (* Value registers: consts first (pre-broadcast planes), then a linear
       scan that recycles unpinned registers after their last forward read;
       release-before-allocate lets a superop write in place. *)
    let vreg = Array.make sz (-1) in
    let consts = ref [] in
    let nc = ref 0 in
    for i = 0 to n - 1 do
      match t.instrs.(i) with
      | Iconst c ->
        vreg.(i) <- !nc;
        consts := c :: !consts;
        nc := !nc + 1
      | _ -> ()
    done;
    let consts = Array.of_list (List.rev !consts) in
    let next_vreg = ref !nc in
    let free = ref [] in
    let released = Array.make sz false in
    let alloc () =
      match !free with
      | r :: rest ->
        free := rest;
        r
      | [] ->
        let r = !next_vreg in
        incr next_vreg;
        r
    in
    let release_operand e s =
      if
        (match t.instrs.(s) with Iconst _ -> false | _ -> true)
        && (not pinned.(s)) && (not released.(s)) && last_use.(s) <= e
      then begin
        released.(s) <- true;
        free := vreg.(s) :: !free
      end
    in
    let sup_at = Array.make sz (-1) in
    Array.iteri
      (fun si sup ->
        match sup with
        | S_single i -> sup_at.(i) <- si
        | S_fused (_, i2, _, _) -> sup_at.(i2) <- si)
      sups;
    (* Inputs are scattered at sweep start (hoisted before every superop),
       so their registers are allocated first: an input plane must never
       share a register with any superop destination that executes before
       the input's original tape position. *)
    for i = 0 to n - 1 do
      match t.instrs.(i) with Iinput _ -> vreg.(i) <- alloc () | _ -> ()
    done;
    for i = 0 to n - 1 do
      match t.instrs.(i) with
      | Iconst _ | Iinput _ -> ()
      | _ ->
        let si = sup_at.(i) in
        if si >= 0 then begin
          (match sups.(si) with
          | S_single _ -> iter_operands i (release_operand i)
          | S_fused (i1, i2, _, _) ->
            iter_operands i1 (release_operand i2);
            iter_operands i2 (fun s -> if s <> i1 then release_operand i2 s));
          vreg.(i) <- alloc ()
        end
    done;
    (* Adjoint registers: one plane per materialised non-const slot (a
       fused intermediate's adjoint lives in a kernel local); const
       operands share a write-only sink plane. *)
    let fused_first = Array.make sz false in
    Array.iter
      (function S_fused (i1, _, _, _) -> fused_first.(i1) <- true | _ -> ())
      sups;
    let areg = Array.make sz (-1) in
    let n_areg = ref 0 in
    for i = 0 to n - 1 do
      match t.instrs.(i) with
      | Iconst _ -> ()
      | _ ->
        if not fused_first.(i) then begin
          areg.(i) <- !n_areg;
          incr n_areg
        end
    done;
    let sink = !n_areg in
    let vr s = vreg.(s) in
    let ar s = match t.instrs.(s) with Iconst _ -> sink | _ -> areg.(s) in
    let code = Array.make (Array.length sups * plan_stride) 0 in
    Array.iteri
      (fun si sup ->
        let w = si * plan_stride in
        let set k v = code.(w + k) <- v in
        match sup with
        | S_single i -> (
          set 1 (vr i);
          set 2 (ar i);
          match t.instrs.(i) with
          | Iconst _ | Iinput _ -> assert false
          | Ibin (op, a, b) ->
            set 0 (op_bin_base + bidx op);
            set 3 (vr a);
            set 4 (ar a);
            set 5 (vr b);
            set 6 (ar b)
          | Iun (op, a) ->
            set 0 (op_un_base + uidx op);
            set 3 (vr a);
            set 4 (ar a)
          | Isel (op, l, r, a, b) ->
            set 0 (op_sel_base + cidx op);
            set 3 (vr l);
            set 5 (vr r);
            set 7 (vr a);
            set 8 (ar a);
            set 9 (vr b);
            set 10 (ar b))
        | S_fused (i1, i2, kind, c) ->
          let a, b =
            match t.instrs.(i1) with Ibin (_, a, b) -> (a, b) | _ -> assert false
          in
          set 1 (vr i2);
          set 2 (ar i2);
          set 3 (vr a);
          set 4 (ar a);
          set 5 (vr b);
          set 6 (ar b);
          (match kind with
          | F_bin2 (k1, k2) ->
            set 0 (op_bin2_base + (k1 * 4) + k2);
            set 7 (vr c);
            set 8 (ar c)
          | F_bin2r (k1, k2) ->
            set 0 (op_bin2r_base + (k1 * 4) + k2);
            set 7 (vr c);
            set 8 (ar c)
          | F_unbin (u, k1) -> set 0 (op_unbin_base + (u * 4) + k1)))
      sups;
    let inputs = ref [] in
    for i = n - 1 downto 0 do
      match t.instrs.(i) with Iinput k -> inputs := (k, i) :: !inputs | _ -> ()
    done;
    let inputs = !inputs in
    let ninp = List.length inputs in
    let inmap_fwd = Array.make (2 * ninp) 0 in
    let inmap_bwd = Array.make (2 * ninp) 0 in
    List.iteri
      (fun j (k, i) ->
        inmap_fwd.(2 * j) <- k;
        inmap_fwd.((2 * j) + 1) <- vreg.(i);
        inmap_bwd.(2 * j) <- k;
        inmap_bwd.((2 * j) + 1) <- areg.(i))
      inputs;
    { Plan.p_n_inputs = t.n_inputs;
      p_n_outputs = Array.length t.outputs;
      p_consts = consts;
      p_n_vregs = !next_vreg;
      p_n_aregs = sink + 1;
      p_code = code;
      p_inmap_fwd = inmap_fwd;
      p_inmap_bwd = inmap_bwd;
      p_out_vregs = Array.map vr t.outputs;
      p_out_aregs = Array.map ar t.outputs;
      p_source_ops = na;
      p_fused = !fused_pairs
    }

  (* --- kernel selection ----------------------------------------------------- *)

  let vector_kernels =
    ref
      (match Sys.getenv_opt "FELIX_NO_SIMD" with
      | Some ("1" | "true" | "yes") -> false
      | Some _ | None -> true)

  let set_vector_kernels b = vector_kernels := b
  let using_vector_kernels () = !vector_kernels

  external plan_fwd_c :
    int array ->
    float array ->
    float array ->
    float array ->
    int array ->
    int array ->
    int ->
    int ->
    int ->
    int ->
    unit = "felix_tape_fwd_byte" "felix_tape_fwd"
    [@@noalloc]

  external plan_bwd_c :
    int array ->
    float array ->
    float array ->
    float array ->
    float array ->
    int array ->
    int array ->
    int ->
    int ->
    int ->
    int ->
    unit = "felix_tape_bwd_byte" "felix_tape_bwd"
    [@@noalloc]

  (* --- portable plan kernels -------------------------------------------------

     Bit-for-bit the semantics of tape_stubs.c: same operation order per
     lane, same guards, same [0.0 +. g]-style normalisation of a fused
     intermediate's adjoint (the interpreter accumulates it into a
     zero-initialised cell; re-materialising that addition keeps signed
     zeros and NaN payloads identical). *)

  let bapply k x y =
    match k with 0 -> x +. y | 1 -> x -. y | 2 -> x *. y | _ -> x /. y

  let capply k x y =
    match k with
    | 0 -> x < y
    | 1 -> x <= y
    | 2 -> x > y
    | 3 -> x >= y
    | 4 -> x = y
    | _ -> x <> y

  let plan_fwd_ocaml code vals cap batch =
    let nsup = Array.length code / plan_stride in
    for s = 0 to nsup - 1 do
      let w = s * plan_stride in
      let op = Array.unsafe_get code w in
      let d = Array.unsafe_get code (w + 1) * cap in
      if op < op_un_base then begin
        let ab = Array.unsafe_get code (w + 3) * cap
        and bb = Array.unsafe_get code (w + 5) * cap in
        match op - op_bin_base with
        | 0 ->
          for l = 0 to batch - 1 do
            Array.unsafe_set vals (d + l)
              (Array.unsafe_get vals (ab + l) +. Array.unsafe_get vals (bb + l))
          done
        | 1 ->
          for l = 0 to batch - 1 do
            Array.unsafe_set vals (d + l)
              (Array.unsafe_get vals (ab + l) -. Array.unsafe_get vals (bb + l))
          done
        | 2 ->
          for l = 0 to batch - 1 do
            Array.unsafe_set vals (d + l)
              (Array.unsafe_get vals (ab + l) *. Array.unsafe_get vals (bb + l))
          done
        | 3 ->
          for l = 0 to batch - 1 do
            Array.unsafe_set vals (d + l)
              (Array.unsafe_get vals (ab + l) /. Array.unsafe_get vals (bb + l))
          done
        | 4 ->
          for l = 0 to batch - 1 do
            Array.unsafe_set vals (d + l)
              (Array.unsafe_get vals (ab + l) ** Array.unsafe_get vals (bb + l))
          done
        | 5 ->
          for l = 0 to batch - 1 do
            Array.unsafe_set vals (d + l)
              (Float.min (Array.unsafe_get vals (ab + l)) (Array.unsafe_get vals (bb + l)))
          done
        | _ ->
          for l = 0 to batch - 1 do
            Array.unsafe_set vals (d + l)
              (Float.max (Array.unsafe_get vals (ab + l)) (Array.unsafe_get vals (bb + l)))
          done
      end
      else if op < op_sel_base then begin
        let ab = Array.unsafe_get code (w + 3) * cap in
        match op - op_un_base with
        | 0 ->
          for l = 0 to batch - 1 do
            Array.unsafe_set vals (d + l) (-.Array.unsafe_get vals (ab + l))
          done
        | 1 ->
          for l = 0 to batch - 1 do
            Array.unsafe_set vals (d + l) (log (Array.unsafe_get vals (ab + l)))
          done
        | 2 ->
          for l = 0 to batch - 1 do
            Array.unsafe_set vals (d + l) (exp (Array.unsafe_get vals (ab + l)))
          done
        | 3 ->
          for l = 0 to batch - 1 do
            Array.unsafe_set vals (d + l) (sqrt (Array.unsafe_get vals (ab + l)))
          done
        | _ ->
          for l = 0 to batch - 1 do
            Array.unsafe_set vals (d + l) (Float.abs (Array.unsafe_get vals (ab + l)))
          done
      end
      else if op < op_bin2_base then begin
        let cmp = op - op_sel_base in
        let lb = Array.unsafe_get code (w + 3) * cap
        and rb = Array.unsafe_get code (w + 5) * cap
        and ab = Array.unsafe_get code (w + 7) * cap
        and bb = Array.unsafe_get code (w + 9) * cap in
        for l = 0 to batch - 1 do
          let src =
            if capply cmp (Array.unsafe_get vals (lb + l)) (Array.unsafe_get vals (rb + l))
            then ab
            else bb
          in
          Array.unsafe_set vals (d + l) (Array.unsafe_get vals (src + l))
        done
      end
      else begin
        let ab = Array.unsafe_get code (w + 3) * cap
        and bb = Array.unsafe_get code (w + 5) * cap in
        if op < op_bin2r_base then begin
          let k = op - op_bin2_base in
          let k1 = k / 4 and k2 = k mod 4 in
          let cb = Array.unsafe_get code (w + 7) * cap in
          for l = 0 to batch - 1 do
            let t = bapply k1 (Array.unsafe_get vals (ab + l)) (Array.unsafe_get vals (bb + l)) in
            Array.unsafe_set vals (d + l) (bapply k2 t (Array.unsafe_get vals (cb + l)))
          done
        end
        else if op < op_unbin_base then begin
          let k = op - op_bin2r_base in
          let k1 = k / 4 and k2 = k mod 4 in
          let cb = Array.unsafe_get code (w + 7) * cap in
          for l = 0 to batch - 1 do
            let t = bapply k1 (Array.unsafe_get vals (ab + l)) (Array.unsafe_get vals (bb + l)) in
            Array.unsafe_set vals (d + l) (bapply k2 (Array.unsafe_get vals (cb + l)) t)
          done
        end
        else begin
          let k = op - op_unbin_base in
          let u = k / 4 and k1 = k mod 4 in
          for l = 0 to batch - 1 do
            let t = bapply k1 (Array.unsafe_get vals (ab + l)) (Array.unsafe_get vals (bb + l)) in
            Array.unsafe_set vals (d + l)
              (match u with 0 -> log t | 1 -> exp t | _ -> sqrt t)
          done
        end
      end
    done

  let plan_bwd_ocaml code vals adj cap batch =
    let nsup = Array.length code / plan_stride in
    for s = nsup - 1 downto 0 do
      let w = s * plan_stride in
      let op = Array.unsafe_get code w in
      let d = Array.unsafe_get code (w + 1) * cap in
      let dj = Array.unsafe_get code (w + 2) * cap in
      if op < op_un_base then begin
        let av = Array.unsafe_get code (w + 3) * cap
        and aj = Array.unsafe_get code (w + 4) * cap
        and bv = Array.unsafe_get code (w + 5) * cap
        and bj = Array.unsafe_get code (w + 6) * cap in
        match op - op_bin_base with
        | 0 ->
          for l = 0 to batch - 1 do
            let g = Array.unsafe_get adj (dj + l) in
            if g <> 0.0 then begin
              Array.unsafe_set adj (aj + l) (Array.unsafe_get adj (aj + l) +. g);
              Array.unsafe_set adj (bj + l) (Array.unsafe_get adj (bj + l) +. g)
            end
          done
        | 1 ->
          for l = 0 to batch - 1 do
            let g = Array.unsafe_get adj (dj + l) in
            if g <> 0.0 then begin
              Array.unsafe_set adj (aj + l) (Array.unsafe_get adj (aj + l) +. g);
              Array.unsafe_set adj (bj + l) (Array.unsafe_get adj (bj + l) -. g)
            end
          done
        | 2 ->
          for l = 0 to batch - 1 do
            let g = Array.unsafe_get adj (dj + l) in
            if g <> 0.0 then begin
              let va = Array.unsafe_get vals (av + l)
              and vb = Array.unsafe_get vals (bv + l) in
              Array.unsafe_set adj (aj + l) (Array.unsafe_get adj (aj + l) +. (g *. vb));
              Array.unsafe_set adj (bj + l) (Array.unsafe_get adj (bj + l) +. (g *. va))
            end
          done
        | 3 ->
          for l = 0 to batch - 1 do
            let g = Array.unsafe_get adj (dj + l) in
            if g <> 0.0 then begin
              let va = Array.unsafe_get vals (av + l)
              and vb = Array.unsafe_get vals (bv + l) in
              Array.unsafe_set adj (aj + l) (Array.unsafe_get adj (aj + l) +. (g /. vb));
              Array.unsafe_set adj (bj + l)
                (Array.unsafe_get adj (bj + l) -. (g *. va /. (vb *. vb)))
            end
          done
        | 4 ->
          for l = 0 to batch - 1 do
            let g = Array.unsafe_get adj (dj + l) in
            if g <> 0.0 then begin
              let va = Array.unsafe_get vals (av + l)
              and vb = Array.unsafe_get vals (bv + l) in
              let v0 = Array.unsafe_get vals (d + l) in
              if va <> 0.0 then
                Array.unsafe_set adj (aj + l)
                  (Array.unsafe_get adj (aj + l) +. (g *. vb *. v0 /. va))
              else
                Array.unsafe_set adj (aj + l)
                  (Array.unsafe_get adj (aj + l) +. (g *. vb *. (va ** (vb -. 1.0))));
              if va > 0.0 then
                Array.unsafe_set adj (bj + l)
                  (Array.unsafe_get adj (bj + l) +. (g *. v0 *. log va))
            end
          done
        | 5 ->
          for l = 0 to batch - 1 do
            let g = Array.unsafe_get adj (dj + l) in
            if g <> 0.0 then begin
              if Array.unsafe_get vals (av + l) <= Array.unsafe_get vals (bv + l) then
                Array.unsafe_set adj (aj + l) (Array.unsafe_get adj (aj + l) +. g)
              else Array.unsafe_set adj (bj + l) (Array.unsafe_get adj (bj + l) +. g)
            end
          done
        | _ ->
          for l = 0 to batch - 1 do
            let g = Array.unsafe_get adj (dj + l) in
            if g <> 0.0 then begin
              if Array.unsafe_get vals (av + l) >= Array.unsafe_get vals (bv + l) then
                Array.unsafe_set adj (aj + l) (Array.unsafe_get adj (aj + l) +. g)
              else Array.unsafe_set adj (bj + l) (Array.unsafe_get adj (bj + l) +. g)
            end
          done
      end
      else if op < op_sel_base then begin
        let av = Array.unsafe_get code (w + 3) * cap
        and aj = Array.unsafe_get code (w + 4) * cap in
        match op - op_un_base with
        | 0 ->
          for l = 0 to batch - 1 do
            let g = Array.unsafe_get adj (dj + l) in
            if g <> 0.0 then
              Array.unsafe_set adj (aj + l) (Array.unsafe_get adj (aj + l) -. g)
          done
        | 1 ->
          for l = 0 to batch - 1 do
            let g = Array.unsafe_get adj (dj + l) in
            if g <> 0.0 then
              Array.unsafe_set adj (aj + l)
                (Array.unsafe_get adj (aj + l) +. (g /. Array.unsafe_get vals (av + l)))
          done
        | 2 ->
          for l = 0 to batch - 1 do
            let g = Array.unsafe_get adj (dj + l) in
            if g <> 0.0 then
              Array.unsafe_set adj (aj + l)
                (Array.unsafe_get adj (aj + l) +. (g *. Array.unsafe_get vals (d + l)))
          done
        | 3 ->
          for l = 0 to batch - 1 do
            let g = Array.unsafe_get adj (dj + l) in
            if g <> 0.0 then
              Array.unsafe_set adj (aj + l)
                (Array.unsafe_get adj (aj + l)
                +. (g /. (2.0 *. Array.unsafe_get vals (d + l))))
          done
        | _ ->
          for l = 0 to batch - 1 do
            let g = Array.unsafe_get adj (dj + l) in
            if g <> 0.0 then
              Array.unsafe_set adj (aj + l)
                (Array.unsafe_get adj (aj + l)
                +. (if Array.unsafe_get vals (av + l) >= 0.0 then g else -.g))
          done
      end
      else if op < op_bin2_base then begin
        let cmp = op - op_sel_base in
        let lb = Array.unsafe_get code (w + 3) * cap
        and rb = Array.unsafe_get code (w + 5) * cap
        and aj = Array.unsafe_get code (w + 8) * cap
        and bj = Array.unsafe_get code (w + 10) * cap in
        for l = 0 to batch - 1 do
          let g = Array.unsafe_get adj (dj + l) in
          if g <> 0.0 then begin
            if capply cmp (Array.unsafe_get vals (lb + l)) (Array.unsafe_get vals (rb + l))
            then Array.unsafe_set adj (aj + l) (Array.unsafe_get adj (aj + l) +. g)
            else Array.unsafe_set adj (bj + l) (Array.unsafe_get adj (bj + l) +. g)
          end
        done
      end
      else begin
        let av = Array.unsafe_get code (w + 3) * cap
        and aj = Array.unsafe_get code (w + 4) * cap
        and bv = Array.unsafe_get code (w + 5) * cap
        and bj = Array.unsafe_get code (w + 6) * cap in
        if op < op_unbin_base then begin
          let bin2r = op >= op_bin2r_base in
          let k = if bin2r then op - op_bin2r_base else op - op_bin2_base in
          let k1 = k / 4 and k2 = k mod 4 in
          let cv = Array.unsafe_get code (w + 7) * cap
          and cj = Array.unsafe_get code (w + 8) * cap in
          for l = 0 to batch - 1 do
            let g = Array.unsafe_get adj (dj + l) in
            if g <> 0.0 then begin
              let va = Array.unsafe_get vals (av + l)
              and vb = Array.unsafe_get vals (bv + l)
              and vc = Array.unsafe_get vals (cv + l) in
              let vt = bapply k1 va vb in
              let gt =
                if bin2r then begin
                  (* v = c op2 t: the interpreter updates adj[c] (left
                     operand) first, then accumulates t's adjoint into a
                     zero cell — re-materialised as 0.0 +/- x. *)
                  (match k2 with
                  | 0 | 1 ->
                    Array.unsafe_set adj (cj + l) (Array.unsafe_get adj (cj + l) +. g)
                  | 2 ->
                    Array.unsafe_set adj (cj + l)
                      (Array.unsafe_get adj (cj + l) +. (g *. vt))
                  | _ ->
                    Array.unsafe_set adj (cj + l)
                      (Array.unsafe_get adj (cj + l) +. (g /. vt)));
                  match k2 with
                  | 0 -> 0.0 +. g
                  | 1 -> 0.0 -. g
                  | 2 -> 0.0 +. (g *. vc)
                  | _ -> 0.0 -. (g *. vc /. (vt *. vt))
                end
                else begin
                  (* v = t op2 c: t's adjoint (left operand) accumulates
                     first, then adj[c]. *)
                  let gt =
                    match k2 with
                    | 0 | 1 -> 0.0 +. g
                    | 2 -> 0.0 +. (g *. vc)
                    | _ -> 0.0 +. (g /. vc)
                  in
                  (match k2 with
                  | 0 ->
                    Array.unsafe_set adj (cj + l) (Array.unsafe_get adj (cj + l) +. g)
                  | 1 ->
                    Array.unsafe_set adj (cj + l) (Array.unsafe_get adj (cj + l) -. g)
                  | 2 ->
                    Array.unsafe_set adj (cj + l)
                      (Array.unsafe_get adj (cj + l) +. (g *. vt))
                  | _ ->
                    Array.unsafe_set adj (cj + l)
                      (Array.unsafe_get adj (cj + l) -. (g *. vt /. (vc *. vc))));
                  gt
                end
              in
              if gt <> 0.0 then begin
                match k1 with
                | 0 ->
                  Array.unsafe_set adj (aj + l) (Array.unsafe_get adj (aj + l) +. gt);
                  Array.unsafe_set adj (bj + l) (Array.unsafe_get adj (bj + l) +. gt)
                | 1 ->
                  Array.unsafe_set adj (aj + l) (Array.unsafe_get adj (aj + l) +. gt);
                  Array.unsafe_set adj (bj + l) (Array.unsafe_get adj (bj + l) -. gt)
                | 2 ->
                  Array.unsafe_set adj (aj + l)
                    (Array.unsafe_get adj (aj + l) +. (gt *. vb));
                  Array.unsafe_set adj (bj + l)
                    (Array.unsafe_get adj (bj + l) +. (gt *. va))
                | _ ->
                  Array.unsafe_set adj (aj + l)
                    (Array.unsafe_get adj (aj + l) +. (gt /. vb));
                  Array.unsafe_set adj (bj + l)
                    (Array.unsafe_get adj (bj + l) -. (gt *. va /. (vb *. vb)))
              end
            end
          done
        end
        else begin
          let k = op - op_unbin_base in
          let u = k / 4 and k1 = k mod 4 in
          for l = 0 to batch - 1 do
            let g = Array.unsafe_get adj (dj + l) in
            if g <> 0.0 then begin
              let va = Array.unsafe_get vals (av + l)
              and vb = Array.unsafe_get vals (bv + l) in
              let gt =
                match u with
                | 0 -> 0.0 +. (g /. bapply k1 va vb)
                | 1 -> 0.0 +. (g *. Array.unsafe_get vals (d + l))
                | _ -> 0.0 +. (g /. (2.0 *. Array.unsafe_get vals (d + l)))
              in
              if gt <> 0.0 then begin
                match k1 with
                | 0 ->
                  Array.unsafe_set adj (aj + l) (Array.unsafe_get adj (aj + l) +. gt);
                  Array.unsafe_set adj (bj + l) (Array.unsafe_get adj (bj + l) +. gt)
                | 1 ->
                  Array.unsafe_set adj (aj + l) (Array.unsafe_get adj (aj + l) +. gt);
                  Array.unsafe_set adj (bj + l) (Array.unsafe_get adj (bj + l) -. gt)
                | 2 ->
                  Array.unsafe_set adj (aj + l)
                    (Array.unsafe_get adj (aj + l) +. (gt *. vb));
                  Array.unsafe_set adj (bj + l)
                    (Array.unsafe_get adj (bj + l) +. (gt *. va))
                | _ ->
                  Array.unsafe_set adj (aj + l)
                    (Array.unsafe_get adj (aj + l) +. (gt /. vb));
                  Array.unsafe_set adj (bj + l)
                    (Array.unsafe_get adj (bj + l) -. (gt *. va /. (vb *. vb)))
              end
            end
          done
        end
      end
    done

  (* --- plan workspaces ------------------------------------------------------- *)

  type plan_batch_workspace = {
    pw_cap : int;
    pw_vals : float array;  (* n_vregs * cap, register-major; const planes pre-broadcast *)
    pw_adj : float array;  (* n_aregs * cap *)
    pw_out : float array;  (* cap * n_outputs, lane-major *)
  }

  let plan_batch_workspace (p : Plan.t) ~batch =
    if batch < 1 then invalid_arg "Tape.plan_batch_workspace: batch must be >= 1";
    let vals = Array.make (Stdlib.max 1 (p.Plan.p_n_vregs * batch)) 0.0 in
    (* Constants are broadcast once here; no per-sweep constant ops remain. *)
    Array.iteri (fun c v -> Array.fill vals (c * batch) batch v) p.Plan.p_consts;
    { pw_cap = batch;
      pw_vals = vals;
      pw_adj = Array.make (Stdlib.max 1 (p.Plan.p_n_aregs * batch)) 0.0;
      pw_out = Array.make (Stdlib.max 1 (p.Plan.p_n_outputs * batch)) 0.0
    }

  let check_pws (p : Plan.t) pw ~batch name =
    if batch < 1 || batch > pw.pw_cap then invalid_arg (name ^ ": batch exceeds capacity");
    if Array.length pw.pw_vals <> Stdlib.max 1 (p.Plan.p_n_vregs * pw.pw_cap) then
      invalid_arg (name ^ ": workspace does not match plan")

  let plan_forward_batch_into (p : Plan.t) pw ~batch xs =
    check_pws p pw ~batch "Tape.plan_forward_batch_into";
    let ni = p.Plan.p_n_inputs in
    if Array.length xs < batch * ni then
      invalid_arg "Tape.plan_forward_batch_into: input arity mismatch";
    let cap = pw.pw_cap in
    if !vector_kernels then
      plan_fwd_c p.Plan.p_code pw.pw_vals xs pw.pw_out p.Plan.p_inmap_fwd
        p.Plan.p_out_vregs cap batch ni p.Plan.p_n_outputs
    else begin
      let vals = pw.pw_vals in
      let m = Array.length p.Plan.p_inmap_fwd / 2 in
      for j = 0 to m - 1 do
        let k = p.Plan.p_inmap_fwd.(2 * j)
        and base = p.Plan.p_inmap_fwd.((2 * j) + 1) * cap in
        for l = 0 to batch - 1 do
          Array.unsafe_set vals (base + l) (Array.unsafe_get xs ((l * ni) + k))
        done
      done;
      plan_fwd_ocaml p.Plan.p_code vals cap batch;
      let out = pw.pw_out and nout = p.Plan.p_n_outputs in
      for k = 0 to nout - 1 do
        let sb = p.Plan.p_out_vregs.(k) * cap in
        for l = 0 to batch - 1 do
          Array.unsafe_set out ((l * nout) + k) (Array.unsafe_get vals (sb + l))
        done
      done
    end;
    pw.pw_out

  let plan_backward_batch_into (p : Plan.t) pw ~batch v grad =
    check_pws p pw ~batch "Tape.plan_backward_batch_into";
    let ni = p.Plan.p_n_inputs and nout = p.Plan.p_n_outputs in
    if Array.length v < batch * nout then
      invalid_arg "Tape.plan_backward_batch_into: adjoint arity mismatch";
    if Array.length grad < batch * ni then
      invalid_arg "Tape.plan_backward_batch_into: gradient arity mismatch";
    let cap = pw.pw_cap in
    if !vector_kernels then
      plan_bwd_c p.Plan.p_code pw.pw_vals pw.pw_adj v grad p.Plan.p_inmap_bwd
        p.Plan.p_out_aregs cap batch ni nout
    else begin
      let adj = pw.pw_adj in
      Array.fill adj 0 (Array.length adj) 0.0;
      Array.fill grad 0 (batch * ni) 0.0;
      for k = 0 to nout - 1 do
        let sb = p.Plan.p_out_aregs.(k) * cap in
        for l = 0 to batch - 1 do
          Array.unsafe_set adj (sb + l)
            (Array.unsafe_get adj (sb + l) +. Array.unsafe_get v ((l * nout) + k))
        done
      done;
      plan_bwd_ocaml p.Plan.p_code pw.pw_vals adj cap batch;
      let m = Array.length p.Plan.p_inmap_bwd / 2 in
      for j = 0 to m - 1 do
        let k = p.Plan.p_inmap_bwd.(2 * j)
        and base = p.Plan.p_inmap_bwd.((2 * j) + 1) * cap in
        for l = 0 to batch - 1 do
          let g = Array.unsafe_get adj (base + l) in
          if g <> 0.0 then begin
            let gi = (l * ni) + k in
            Array.unsafe_set grad gi (Array.unsafe_get grad gi +. g)
          end
        done
      done
    end

  let jacobian t xs =
    if Array.length xs <> t.n_inputs then invalid_arg "Tape.jacobian: input arity mismatch";
    let n = Stdlib.max 1 (Array.length t.instrs) in
    let vals = Array.make n 0.0 and adj = Array.make n 0.0 in
    (* One forward pass shared by all m adjoint sweeps: the reverse sweep
       only reads vals, never writes them. *)
    forward t xs vals;
    let outputs = Array.map (fun slot -> vals.(slot)) t.outputs in
    let jac =
      Array.map
        (fun slot ->
          Array.fill adj 0 n 0.0;
          adj.(slot) <- 1.0;
          let grad = Array.make t.n_inputs 0.0 in
          backward t vals adj grad;
          grad)
        t.outputs
    in
    (outputs, jac)
end

let check_gradient ?(eps = 1e-5) ?(tol = 1e-3) ~inputs e xs =
  let tape = Tape.compile ~inputs [ e ] in
  let _, grad = Tape.vjp tape xs [| 1.0 |] in
  let ok = ref true in
  Array.iteri
    (fun i _ ->
      let xp = Array.copy xs and xm = Array.copy xs in
      xp.(i) <- xs.(i) +. eps;
      xm.(i) <- xs.(i) -. eps;
      let fp = (Tape.eval tape xp).(0) and fm = (Tape.eval tape xm).(0) in
      let fd = (fp -. fm) /. (2.0 *. eps) in
      let denom = max 1.0 (max (Float.abs fd) (Float.abs grad.(i))) in
      if Float.abs (fd -. grad.(i)) /. denom > tol then ok := false)
    xs;
  !ok
