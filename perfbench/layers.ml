(* Self-time attribution for the traced run.

   A span is a named interval. Program spans are the records the library
   already emits on Telemetry.global; benchmark spans are timed from the
   benchmark's own calls into the library and from the timestamps of the
   tuner's events. Both kinds are merged into one tree by interval
   containment: a span's parent is the shortest span that contains it
   (within [eps]). A span's self time is its duration minus the union of
   its children's intervals, so the self times of a tree add up to its
   root's duration. *)

type span = { name : string; start : float; stop : float }

let dur s = s.stop -. s.start
let eps = 5e-5

(* [a] contains [b] when [b] lies within [a] up to [eps] at either end and
   at least half of [b] overlaps [a] (so a short span that merely abuts
   [a] is not taken for its child). *)
let contains a b =
  a.start <= b.start +. eps
  && b.stop <= a.stop +. eps
  && min a.stop b.stop -. max a.start b.start >= 0.5 *. dur b

(* The layer a span's self time is attributed to. [None] marks a
   container: its self time is time no layer accounts for. *)
let layer_of = function
  | "bench.iteration" | "bench.window" | "bench.setup" | "bench.tune" | "tuner.tune"
  | "serve.job" ->
    None
  | "bench.model" | "cost_model.train_from_scratch" | "cost_model.pretrain"
  | "round.update" ->
    Some "cost_model"
  | "bench.graph" -> Some "graph"
  | "pack.prepare" | "pack.compile" | "sketch.generate" -> Some "features"
  | "felix.search_round" | "ansor.search_round" -> Some "optim"
  | "tuner.prepare_tasks" | "tuner.round" | "round" | "tuner.epilogue" -> Some "tuner"
  | "tuner.initial_round" | "round.search_measure" -> Some "measure"
  | "bench.store_open" | "tuner.prologue" | "round.commit" -> Some "store"
  | "bench.export" -> Some "export"
  | "serve.daemon" | "serve.submit" | "serve.result" -> Some "serve"
  | name -> (
    match String.index_opt name '.' with
    | Some i -> Some (String.sub name 0 i)
    | None -> Some name)

type node = { sp : span; mutable parent : int; mutable self : float }

(* Length of the union of [ivs] clipped to [lo, hi]. *)
let union_length lo hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, max cb b)) else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) ivs
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

let build spans =
  let nodes =
    List.sort
      (fun a b -> compare (a.start, -.dur a) (b.start, -.dur b))
      spans
    |> List.map (fun sp -> { sp; parent = -1; self = 0.0 })
    |> Array.of_list
  in
  let n = Array.length nodes in
  for i = 0 to n - 1 do
    let c = nodes.(i).sp in
    let best = ref (-1) in
    for j = 0 to n - 1 do
      let p = nodes.(j).sp in
      if j <> i
         && (dur p > dur c || (dur p = dur c && j < i))
         && contains p c
         && (!best < 0 || dur p < dur nodes.(!best).sp)
      then best := j
    done;
    nodes.(i).parent <- !best
  done;
  let kids = Array.make n [] in
  Array.iteri
    (fun i nd -> if nd.parent >= 0 then kids.(nd.parent) <- i :: kids.(nd.parent))
    nodes;
  Array.iteri
    (fun i nd ->
      let ivs = List.map (fun k -> (nodes.(k).sp.start, nodes.(k).sp.stop)) kids.(i) in
      nd.self <- dur nd.sp -. union_length nd.sp.start nd.sp.stop ivs)
    nodes;
  (nodes, kids)

type summary = {
  wall : float;  (** summed duration of the roots *)
  unattributed : float;  (** self time of containers *)
  by_layer : (string * float) list;  (** self time per layer, largest first *)
  self_by_name : (string * float) list;  (** self time per span name *)
  rows : (string * int * float * float) list;
      (** (indented path, count, total, self), in first-start order *)
}

let summarize spans =
  let nodes, kids = build spans in
  let wall = ref 0.0 and unattributed = ref 0.0 in
  let layers = Hashtbl.create 16 and names = Hashtbl.create 64 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  Array.iter
    (fun nd ->
      if nd.parent < 0 then wall := !wall +. dur nd.sp;
      bump names nd.sp.name nd.self;
      match layer_of nd.sp.name with
      | None -> unattributed := !unattributed +. nd.self
      | Some l -> bump layers l nd.self)
    nodes;
  (* Aggregate nodes by their path of names from the root, and list the
     paths depth-first, children in order of first occurrence. *)
  let rows = Hashtbl.create 64 and children = Hashtbl.create 64 in
  let rec visit path i =
    let nd = nodes.(i) in
    let p = path ^ "/" ^ nd.sp.name in
    (match Hashtbl.find_opt rows p with
    | Some (c, t, s) -> Hashtbl.replace rows p (c + 1, t +. dur nd.sp, s +. nd.self)
    | None ->
      Hashtbl.replace rows p (1, dur nd.sp, nd.self);
      Hashtbl.replace children path
        (p :: Option.value ~default:[] (Hashtbl.find_opt children path)));
    List.iter (visit p) (List.rev kids.(i))
  in
  Array.iteri (fun i nd -> if nd.parent < 0 then visit "" i) nodes;
  let rec listing depth path =
    List.concat_map
      (fun p ->
        let c, t, s = Hashtbl.find rows p in
        let n = String.length path + 1 in
        let leaf = String.sub p n (String.length p - n) in
        (String.make (2 * depth) ' ' ^ leaf, c, t, s) :: listing (depth + 1) p)
      (List.rev (Option.value ~default:[] (Hashtbl.find_opt children path)))
  in
  let rows = listing 0 "" in
  { wall = !wall;
    unattributed = !unattributed;
    by_layer =
      Hashtbl.fold (fun l s acc -> (l, s) :: acc) layers []
      |> List.sort (fun (_, a) (_, b) -> compare b a);
    self_by_name = Hashtbl.fold (fun n s acc -> (n, s) :: acc) names [];
    rows }

let coverage s = if s.wall > 0.0 then 1.0 -. (s.unattributed /. s.wall) else 0.0

(* The report, with every time divided by [per] (the number of traced
   iterations), so it reads per iteration. *)
let render ~title ~per ~overhead s =
  let b = Buffer.create 4096 in
  let per = float_of_int (max 1 per) in
  Printf.bprintf b "%s\n" title;
  Printf.bprintf b "self-time tree (seconds per traced iteration)\n";
  Printf.bprintf b "  %-52s %7s %10s %10s\n" "span" "count" "total_s" "self_s";
  List.iter
    (fun (name, c, t, sf) ->
      Printf.bprintf b "  %-52s %7.1f %10.4f %10.4f\n" name (float_of_int c /. per)
        (t /. per) (sf /. per))
    s.rows;
  Printf.bprintf b "self time by layer\n";
  List.iter
    (fun (l, sf) ->
      Printf.bprintf b "  %-20s %10.4f s  %6.2f%%\n" l (sf /. per)
        (if s.wall > 0.0 then 100.0 *. sf /. s.wall else 0.0))
    s.by_layer;
  Printf.bprintf b "wall %.4f s, unattributed %.4f s, coverage %.2f%%\n" (s.wall /. per)
    (s.unattributed /. per) (100.0 *. coverage s);
  Printf.bprintf b "tracing overhead (traced / untraced wall - 1): %+.2f%%\n"
    (100.0 *. overhead);
  Buffer.contents b
