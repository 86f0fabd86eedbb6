(* Batched objective-gradient kernel for Equation 4:

     O(y) = -C(Feat(y)) + lambda * sum_r max(g_r(y), 0)^2

   over one tile of candidates. One [value_grad_batch] call runs two
   compiled-plan forwards (features, penalties), two plan backwards, and
   one MLP forward + backward, all over the whole tile and into the
   tile's own pre-sized workspace, so the Adam inner loop allocates
   nothing. Every lane runs the scalar reference's operation sequence, so
   lane [l] is bitwise the scalar composition (features_at +
   input_gradient + features_vjp + penalty_value_grad) on row [l], at any
   tile width and domain count. *)

type t = {
  pack : Pack.t;
  model : Mlp.t;
  cap : int;
  pws : Pack.batch_workspace;
  mws : Mlp.batch_workspace;
  adj : float array;  (* cap * n_model_inputs feature adjoints *)
  gmodel : float array;  (* cap * n_vars *)
  gpen : float array;
  scores : float array;  (* cap *)
  pvals : float array;
}

let create ~batch model pack =
  if batch < 1 then invalid_arg "Objective.create: batch must be >= 1";
  let nv = Pack.num_vars pack and ni = Mlp.n_inputs model in
  { pack;
    model;
    cap = batch;
    pws = Pack.batch_workspace pack ~batch;
    mws = Mlp.batch_workspace model ~batch;
    adj = Array.make (batch * ni) 0.0;
    gmodel = Array.make (batch * nv) 0.0;
    gpen = Array.make (batch * nv) 0.0;
    scores = Array.make batch 0.0;
    pvals = Array.make batch 0.0
  }

let pack t = t.pack

let check_batch t ~batch name =
  if batch < 1 || batch > t.cap then invalid_arg (name ^ ": batch exceeds capacity")

let value_grad_batch t ~lambda ~batch ys ~grads ~objs =
  check_batch t ~batch "Objective.value_grad_batch";
  let nv = Pack.num_vars t.pack in
  if Array.length ys < batch * nv then
    invalid_arg "Objective.value_grad_batch: point arity mismatch";
  if Array.length grads < batch * nv then
    invalid_arg "Objective.value_grad_batch: gradient arity mismatch";
  if Array.length objs < batch then
    invalid_arg "Objective.value_grad_batch: objective arity mismatch";
  (* Feature forward (values retained in the workspace for the backward
     sweep), then the model's input gradient off those features. *)
  let feats = Pack.features_forward_batch t.pack t.pws ~batch ys in
  Mlp.input_gradient_batch_into t.model t.mws ~batch feats ~grads:t.adj ~scores:t.scores;
  (* dO/dfeat = -dC/dfeat. *)
  let adj = t.adj in
  for i = 0 to (batch * Mlp.n_inputs t.model) - 1 do
    Array.unsafe_set adj i (-.Array.unsafe_get adj i)
  done;
  Pack.features_backward_batch t.pack t.pws ~batch adj t.gmodel;
  Pack.penalty_value_grad_batch_into t.pack t.pws ~batch ys ~grads:t.gpen ~values:t.pvals;
  for l = 0 to batch - 1 do
    objs.(l) <- -.Array.unsafe_get t.scores l +. (lambda *. Array.unsafe_get t.pvals l)
  done;
  let gm = t.gmodel and gp = t.gpen in
  for j = 0 to (batch * nv) - 1 do
    Array.unsafe_set grads j (Array.unsafe_get gm j +. (lambda *. Array.unsafe_get gp j))
  done

let predict_batch t ~batch ys ~scores =
  check_batch t ~batch "Objective.predict_batch";
  if Array.length ys < batch * Pack.num_vars t.pack then
    invalid_arg "Objective.predict_batch: point arity mismatch";
  if Array.length scores < batch then
    invalid_arg "Objective.predict_batch: scores arity mismatch";
  let feats = Pack.features_forward_batch t.pack t.pws ~batch ys in
  Mlp.forward_batch_into t.model t.mws ~batch feats ~scores

(* --- tiling ------------------------------------------------------------------ *)

(* BENCH_tape: per-point plan throughput at B=128 is within 8% of B=32,
   while workspace memory grows linearly with the width. *)
let max_batch = 32

let map_tiles ?runtime model pack_of items f =
  let domains = match runtime with Some rt -> Runtime.domains rt | None -> 1 in
  (* Group item indices by physical pack, in order of first appearance. *)
  let groups = ref [] in
  Array.iteri
    (fun i item ->
      let p = pack_of item in
      match List.find_opt (fun (q, _) -> q == p) !groups with
      | Some (_, l) -> l := i :: !l
      | None -> groups := (p, ref [ i ]) :: !groups)
    items;
  (* Each group splits into min(domains, n) contiguous chunks of
     near-equal size, one per parallel task. *)
  let chunks =
    List.concat_map
      (fun (pack, l) ->
        let idxs = Array.of_list (List.rev !l) in
        let n = Array.length idxs in
        let k = min domains n in
        List.init k (fun c ->
            let lo = c * n / k and hi = (c + 1) * n / k in
            (pack, Array.sub idxs lo (hi - lo))))
      (List.rev !groups)
    |> Array.of_list
  in
  (* A chunk owns one workspace for its whole life and runs through it in
     tiles of at most [max_batch] items. *)
  let run (pack, idxs) =
    let m = Array.length idxs in
    let width = min max_batch m in
    let obj = create ~batch:width model pack in
    Array.concat
      (List.init ((m + width - 1) / width) (fun k ->
           let off = k * width in
           f obj (Array.init (min width (m - off)) (fun l -> items.(idxs.(off + l))))))
  in
  let per_chunk =
    match runtime with
    | Some rt -> Runtime.parallel_map rt run chunks
    | None -> Array.map run chunks
  in
  (* Scatter back by original index: the result order never depends on
     the tiling. *)
  let out = Array.make (Array.length items) None in
  Array.iteri
    (fun c results ->
      let _, idxs = chunks.(c) in
      Array.iteri (fun l i -> out.(i) <- Some results.(l)) idxs)
    per_chunk;
  Array.map Option.get out

let predict_all ?runtime model point_of items =
  map_tiles ?runtime model
    (fun item -> fst (point_of item))
    items
    (fun obj tile ->
      let batch = Array.length tile in
      let nv = Pack.num_vars obj.pack in
      let ys = Array.make (batch * nv) 0.0 in
      Array.iteri (fun l item -> Array.blit (snd (point_of item)) 0 ys (l * nv) nv) tile;
      let scores = Array.make batch 0.0 in
      predict_batch obj ~batch ys ~scores;
      scores)
