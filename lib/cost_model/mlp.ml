type t = {
  sizes : int array;  (* layer widths, length L+1, sizes.(0) = inputs *)
  params : float array;  (* per layer: weights row-major (out x in), then biases *)
  mean : float array;
  std : float array;
}

let n_inputs t = t.sizes.(0)
let num_params t = Array.length t.params

let layer_offsets sizes =
  let n = Array.length sizes - 1 in
  let offs = Array.make n 0 in
  let total = ref 0 in
  for l = 0 to n - 1 do
    offs.(l) <- !total;
    total := !total + (sizes.(l) * sizes.(l + 1)) + sizes.(l + 1)
  done;
  (offs, !total)

let create rng ?(hidden = [ 256; 256; 256 ]) ~n_inputs () =
  let sizes = Array.of_list ((n_inputs :: hidden) @ [ 1 ]) in
  let _, total = layer_offsets sizes in
  let params = Array.make total 0.0 in
  let offs, _ = layer_offsets sizes in
  Array.iteri
    (fun l off ->
      let n_in = sizes.(l) and n_out = sizes.(l + 1) in
      let scale = sqrt (2.0 /. float_of_int n_in) in
      for i = 0 to (n_in * n_out) - 1 do
        params.(off + i) <- Rng.gaussian rng *. scale
      done)
    offs;
  { sizes; params; mean = Array.make n_inputs 0.0; std = Array.make n_inputs 1.0 }

let set_normalizer t ~mean ~std =
  if Array.length mean <> n_inputs t || Array.length std <> n_inputs t then
    invalid_arg "Mlp.set_normalizer: arity mismatch";
  Array.blit mean 0 t.mean 0 (Array.length mean);
  Array.iteri (fun i s -> t.std.(i) <- max 1e-6 s) std

let normalize t x =
  Array.init (Array.length x) (fun i -> (x.(i) -. t.mean.(i)) /. t.std.(i))

(* Forward pass keeping the activations of every layer (for backward). *)
let forward_acts t x =
  let offs, _ = layer_offsets t.sizes in
  let n_layers = Array.length offs in
  let acts = Array.make (n_layers + 1) [||] in
  acts.(0) <- normalize t x;
  for l = 0 to n_layers - 1 do
    let n_in = t.sizes.(l) and n_out = t.sizes.(l + 1) in
    let off = offs.(l) in
    let out = Array.make n_out 0.0 in
    let prev = acts.(l) in
    for o = 0 to n_out - 1 do
      let row = off + (o * n_in) in
      let s = ref t.params.(off + (n_in * n_out) + o) in
      for i = 0 to n_in - 1 do
        s := !s +. (t.params.(row + i) *. prev.(i))
      done;
      out.(o) <- (if l < n_layers - 1 then max 0.0 !s else !s)
    done;
    acts.(l + 1) <- out
  done;
  acts

let c_forwards = Telemetry.counter Telemetry.global "model.forwards"

let forward t x =
  Telemetry.Counter.incr c_forwards;
  let acts = forward_acts t x in
  (acts.(Array.length acts - 1)).(0)

(* --- batched (structure-of-arrays) workspaces ------------------------------

   One batch workspace runs the forward / input-gradient / parameter-
   gradient sweeps over up to [b_cap] feature rows in lockstep. Caller
   inputs and outputs keep the lane-major row convention ([xs]/[grads]
   row [l] is candidate [l]'s vector), but the internal activation and
   delta planes are feature-major with row stride equal to the current
   batch — [b_acts.(l).((j * batch) + lane)] — so the lanes of one neuron
   are contiguous: the layer sweep loads each weight once per batch and
   walks unit-stride lane strips, a GEMM-shaped kernel that the C stubs
   below vectorise across lanes. Each lane's accumulation order is exactly
   the scalar reference's (bias first, then inputs ascending; reverse-sweep
   contributions in ascending output order, zero-delta outputs skipped),
   so lane [l] of every batched sweep is bitwise-identical to [forward] /
   [input_gradient] on that row alone, at any batch size, on both the
   OCaml and the C kernels. *)

(* The C kernels (mlp_stubs.c) are register-blocked micro-kernels that
   run every result cell's IEEE operation sequence exactly as the loops
   below do, with vector lanes holding independent cells only; they are
   compiled with contraction and value-changing optimisations disabled,
   so vectorisation cannot change any cell's bits. The parameter-gradient
   sweep, whose weight cells sum across lanes, keeps each cell's lane
   order and vectorises across inputs instead. [FELIX_NO_SIMD=1] (or
   [set_vector_kernels false]) selects the portable OCaml loops instead —
   the equivalence tests exercise both. *)
external c_forward_layers :
  float array -> int array -> int array -> float array array -> int -> unit
  = "felix_mlp_forward_batch" [@@noalloc]

external c_forward_backward_layers :
  float array -> int array -> int array -> float array array -> float array array -> int
  -> int array -> unit
  = "felix_mlp_forward_backward_batch_byte" "felix_mlp_forward_backward_batch" [@@noalloc]

external c_param_backward_layers :
  float array -> int array -> int array -> float array array -> float array array -> int
  -> float array -> float array -> int array -> unit
  = "felix_mlp_param_backward_batch_byte" "felix_mlp_param_backward_batch" [@@noalloc]

let vector_kernels =
  ref
    (match Sys.getenv_opt "FELIX_NO_SIMD" with
    | Some ("1" | "true" | "yes") -> false
    | _ -> true)

let set_vector_kernels on = vector_kernels := on
let using_vector_kernels () = !vector_kernels

type batch_workspace = {
  b_cap : int;
  b_offs : int array;
  b_acts : float array array;  (* per layer: cap * sizes.(l), feature-major *)
  b_delta : float array array;
  b_lidx : int array;  (* active-lane (OCaml loops) or active-output (C
                          kernels) lists: max of cap and the widest layer *)
  b_ldval : float array;
  b_x : float array;  (* cap * n_inputs staging rows (train/forward batch) *)
  b_t : float array;  (* cap staging targets *)
  (* Training-only buffers, sized on first use so forward-only workspaces
     never carry them: the C weight-gradient sweep's lane-major transpose
     plane (cap * widest layer input, plus 8 doubles of edge-tile
     padding) and the training step's gradient. *)
  mutable b_prevT : float array;
  mutable b_grads : float array;
}

let batch_workspace t ~batch =
  if batch < 1 then invalid_arg "Mlp.batch_workspace: batch must be >= 1";
  let offs, _ = layer_offsets t.sizes in
  { b_cap = batch;
    b_offs = offs;
    b_acts = Array.map (fun n -> Array.make (batch * n) 0.0) t.sizes;
    b_delta = Array.map (fun n -> Array.make (batch * n) 0.0) t.sizes;
    b_lidx = Array.make (Array.fold_left max batch t.sizes) 0;
    b_ldval = Array.make batch 0.0;
    b_x = Array.make (batch * t.sizes.(0)) 0.0;
    b_t = Array.make batch 0.0;
    b_prevT = [||];
    b_grads = [||]
  }

let check_bws t bws ~batch name =
  if batch < 1 || batch > bws.b_cap then invalid_arg (name ^ ": batch exceeds capacity");
  if
    Array.length bws.b_acts <> Array.length t.sizes
    || not
         (Array.for_all2
            (fun (row : float array) n -> Array.length row = bws.b_cap * n)
            bws.b_acts t.sizes)
  then invalid_arg (name ^ ": workspace does not match model")

(* Normalise the lane-major caller rows into the feature-major input plane
   — a few KB against the MB-scale layer sweeps it feeds. *)
let normalize_batch t bws ~batch xs =
  let ni = t.sizes.(0) in
  let a0 = bws.b_acts.(0) in
  let mean = t.mean and std = t.std in
  for l = 0 to batch - 1 do
    let xb = l * ni in
    for i = 0 to ni - 1 do
      Array.unsafe_set a0 ((i * batch) + l)
        ((Array.unsafe_get xs (xb + i) -. Array.unsafe_get mean i)
        /. Array.unsafe_get std i)
    done
  done

(* Portable layer sweep: blocked over 2 output neurons x 4 lanes, so each
   weight load feeds 4 multiply-adds and each activation load 2, with the
   lane quad a contiguous strip of the feature-major plane. Every
   (lane, output) accumulator still sums bias-first then i-ascending,
   keeping each lane bit-identical to [forward_acts]. *)
let forward_layers_ocaml t bws ~batch =
  let offs = bws.b_offs in
  let n_layers = Array.length offs in
  let p = t.params in
  for layer = 0 to n_layers - 1 do
    let n_in = t.sizes.(layer) and n_out = t.sizes.(layer + 1) in
    let off = offs.(layer) in
    let prev = bws.b_acts.(layer) and out = bws.b_acts.(layer + 1) in
    let relu = layer < n_layers - 1 in
    let bias = off + (n_in * n_out) in
    let o = ref 0 in
    while !o + 1 < n_out do
      let o0 = !o in
      let r0 = off + (o0 * n_in) in
      let r1 = r0 + n_in in
      let b0 = Array.unsafe_get p (bias + o0) and b1 = Array.unsafe_get p (bias + o0 + 1) in
      let l = ref 0 in
      while !l + 3 < batch do
        let l0 = !l in
        let s00 = ref b0 and s01 = ref b0 and s02 = ref b0 and s03 = ref b0 in
        let s10 = ref b1 and s11 = ref b1 and s12 = ref b1 and s13 = ref b1 in
        for i = 0 to n_in - 1 do
          let w0 = Array.unsafe_get p (r0 + i) and w1 = Array.unsafe_get p (r1 + i) in
          let xb = (i * batch) + l0 in
          let x0 = Array.unsafe_get prev xb
          and x1 = Array.unsafe_get prev (xb + 1)
          and x2 = Array.unsafe_get prev (xb + 2)
          and x3 = Array.unsafe_get prev (xb + 3) in
          s00 := !s00 +. (w0 *. x0);
          s01 := !s01 +. (w0 *. x1);
          s02 := !s02 +. (w0 *. x2);
          s03 := !s03 +. (w0 *. x3);
          s10 := !s10 +. (w1 *. x0);
          s11 := !s11 +. (w1 *. x1);
          s12 := !s12 +. (w1 *. x2);
          s13 := !s13 +. (w1 *. x3)
        done;
        let oa = (o0 * batch) + l0 in
        let ob = oa + batch in
        Array.unsafe_set out oa (if relu && 0.0 >= !s00 then 0.0 else !s00);
        Array.unsafe_set out (oa + 1) (if relu && 0.0 >= !s01 then 0.0 else !s01);
        Array.unsafe_set out (oa + 2) (if relu && 0.0 >= !s02 then 0.0 else !s02);
        Array.unsafe_set out (oa + 3) (if relu && 0.0 >= !s03 then 0.0 else !s03);
        Array.unsafe_set out ob (if relu && 0.0 >= !s10 then 0.0 else !s10);
        Array.unsafe_set out (ob + 1) (if relu && 0.0 >= !s11 then 0.0 else !s11);
        Array.unsafe_set out (ob + 2) (if relu && 0.0 >= !s12 then 0.0 else !s12);
        Array.unsafe_set out (ob + 3) (if relu && 0.0 >= !s13 then 0.0 else !s13);
        l := l0 + 4
      done;
      while !l < batch do
        let l0 = !l in
        let s0 = ref b0 and s1 = ref b1 in
        for i = 0 to n_in - 1 do
          let x = Array.unsafe_get prev ((i * batch) + l0) in
          s0 := !s0 +. (Array.unsafe_get p (r0 + i) *. x);
          s1 := !s1 +. (Array.unsafe_get p (r1 + i) *. x)
        done;
        let oa = (o0 * batch) + l0 in
        Array.unsafe_set out oa (if relu && 0.0 >= !s0 then 0.0 else !s0);
        Array.unsafe_set out (oa + batch) (if relu && 0.0 >= !s1 then 0.0 else !s1);
        l := l0 + 1
      done;
      o := o0 + 2
    done;
    while !o < n_out do
      let o0 = !o in
      let r0 = off + (o0 * n_in) in
      let b0 = Array.unsafe_get p (bias + o0) in
      let l = ref 0 in
      while !l + 3 < batch do
        let l0 = !l in
        let s0 = ref b0 and s1 = ref b0 and s2 = ref b0 and s3 = ref b0 in
        for i = 0 to n_in - 1 do
          let w = Array.unsafe_get p (r0 + i) in
          let xb = (i * batch) + l0 in
          s0 := !s0 +. (w *. Array.unsafe_get prev xb);
          s1 := !s1 +. (w *. Array.unsafe_get prev (xb + 1));
          s2 := !s2 +. (w *. Array.unsafe_get prev (xb + 2));
          s3 := !s3 +. (w *. Array.unsafe_get prev (xb + 3))
        done;
        let oa = (o0 * batch) + l0 in
        Array.unsafe_set out oa (if relu && 0.0 >= !s0 then 0.0 else !s0);
        Array.unsafe_set out (oa + 1) (if relu && 0.0 >= !s1 then 0.0 else !s1);
        Array.unsafe_set out (oa + 2) (if relu && 0.0 >= !s2 then 0.0 else !s2);
        Array.unsafe_set out (oa + 3) (if relu && 0.0 >= !s3 then 0.0 else !s3);
        l := l0 + 4
      done;
      while !l < batch do
        let l0 = !l in
        let s = ref b0 in
        for i = 0 to n_in - 1 do
          s :=
            !s +. (Array.unsafe_get p (r0 + i) *. Array.unsafe_get prev ((i * batch) + l0))
        done;
        Array.unsafe_set out ((o0 * batch) + l0) (if relu && 0.0 >= !s then 0.0 else !s);
        l := l0 + 1
      done;
      o := o0 + 1
    done
  done

let forward_acts_batch t bws ~batch xs =
  normalize_batch t bws ~batch xs;
  if !vector_kernels then c_forward_layers t.params t.sizes bws.b_offs bws.b_acts batch
  else forward_layers_ocaml t bws ~batch;
  Array.length bws.b_offs

let forward_batch_into t bws ~batch xs ~scores =
  check_bws t bws ~batch "Mlp.forward_batch_into";
  if Array.length xs < batch * n_inputs t then
    invalid_arg "Mlp.forward_batch_into: input arity mismatch";
  if Array.length scores < batch then
    invalid_arg "Mlp.forward_batch_into: scores arity mismatch";
  Telemetry.Counter.incr ~by:batch c_forwards;
  let n_layers = forward_acts_batch t bws ~batch xs in
  let top = bws.b_acts.(n_layers) in
  for l = 0 to batch - 1 do
    Array.unsafe_set scores l (Array.unsafe_get top l)
  done

(* Portable reverse sweep, output-major: per output, compress the lanes
   where it is active (per-lane ReLU masks), then stream its weight row
   once for the whole batch, updating every active lane's cell of the
   feature-major d_in plane (a contiguous strip per input). Each d_in cell
   receives its o-contributions in ascending-o order with zero-delta
   outputs skipped — exactly the order of the per-lane loop in
   [input_gradient] — so every lane is bit-identical to the scalar path
   while weights load once per batch instead of once per lane. *)
let backward_layers_ocaml t bws ~batch =
  let n_layers = Array.length bws.b_offs in
  let top = bws.b_delta.(n_layers) in
  Array.fill top 0 (batch * t.sizes.(n_layers)) 0.0;
  for l = 0 to batch - 1 do
    top.(l) <- 1.0
  done;
  let p = t.params in
  let lidx = bws.b_lidx and ldval = bws.b_ldval in
  for layer = n_layers - 1 downto 0 do
    let n_in = t.sizes.(layer) and n_out = t.sizes.(layer + 1) in
    let off = bws.b_offs.(layer) in
    let d_in = bws.b_delta.(layer) in
    Array.fill d_in 0 (batch * n_in) 0.0;
    let cur = bws.b_delta.(layer + 1) in
    let nxt = bws.b_acts.(layer + 1) in
    let relu = layer < n_layers - 1 in
    for o = 0 to n_out - 1 do
      let ob = o * batch in
      let nact = ref 0 in
      for lane = 0 to batch - 1 do
        let d =
          if relu && Array.unsafe_get nxt (ob + lane) <= 0.0 then 0.0
          else Array.unsafe_get cur (ob + lane)
        in
        if d <> 0.0 then begin
          Array.unsafe_set lidx !nact lane;
          Array.unsafe_set ldval !nact d;
          incr nact
        end
      done;
      let nact = !nact in
      if nact > 0 then begin
        let row = off + (o * n_in) in
        for i = 0 to n_in - 1 do
          let w = Array.unsafe_get p (row + i) in
          let ib = i * batch in
          for k = 0 to nact - 1 do
            let pi = ib + Array.unsafe_get lidx k in
            Array.unsafe_set d_in pi
              (Array.unsafe_get d_in pi +. (Array.unsafe_get ldval k *. w))
          done
        done
      end
    done
  done

let input_gradient_batch_into t bws ~batch xs ~grads ~scores =
  check_bws t bws ~batch "Mlp.input_gradient_batch_into";
  if Array.length xs < batch * n_inputs t then
    invalid_arg "Mlp.input_gradient_batch_into: input arity mismatch";
  if Array.length grads < batch * n_inputs t then
    invalid_arg "Mlp.input_gradient_batch_into: gradient arity mismatch";
  if Array.length scores < batch then
    invalid_arg "Mlp.input_gradient_batch_into: scores arity mismatch";
  normalize_batch t bws ~batch xs;
  let n_layers = Array.length bws.b_offs in
  if !vector_kernels then
    c_forward_backward_layers t.params t.sizes bws.b_offs bws.b_acts bws.b_delta batch
      bws.b_lidx
  else begin
    forward_layers_ocaml t bws ~batch;
    backward_layers_ocaml t bws ~batch
  end;
  (* Lane-major caller outputs: scores from the top activations, gradients
     un-normalised back through the input scaling. *)
  let d0 = bws.b_delta.(0) in
  let ni = t.sizes.(0) in
  let topacts = bws.b_acts.(n_layers) in
  for lane = 0 to batch - 1 do
    Array.unsafe_set scores lane (Array.unsafe_get topacts lane);
    let gb = lane * ni in
    for i = 0 to ni - 1 do
      Array.unsafe_set grads (gb + i)
        (Array.unsafe_get d0 ((i * batch) + lane) /. Array.unsafe_get t.std i)
    done
  done

(* Portable reverse sweep of the parameter gradient. Per layer
   (descending) and output, compress the lanes where the output is active,
   then sweep the inputs once: each weight cell accumulates its active
   lanes in lane-ascending order — exactly the example order of the scalar
   loop — and each lane's d_in cell gains its o-contributions in the same
   ascending-o order. The weight and gradient cells load once per (o, i)
   instead of once per example. *)
let param_backward_layers_ocaml t bws ~batch grads =
  Array.fill grads 0 (Array.length grads) 0.0;
  let n_layers = Array.length bws.b_offs in
  let p = t.params in
  let lidx = bws.b_lidx and ldval = bws.b_ldval in
  for layer = n_layers - 1 downto 0 do
    let n_in = t.sizes.(layer) and n_out = t.sizes.(layer + 1) in
    let off = bws.b_offs.(layer) in
    let d_in = bws.b_delta.(layer) in
    Array.fill d_in 0 (batch * n_in) 0.0;
    let cur = bws.b_delta.(layer + 1) in
    let nxt = bws.b_acts.(layer + 1) in
    let prev = bws.b_acts.(layer) in
    let relu = layer < n_layers - 1 in
    let bias = off + (n_in * n_out) in
    for o = 0 to n_out - 1 do
      let ob = o * batch in
      let nact = ref 0 in
      for lane = 0 to batch - 1 do
        let d =
          if relu && Array.unsafe_get nxt (ob + lane) <= 0.0 then 0.0
          else Array.unsafe_get cur (ob + lane)
        in
        if d <> 0.0 then begin
          Array.unsafe_set lidx !nact lane;
          Array.unsafe_set ldval !nact d;
          incr nact
        end
      done;
      let nact = !nact in
      if nact > 0 then begin
        let row = off + (o * n_in) in
        for i = 0 to n_in - 1 do
          let w = Array.unsafe_get p (row + i) in
          let ib = i * batch in
          let g = ref (Array.unsafe_get grads (row + i)) in
          for k = 0 to nact - 1 do
            let lane = Array.unsafe_get lidx k in
            let d = Array.unsafe_get ldval k in
            let pi = ib + lane in
            g := !g +. (d *. Array.unsafe_get prev pi);
            Array.unsafe_set d_in pi (Array.unsafe_get d_in pi +. (d *. w))
          done;
          Array.unsafe_set grads (row + i) !g
        done;
        let gb = ref (Array.unsafe_get grads (bias + o)) in
        for k = 0 to nact - 1 do
          gb := !gb +. Array.unsafe_get ldval k
        done;
        Array.unsafe_set grads (bias + o) !gb
      end
    done
  done

let param_gradient_batch_into t bws ~batch ~xs ~targets grads =
  check_bws t bws ~batch "Mlp.param_gradient_batch_into";
  if Array.length xs < batch * n_inputs t then
    invalid_arg "Mlp.param_gradient_batch_into: input arity mismatch";
  if Array.length targets < batch then
    invalid_arg "Mlp.param_gradient_batch_into: target arity mismatch";
  if Array.length grads <> num_params t then
    invalid_arg "Mlp.param_gradient_batch_into: gradient arity mismatch";
  let n_layers = forward_acts_batch t bws ~batch xs in
  (* Loss and top deltas in lane order — the example order of the scalar
     [param_gradient] loop, so the running loss sum sees the same
     additions in the same sequence. *)
  let top = bws.b_acts.(n_layers) in
  let dtop = bws.b_delta.(n_layers) in
  let loss = ref 0.0 in
  let bsz = float_of_int batch in
  for lane = 0 to batch - 1 do
    let err = Array.unsafe_get top lane -. Array.unsafe_get targets lane in
    loss := !loss +. (err *. err);
    Array.unsafe_set dtop lane (2.0 *. err /. bsz)
  done;
  if !vector_kernels then begin
    let widest_in = ref 1 in
    for l = 0 to n_layers - 1 do
      widest_in := max !widest_in t.sizes.(l)
    done;
    (* The C edge tiles read up to 7 doubles past the last row. *)
    let need = (bws.b_cap * !widest_in) + 8 in
    if Array.length bws.b_prevT < need then bws.b_prevT <- Array.make need 0.0;
    c_param_backward_layers t.params t.sizes bws.b_offs bws.b_acts bws.b_delta batch grads
      bws.b_prevT bws.b_lidx
  end
  else param_backward_layers_ocaml t bws ~batch grads;
  !loss /. bsz

let input_gradient t x =
  let offs, _ = layer_offsets t.sizes in
  let n_layers = Array.length offs in
  let acts = forward_acts t x in
  let score = (acts.(n_layers)).(0) in
  (* Backward: delta over layer outputs. *)
  let delta = ref [| 1.0 |] in
  for l = n_layers - 1 downto 0 do
    let n_in = t.sizes.(l) and n_out = t.sizes.(l + 1) in
    let off = offs.(l) in
    let d_in = Array.make n_in 0.0 in
    let cur = !delta in
    for o = 0 to n_out - 1 do
      (* ReLU mask on hidden outputs. *)
      let d =
        if l < n_layers - 1 && (acts.(l + 1)).(o) <= 0.0 then 0.0 else cur.(o)
      in
      if d <> 0.0 then begin
        let row = off + (o * n_in) in
        for i = 0 to n_in - 1 do
          d_in.(i) <- d_in.(i) +. (d *. t.params.(row + i))
        done
      end
    done;
    delta := d_in
  done;
  (* Undo the input normalisation scaling. *)
  let g = Array.mapi (fun i d -> d /. t.std.(i)) !delta in
  (score, g)

let param_gradient t batch grads =
  (* Accumulate dMSE/dparams into [grads]; returns the batch loss. *)
  let offs, _ = layer_offsets t.sizes in
  let n_layers = Array.length offs in
  Array.fill grads 0 (Array.length grads) 0.0;
  let loss = ref 0.0 in
  let bsz = float_of_int (Array.length batch) in
  Array.iter
    (fun (x, target) ->
      let acts = forward_acts t x in
      let pred = (acts.(n_layers)).(0) in
      let err = pred -. target in
      loss := !loss +. (err *. err);
      let delta = ref [| 2.0 *. err /. bsz |] in
      for l = n_layers - 1 downto 0 do
        let n_in = t.sizes.(l) and n_out = t.sizes.(l + 1) in
        let off = offs.(l) in
        let d_in = Array.make n_in 0.0 in
        let cur = !delta in
        let prev = acts.(l) in
        for o = 0 to n_out - 1 do
          let d =
            if l < n_layers - 1 && (acts.(l + 1)).(o) <= 0.0 then 0.0 else cur.(o)
          in
          if d <> 0.0 then begin
            let row = off + (o * n_in) in
            for i = 0 to n_in - 1 do
              grads.(row + i) <- grads.(row + i) +. (d *. prev.(i));
              d_in.(i) <- d_in.(i) +. (d *. t.params.(row + i))
            done;
            grads.(off + (n_in * n_out) + o) <- grads.(off + (n_in * n_out) + o) +. d
          end
        done;
        delta := d_in
      done)
    batch;
  !loss /. bsz

let c_updates = Telemetry.counter Telemetry.global "model.updates"
let g_last_loss = Telemetry.gauge Telemetry.global "model.last_loss"

let stage_example bws l x target =
  let ni = Array.length bws.b_x / bws.b_cap in
  if l < 0 || l >= bws.b_cap then invalid_arg "Mlp.stage_example: lane exceeds capacity";
  if Array.length x <> ni then invalid_arg "Mlp.stage_example: arity mismatch";
  Array.blit x 0 bws.b_x (l * ni) ni;
  bws.b_t.(l) <- target

let train_staged t adam bws ~batch =
  let np = num_params t in
  if Array.length bws.b_grads <> np then bws.b_grads <- Array.make np 0.0;
  let loss =
    param_gradient_batch_into t bws ~batch ~xs:bws.b_x ~targets:bws.b_t bws.b_grads
  in
  Adam.step adam ~params:t.params ~grads:bws.b_grads;
  Telemetry.Counter.incr c_updates;
  Telemetry.Gauge.set g_last_loss loss;
  loss

let train_batch t adam batch =
  let bsz = Array.length batch in
  if bsz = 0 then 0.0
  else begin
    let bws = batch_workspace t ~batch:bsz in
    Array.iteri (fun l (x, target) -> stage_example bws l x target) batch;
    train_staged t adam bws ~batch:bsz
  end

let adam_for ?(lr = 1e-3) t = Adam.create ~lr (num_params t)

let copy t =
  { sizes = Array.copy t.sizes; params = Array.copy t.params; mean = Array.copy t.mean;
    std = Array.copy t.std }

(* --- versioned persistence -------------------------------------------------

   Weights and the input normaliser are stored as IEEE-754 bit strings in
   the one [Store.Artifact] envelope format, so a saved model reloads
   bit-identically and a load can tell "wrong file" from "old schema". *)

let artifact_kind = "felix-mlp"
let artifact_version = 1

let to_json t =
  Json.Obj
    [ ("sizes",
       Json.List
         (Array.to_list (Array.map (fun n -> Json.Num (float_of_int n)) t.sizes)));
      ("params", Json.Str (Store.Bits.of_floats t.params));
      ("mean", Json.Str (Store.Bits.of_floats t.mean));
      ("std", Json.Str (Store.Bits.of_floats t.std)) ]

let of_json j =
  let arr k =
    Option.bind (Option.bind (Json.find j k) Json.as_string) Store.Bits.to_floats
  in
  let sizes =
    match Json.find j "sizes" with
    | Some (Json.List l) ->
      let ints = List.filter_map Json.as_int l in
      if List.length ints = List.length l then Some (Array.of_list ints) else None
    | _ -> None
  in
  match (sizes, arr "params", arr "mean", arr "std") with
  | Some sizes, Some params, Some mean, Some std when Array.length sizes >= 2 ->
    let _, total = layer_offsets sizes in
    if
      total = Array.length params
      && Array.length mean = sizes.(0)
      && Array.length std = sizes.(0)
    then Some { sizes; params; mean; std }
    else None
  | _ -> None

let save_file t path =
  Store.Artifact.save ~path ~kind:artifact_kind ~version:artifact_version (to_json t)

let load_file path =
  match Store.Artifact.load ~path ~kind:artifact_kind ~version:artifact_version with
  | Error e -> Error e
  | Ok payload -> (
    match of_json payload with
    | Some t -> Ok t
    | None -> Error (Store.Corrupt (path ^ ": invalid cost-model payload")))
