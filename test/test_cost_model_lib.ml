(* Tests for lib/cost_model: Adam, Mlp, Dataset, Train. *)

open Testutil

let test_adam_minimises_quadratic () =
  let params = [| 5.0; -3.0 |] in
  let adam = Adam.create ~lr:0.1 2 in
  for _ = 1 to 500 do
    let grads = Array.map (fun p -> 2.0 *. p) params in
    Adam.step adam ~params ~grads
  done;
  Alcotest.(check bool) "converged to 0" true
    (Float.abs params.(0) < 1e-3 && Float.abs params.(1) < 1e-3)

let test_adam_arity () =
  let adam = Adam.create 2 in
  Alcotest.(check bool) "arity mismatch raises" true
    (try
       Adam.step adam ~params:[| 0.0 |] ~grads:[| 0.0 |];
       false
     with Invalid_argument _ -> true)

let test_adam_reset () =
  let params = [| 1.0 |] in
  let adam = Adam.create ~lr:0.1 1 in
  Adam.step adam ~params ~grads:[| 1.0 |];
  Adam.reset adam;
  let p0 = params.(0) in
  Adam.step adam ~params ~grads:[| 1.0 |];
  (* first post-reset step has the same magnitude as a fresh first step *)
  check_close ~tol:1e-9 "fresh step size" 0.1 (p0 -. params.(0))

let test_mlp_shapes () =
  let rng = Rng.create 1 in
  let m = Mlp.create rng ~hidden:[ 16; 8 ] ~n_inputs:4 () in
  Alcotest.(check int) "inputs" 4 (Mlp.n_inputs m);
  (* 4*16+16 + 16*8+8 + 8*1+1 = 80+136+9 = 225 *)
  Alcotest.(check int) "params" 225 (Mlp.num_params m);
  let out = Mlp.forward m [| 0.1; 0.2; 0.3; 0.4 |] in
  Alcotest.(check bool) "finite" true (Float.is_finite out)

let test_mlp_input_gradient_fd () =
  let rng = Rng.create 2 in
  let m = Mlp.create rng ~hidden:[ 16; 16 ] ~n_inputs:5 () in
  let x = Array.init 5 (fun i -> 0.3 *. float_of_int (i + 1)) in
  let score, grad = Mlp.input_gradient m x in
  check_close ~tol:1e-9 "score matches forward" (Mlp.forward m x) score;
  let eps = 1e-5 in
  Array.iteri
    (fun i _ ->
      let xp = Array.copy x and xm = Array.copy x in
      xp.(i) <- x.(i) +. eps;
      xm.(i) <- x.(i) -. eps;
      let fd = (Mlp.forward m xp -. Mlp.forward m xm) /. (2.0 *. eps) in
      if Float.abs (fd -. grad.(i)) > 1e-4 *. max 1.0 (Float.abs fd) then
        Alcotest.failf "grad mismatch at %d: %.6f vs %.6f" i fd grad.(i))
    x

let test_mlp_learns_linear_function () =
  let rng = Rng.create 3 in
  let m = Mlp.create rng ~hidden:[ 32; 32 ] ~n_inputs:3 () in
  let adam = Mlp.adam_for ~lr:3e-3 m in
  let target x = (2.0 *. x.(0)) -. x.(1) +. (0.5 *. x.(2)) in
  let sample () =
    let x = Array.init 3 (fun _ -> Rng.range rng (-1.0) 1.0) in
    (x, target x)
  in
  let final_loss = ref infinity in
  for _ = 1 to 400 do
    let batch = Array.init 32 (fun _ -> sample ()) in
    final_loss := Mlp.train_batch m adam batch
  done;
  Alcotest.(check bool) "loss small" true (!final_loss < 0.02)

let test_mlp_normalizer () =
  let rng = Rng.create 4 in
  let m = Mlp.create rng ~hidden:[ 8 ] ~n_inputs:2 () in
  let before = Mlp.forward m [| 100.0; 200.0 |] in
  Mlp.set_normalizer m ~mean:[| 100.0; 200.0 |] ~std:[| 10.0; 10.0 |];
  let after = Mlp.forward m [| 100.0; 200.0 |] in
  (* normalised input is now the zero vector *)
  let zero_out = Mlp.forward m [| 100.0; 200.0 |] in
  check_close "deterministic" after zero_out;
  Alcotest.(check bool) "normalisation changes output" true (before <> after)

let test_mlp_copy_independent () =
  let rng = Rng.create 5 in
  let m = Mlp.create rng ~hidden:[ 8 ] ~n_inputs:2 () in
  let c = Mlp.copy m in
  let adam = Mlp.adam_for c in
  ignore (Mlp.train_batch c adam [| ([| 1.0; 2.0 |], 5.0) |]);
  Alcotest.(check bool) "original unchanged" true
    (Mlp.forward m [| 1.0; 2.0 |] <> Mlp.forward c [| 1.0; 2.0 |]
    || Mlp.num_params m = Mlp.num_params c)

let test_mlp_save_load () =
  let rng = Rng.create 6 in
  let m = Mlp.create rng ~hidden:[ 8 ] ~n_inputs:2 () in
  let path = Filename.temp_file "felix_mlp" ".json" in
  (match Mlp.save_file m path with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Store.error_message e));
  (match Mlp.load_file path with
  | Ok m2 ->
    (* The artifact stores IEEE-754 bits: the reload is exact, not close. *)
    Alcotest.(check bool) "bit-identical forward" true
      (Int64.equal
         (Int64.bits_of_float (Mlp.forward m [| 0.5; 0.7 |]))
         (Int64.bits_of_float (Mlp.forward m2 [| 0.5; 0.7 |])))
  | Error e -> Alcotest.fail (Store.error_message e));
  (* A wrong-kind artifact is rejected with a typed error, not a crash. *)
  (match Store.Artifact.save ~path ~kind:"felix-other" ~version:1 Json.Null with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Store.error_message e));
  (match Mlp.load_file path with
  | Error (Store.Kind_mismatch _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Kind_mismatch");
  Sys.remove path;
  (match Mlp.load_file path with
  | Error (Store.Not_found _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Not_found")

let small_tasks () = [ dense_sg (); conv_sg () ]

let test_dataset_generation () =
  let rng = Rng.create 7 in
  let samples = Dataset.generate rng Device.rtx_a5000 ~schedules_per_task:24 (small_tasks ()) in
  Alcotest.(check bool) "non-empty" true (Array.length samples > 20);
  Array.iter
    (fun (s : Dataset.sample) ->
      Alcotest.(check int) "82 features" 82 (Array.length s.features);
      if not (Float.is_finite s.target) then Alcotest.fail "non-finite target")
    samples

(* Global-registry instruments: enabled around the call, deltas checked,
   disabled again so other tests see the default-inert registry. *)
let with_global_telemetry f =
  Telemetry.enable Telemetry.global;
  Fun.protect ~finally:(fun () -> Telemetry.disable Telemetry.global) f

let test_dataset_counters () =
  let attempts = Telemetry.counter Telemetry.global "cost_model.dataset_attempts" in
  let accepted = Telemetry.counter Telemetry.global "cost_model.dataset_accepted" in
  with_global_telemetry @@ fun () ->
  let a0 = Telemetry.Counter.value attempts and k0 = Telemetry.Counter.value accepted in
  let samples =
    Dataset.generate (Rng.create 7) Device.rtx_a5000 ~schedules_per_task:24 (small_tasks ())
  in
  let da = Telemetry.Counter.value attempts - a0 and dk = Telemetry.Counter.value accepted - k0 in
  (* Accepted points are deduplicated and labelled into samples. *)
  Alcotest.(check bool) "accepted >= samples" true (dk >= Array.length samples);
  Alcotest.(check bool) "attempts > accepted" true (da > dk)

let test_pretrain_epoch_events () =
  let data = Rng.create 83 in
  let sample _ =
    let features = Array.init 5 (fun _ -> Rng.gaussian data) in
    { Dataset.features; target = features.(0) -. features.(2); task_key = "t" }
  in
  let ds = { Dataset.train = Array.init 150 sample; valid = Array.init 20 sample } in
  let capturing = ref false and epochs = ref [] in
  Telemetry.add_sink Telemetry.global (fun r ->
      if !capturing && r.Telemetry.r_kind = Telemetry.Event && r.r_name = "cost_model.epoch"
      then epochs := r.r_attrs :: !epochs);
  with_global_telemetry (fun () ->
      capturing := true;
      Fun.protect ~finally:(fun () -> capturing := false) (fun () ->
          ignore (Train.pretrain (Rng.create 84) ~hidden:[ 8 ] ~epochs:3 ~batch_size:16 ds)));
  let epochs = List.rev !epochs in
  Alcotest.(check (list (option int))) "one event per epoch" [ Some 1; Some 2; Some 3 ]
    (List.map (fun a -> Telemetry.attr_int a "epoch") epochs);
  List.iter
    (fun a ->
      Alcotest.(check (option int)) "minibatches" (Some 10) (Telemetry.attr_int a "minibatches");
      match Telemetry.attr_float a "mean_loss" with
      | Some l when Float.is_finite l && l > 0.0 -> ()
      | _ -> Alcotest.fail "mean_loss missing or not a positive finite loss")
    epochs

(* Runs [f] with a Logs reporter that collects warnings. *)
let capture_warnings f =
  let warnings = ref [] in
  let reporter =
    { Logs.report =
        (fun _src level ~over k msgf ->
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.kasprintf
                (fun msg ->
                  if level = Logs.Warning then warnings := msg :: !warnings;
                  over ();
                  k ())
                fmt)) }
  in
  let saved_reporter = Logs.reporter () and saved_level = Logs.level () in
  Logs.set_reporter reporter;
  Logs.set_level (Some Logs.Warning);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter saved_reporter;
      Logs.set_level saved_level)
    f;
  List.rev !warnings

let test_cache_model_nested_and_unwritable () =
  let model = Mlp.create (Rng.create 85) ~hidden:[ 4 ] ~n_inputs:3 () in
  let device = Device.rtx_a5000 in
  let root = Filename.temp_file "felix_model_cache" "" in
  Sys.remove root;
  let nested = List.fold_left Filename.concat root [ "a"; "b"; "c" ] in
  let warnings = capture_warnings (fun () -> Train.cache_model ~cache_dir:nested device model) in
  Alcotest.(check (list string)) "no warning" [] warnings;
  (* A cached model is what the next bootstrap loads, with no training. *)
  let loaded = Train.pretrained_for_device ~cache_dir:nested device in
  Alcotest.(check string) "reloaded bytes" (Json.to_string (Mlp.to_json model))
    (Json.to_string (Mlp.to_json loaded));
  (* Under a regular file no directory can be made, even as root. *)
  let blocker = Filename.concat root "file" in
  Out_channel.with_open_bin blocker (fun oc -> output_string oc "x");
  let unwritable = Filename.concat blocker "sub" in
  let warnings =
    capture_warnings (fun () -> Train.cache_model ~cache_dir:unwritable device model)
  in
  (match warnings with
  | [ w ] ->
    Alcotest.(check bool) "warning names the path" true
      (contains ~needle:(Train.model_path ~cache_dir:unwritable device) w)
  | ws -> Alcotest.failf "expected one warning, got %d" (List.length ws));
  Sys.remove (Train.model_path ~cache_dir:nested device);
  Sys.remove blocker;
  List.iter Sys.rmdir [ nested; Filename.dirname nested; Filename.concat root "a"; root ]

let test_dataset_split () =
  let rng = Rng.create 8 in
  let samples =
    Array.init 100 (fun i ->
        { Dataset.features = [| float_of_int i |]; target = 0.0; task_key = "k" })
  in
  let ds = Dataset.split rng ~train_frac:0.9 samples in
  Alcotest.(check int) "train" 90 (Array.length ds.Dataset.train);
  Alcotest.(check int) "valid" 10 (Array.length ds.Dataset.valid)

let test_collect_tasks_dedup () =
  let tasks = Dataset.collect_tasks ~max_tasks:500 () in
  let keys = List.map Compute.workload_key tasks in
  Alcotest.(check int) "all distinct" (List.length keys)
    (List.length (List.sort_uniq String.compare keys));
  Alcotest.(check bool) "a healthy number of tasks" true (List.length tasks > 50)

let test_pretrain_ranks_schedules () =
  (* The heart of the reproduction: after pretraining, the model must rank
     schedules of a held-in task far better than chance. *)
  let rng = Rng.create 9 in
  let samples =
    Dataset.generate rng Device.rtx_a5000 ~schedules_per_task:220 (small_tasks ())
  in
  let ds = Dataset.split rng samples in
  let _model, metrics = Train.pretrain rng ~epochs:12 ~hidden:[ 96; 96 ] ds in
  Alcotest.(check bool)
    (Printf.sprintf "validation spearman %.3f > 0.7 on %d samples" metrics.Train.spearman
       metrics.Train.n_samples)
    true (metrics.Train.spearman > 0.7)

let test_evaluate_empty () =
  let rng = Rng.create 10 in
  let m = Mlp.create rng ~hidden:[ 4 ] ~n_inputs:2 () in
  let metrics = Train.evaluate m [||] in
  Alcotest.(check int) "no samples" 0 metrics.Train.n_samples

(* --- batched (structure-of-arrays) kernels -------------------------------- *)

let bits = Int64.bits_of_float
let bits_eq a b = Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) a b

(* Run [f] once on the vectorised C kernels and once on the portable OCaml
   loops; both must agree with the scalar reference bitwise. *)
let on_both_kernel_sets f =
  let saved = Mlp.using_vector_kernels () in
  Fun.protect
    ~finally:(fun () -> Mlp.set_vector_kernels saved)
    (fun () ->
      List.iter
        (fun vec ->
          Mlp.set_vector_kernels vec;
          f (if vec then "simd" else "ocaml"))
        [ true; false ])

let batch_test_model rng =
  (* Odd widths exercise the remainder paths of the blocked kernels. *)
  let model = Mlp.create rng ~hidden:[ 13; 9; 6 ] ~n_inputs:11 () in
  Mlp.set_normalizer model
    ~mean:(Array.init 11 (fun _ -> Rng.gaussian rng))
    ~std:(Array.init 11 (fun _ -> 0.5 +. Float.abs (Rng.gaussian rng)));
  model

let test_mlp_batch_bitwise () =
  let rng = Rng.create 77 in
  let model = batch_test_model rng in
  let ni = 11 in
  on_both_kernel_sets (fun kset ->
      List.iter
        (fun batch ->
          let bws = Mlp.batch_workspace model ~batch in
          let xs = Array.init (batch * ni) (fun _ -> 3.0 *. Rng.gaussian rng) in
          let scores = Array.make batch 0.0 in
          Mlp.forward_batch_into model bws ~batch xs ~scores;
          for l = 0 to batch - 1 do
            let x = Array.sub xs (l * ni) ni in
            let s = Mlp.forward model x in
            if not (Int64.equal (bits s) (bits scores.(l))) then
              Alcotest.failf "%s batch %d lane %d: forward diverged (%h vs %h)" kset
                batch l s scores.(l)
          done;
          let grads = Array.make (batch * ni) 0.0 in
          Mlp.input_gradient_batch_into model bws ~batch xs ~grads ~scores;
          for l = 0 to batch - 1 do
            let x = Array.sub xs (l * ni) ni in
            let s, g = Mlp.input_gradient model x in
            if not (Int64.equal (bits s) (bits scores.(l))) then
              Alcotest.failf "%s batch %d lane %d: batched score diverged" kset batch l;
            if not (bits_eq g (Array.sub grads (l * ni) ni)) then
              Alcotest.failf "%s batch %d lane %d: batched gradient diverged" kset
                batch l
          done)
        [ 1; 2; 7; 32; 128 ])

let test_mlp_workspace_bitwise () =
  (* One workspace reused across calls at widths up to its capacity, on
     both kernel sets: no sweep may see a previous one's leftovers. *)
  let rng = Rng.create 7 in
  let model = batch_test_model rng in
  let ni = 11 in
  on_both_kernel_sets (fun kset ->
      let bws = Mlp.batch_workspace model ~batch:8 in
      List.iter
        (fun batch ->
          let xs = Array.init (batch * ni) (fun _ -> 3.0 *. Rng.gaussian rng) in
          let scores = Array.make batch nan in
          let grads = Array.make (batch * ni) nan in
          let fwd = Array.make batch nan in
          Mlp.forward_batch_into model bws ~batch xs ~scores:fwd;
          Mlp.input_gradient_batch_into model bws ~batch xs ~grads ~scores;
          for l = 0 to batch - 1 do
            let s, g = Mlp.input_gradient model (Array.sub xs (l * ni) ni) in
            let same x = Int64.equal (bits s) (bits x) in
            if not (same fwd.(l) && same scores.(l)) then
              Alcotest.failf "%s width %d lane %d: score diverged" kset batch l;
            if not (bits_eq g (Array.sub grads (l * ni) ni)) then
              Alcotest.failf "%s width %d lane %d: gradient diverged" kset batch l
          done)
        [ 8; 3; 1; 8; 5 ])

(* A copy of [model] with its flat parameter array edited in place by [f]. *)
let map_params model f =
  match Mlp.to_json model with
  | Json.Obj fields ->
    let fields =
      List.map
        (fun (k, v) ->
          if k <> "params" then (k, v)
          else begin
            let p = Option.get (Option.bind (Json.as_string v) Store.Bits.to_floats) in
            f p;
            (k, Json.Str (Store.Bits.of_floats p))
          end)
        fields
    in
    Option.get (Mlp.of_json (Json.Obj fields))
  | _ -> assert false

(* A copy of [model] whose hidden neuron [o] of [layer] is dead (zero
   weights, bias -1): its ReLU is off on every lane, so the whole output's
   deltas are masked and its weight row never accumulates anything. *)
let with_dead_neuron model ~layer ~o =
  let sizes = [| 11; 13; 9; 6; 1 |] in
  map_params model (fun p ->
      let off = ref 0 in
      for l = 0 to layer - 1 do
        off := !off + (sizes.(l) * sizes.(l + 1)) + sizes.(l + 1)
      done;
      let n_in = sizes.(layer) and n_out = sizes.(layer + 1) in
      Array.fill p (!off + (o * n_in)) n_in 0.0;
      p.(!off + (n_in * n_out) + o) <- -1.0)

let test_mlp_param_gradient_batch_bitwise () =
  let rng = Rng.create 78 in
  let ni = 11 in
  let plain = batch_test_model rng in
  (* Zero means on even features let a [-0.0] input reach the input plane
     as [-0.0]; two dead neurons mask whole outputs on every lane. *)
  let edgy =
    let m = with_dead_neuron (with_dead_neuron plain ~layer:0 ~o:4) ~layer:1 ~o:2 in
    Mlp.set_normalizer m
      ~mean:(Array.init ni (fun i -> if i mod 2 = 0 then 0.0 else Rng.gaussian rng))
      ~std:(Array.init ni (fun _ -> 0.5 +. Float.abs (Rng.gaussian rng)));
    m
  in
  let np = Mlp.num_params plain in
  let wide = 300 in
  let check kset what model bws batch examples =
    let g_ref = Array.make np 0.0 in
    let loss_ref = Mlp.param_gradient model examples g_ref in
    let xs = Array.make (batch * ni) 0.0 in
    let targets = Array.make batch 0.0 in
    Array.iteri
      (fun l (x, t) ->
        Array.blit x 0 xs (l * ni) ni;
        targets.(l) <- t)
      examples;
    (* Stale values from an earlier call must not leak into the result. *)
    let g = Array.make np nan in
    let loss = Mlp.param_gradient_batch_into model bws ~batch ~xs ~targets g in
    if not (Int64.equal (bits loss_ref) (bits loss)) then
      Alcotest.failf "%s %s batch %d: loss diverged (%h vs %h)" kset what batch loss_ref
        loss;
    if not (bits_eq g_ref g) then
      Alcotest.failf "%s %s batch %d: parameter gradient diverged" kset what batch
  in
  on_both_kernel_sets (fun kset ->
      let plain_wide = Mlp.batch_workspace plain ~batch:wide in
      let edgy_wide = Mlp.batch_workspace edgy ~batch:wide in
      List.iter
        (fun batch ->
          let examples =
            Array.init batch (fun _ ->
                (Array.init ni (fun _ -> Rng.gaussian rng), Rng.gaussian rng))
          in
          check kset "plain" plain (Mlp.batch_workspace plain ~batch) batch examples;
          check kset "plain/wide workspace" plain plain_wide batch examples;
          (* Signed zeros in the inputs, and lane 0's target equal to its
             prediction, so its top delta is exactly zero. *)
          let examples =
            Array.mapi
              (fun l (x, t) ->
                let x = Array.mapi (fun i v -> if (i + l) mod 3 = 0 then -0.0 else v) x in
                (x, if l = 0 then Mlp.forward edgy x else t))
              examples
          in
          check kset "edge-case" edgy (Mlp.batch_workspace edgy ~batch) batch examples;
          check kset "edge-case/wide workspace" edgy edgy_wide batch examples)
        [ 1; 3; 4; 5; 7; 8; 9; 16; 33; 256 ])

(* The trained model's bits must not depend on which kernel set ran the
   minibatch sweeps: odd hidden widths hit the blocked kernels' remainder
   paths, and 150 samples in batches of 16 leave a partial last minibatch
   every epoch. *)
let test_pretrain_kernel_set_invariant () =
  let sample rng k =
    let features = Array.init 7 (fun _ -> Rng.gaussian rng) in
    let target = (features.(0) *. 0.7) -. Float.abs features.(3) +. (0.1 *. Rng.gaussian rng) in
    { Dataset.features; target; task_key = Printf.sprintf "task%d" (k mod 3) }
  in
  let data = Rng.create 81 in
  let ds =
    { Dataset.train = Array.init 150 (sample data); valid = Array.init 40 (sample data) }
  in
  let saved = Mlp.using_vector_kernels () in
  let run vec =
    Mlp.set_vector_kernels vec;
    let model, metrics =
      Train.pretrain (Rng.create 82) ~hidden:[ 13; 9; 7 ] ~epochs:3 ~batch_size:16 ds
    in
    (Json.to_string (Mlp.to_json model), metrics)
  in
  let (json_c, m_c), (json_ocaml, m_ocaml) =
    Fun.protect ~finally:(fun () -> Mlp.set_vector_kernels saved) (fun () ->
        let c = run true in
        (c, run false))
  in
  Alcotest.(check string) "model bytes" json_ocaml json_c;
  let fbits name a b =
    if not (Int64.equal (bits a) (bits b)) then
      Alcotest.failf "metrics %s diverged (%h vs %h)" name a b
  in
  fbits "mse" m_ocaml.Train.mse m_c.Train.mse;
  fbits "spearman" m_ocaml.Train.spearman m_c.Train.spearman;
  fbits "per_task_spearman" m_ocaml.Train.per_task_spearman m_c.Train.per_task_spearman;
  Alcotest.(check int) "n_samples" m_ocaml.Train.n_samples m_c.Train.n_samples

(* --- kernel sets at every block and edge tile ------------------------------

   The C kernels hold tiles of 4 outputs x 16 lanes (forward), 4 inputs x
   16 lanes (input deltas) and 4 outputs x 16 inputs (weight gradient) in
   registers, with 8-lane, single-lane, 1-3 output/input and partial
   16-input edge tiles. These cases compare the two kernel sets bit for bit
   on batches and widths that reach every one of them. *)

(* The NaN x86 arithmetic produces (inf - inf, 0 * inf). IEEE leaves the
   payload of an operation on two NaNs to the implementation, and C
   compilers commute additions and products freely, so injected NaNs use
   this one encoding: every NaN in the sweep then has the same bits. *)
let default_nan = Int64.float_of_bits 0xFFF8_0000_0000_0000L

(* Each sweep's outputs under one kernel set: forward scores, input
   gradient (scores and gradients), parameter gradient (loss and
   gradient). *)
let sweep_bits ~vector model xs targets batch =
  let saved = Mlp.using_vector_kernels () in
  Fun.protect ~finally:(fun () -> Mlp.set_vector_kernels saved) @@ fun () ->
  Mlp.set_vector_kernels vector;
  let ni = Mlp.n_inputs model in
  let bws = Mlp.batch_workspace model ~batch in
  let fwd = Array.make batch nan in
  Mlp.forward_batch_into model bws ~batch xs ~scores:fwd;
  let scores = Array.make batch nan and grads = Array.make (batch * ni) nan in
  Mlp.input_gradient_batch_into model bws ~batch xs ~grads ~scores;
  let g = Array.make (Mlp.num_params model) nan in
  let loss = Mlp.param_gradient_batch_into model bws ~batch ~xs ~targets g in
  Array.concat [ fwd; scores; grads; [| loss |]; g ]

let test_kernel_sets_every_tile () =
  let rng = Rng.create 91 in
  let ni = 82 in
  let base = Mlp.create rng ~hidden:[ 37; 192; 5 ] ~n_inputs:ni () in
  (* Zero means on every third feature pass -0.0 inputs through. *)
  Mlp.set_normalizer base
    ~mean:(Array.init ni (fun i -> if i mod 3 = 0 then 0.0 else Rng.gaussian rng))
    ~std:(Array.init ni (fun _ -> 0.5 +. Float.abs (Rng.gaussian rng)));
  let sizes = [| ni; 37; 192; 5; 1 |] in
  let offs =
    let o = Array.make 4 0 in
    for l = 1 to 3 do
      o.(l) <- o.(l - 1) + (sizes.(l - 1) * sizes.(l)) + sizes.(l)
    done;
    o
  in
  let dead =
    (* Neurons 3 of layer 0, 0 and 191 of layer 1 and 4 of layer 2 are off
       on every lane: zero weights, bias -1. *)
    map_params base (fun p ->
        List.iter
          (fun (l, o) ->
            let n_in = sizes.(l) and n_out = sizes.(l + 1) in
            Array.fill p (offs.(l) + (o * n_in)) n_in 0.0;
            p.(offs.(l) + (n_in * n_out) + o) <- -1.0)
          [ (0, 3); (1, 0); (1, 191); (2, 4) ])
  in
  let with_specials model specials =
    (* Four weights or biases of every layer set to the given values. *)
    map_params model (fun p ->
        Array.iteri
          (fun l off ->
            let n = (sizes.(l) * sizes.(l + 1)) + sizes.(l + 1) in
            Array.iteri (fun k v -> p.(off + (((k * 7919) + (l * 31)) mod n)) <- v) specials)
          offs)
  in
  (* Non-finite inputs poison single lanes; huge weights overflow some
     lanes' sums to +-inf (and inf - inf to NaN) while the rest stay
     finite; non-finite weights poison whole outputs, so only the
     zero-delta masking keeps cells finite. *)
  let overflow = with_specials dead [| 3e307; -3e307; 1e307; -0.0 |] in
  let nonfinite = with_specials dead [| infinity; neg_infinity; default_nan; -0.0 |] in
  (* An infinite weight into the dead neuron 3 of layer 0: the neuron is
     -inf, hence masked, on the lanes where input 1 is negative, and those
     lanes stay finite only if the masked zero deltas add nothing. *)
  let masked_inf = map_params dead (fun p -> p.(offs.(0) + (3 * ni) + 1) <- infinity) in
  List.iter
    (fun (what, model, special_inputs) ->
      List.iter
        (fun batch ->
          let xs =
            Array.init (batch * ni) (fun j ->
                if special_inputs && j mod 97 = 5 then
                  [| infinity; neg_infinity; default_nan; -0.0 |].((j / 97) mod 4)
                else if j mod 3 = 0 && j mod 2 = 0 then -0.0
                else 2.0 *. Rng.gaussian rng)
          in
          let targets = Array.init batch (fun _ -> Rng.gaussian rng) in
          (* Lane 0's target is its prediction: its top delta is exactly 0. *)
          targets.(0) <- Mlp.forward model (Array.sub xs 0 ni);
          let c = sweep_bits ~vector:true model xs targets batch in
          let o = sweep_bits ~vector:false model xs targets batch in
          Array.iteri
            (fun k v ->
              if not (Int64.equal (bits v) (bits o.(k))) then
                Alcotest.failf "%s batch %d: cell %d diverged (%h vs %h)" what batch k v o.(k))
            c)
        [ 1; 7; 15; 16; 17; 33; 255; 256 ])
    [ ("plain", base, false); ("dead neurons", dead, false);
      ("non-finite inputs", dead, true); ("overflowing weights", overflow, false);
      ("non-finite weights", nonfinite, false); ("infinite weight, masked lanes", masked_inf, false) ]

let test_kernel_sets_production_minibatches () =
  (* The pretraining shape: 82 -> 192 x 3 -> 1, Adam steps on full
     256-lane minibatches and the 33-lane tail an epoch of the cold
     dataset ends with. Model bytes must not depend on the kernel set. *)
  let data = Rng.create 92 in
  let examples =
    Array.init (3 * 256 + 33) (fun _ ->
        let x = Array.init 82 (fun _ -> Rng.gaussian data) in
        (x, x.(0) -. Float.abs x.(5) +. (0.1 *. Rng.gaussian data)))
  in
  let train vector =
    let saved = Mlp.using_vector_kernels () in
    Fun.protect ~finally:(fun () -> Mlp.set_vector_kernels saved) @@ fun () ->
    Mlp.set_vector_kernels vector;
    let model = Mlp.create (Rng.create 93) ~hidden:[ 192; 192; 192 ] ~n_inputs:82 () in
    let mean, std =
      Train.normalizer_of
        (Array.map (fun (features, target) -> { Dataset.features; target; task_key = "" }) examples)
    in
    Mlp.set_normalizer model ~mean ~std;
    let adam = Mlp.adam_for model in
    let ws = Mlp.batch_workspace model ~batch:256 in
    let losses = ref [] in
    let i = ref 0 in
    while !i < Array.length examples do
      let bsz = min 256 (Array.length examples - !i) in
      for j = 0 to bsz - 1 do
        let x, t = examples.(!i + j) in
        Mlp.stage_example ws j x t
      done;
      losses := Mlp.train_staged model adam ws ~batch:bsz :: !losses;
      i := !i + bsz
    done;
    (Json.to_string (Mlp.to_json model), List.map bits !losses)
  in
  let json_c, losses_c = train true in
  let json_ocaml, losses_ocaml = train false in
  Alcotest.(check (list int64)) "minibatch losses" losses_ocaml losses_c;
  Alcotest.(check string) "model bytes" json_ocaml json_c

let test_adam_step_batch_bitwise () =
  let n = 7 and batch = 5 in
  let rng = Rng.create 79 in
  let params = Array.init (batch * n) (fun _ -> Rng.gaussian rng) in
  let scalar_params = Array.init batch (fun l -> Array.sub params (l * n) n) in
  let batched = Adam.create_batch ~lr:0.02 ~batch n in
  let scalars = Array.init batch (fun _ -> Adam.create ~lr:0.02 n) in
  for step = 1 to 6 do
    (* A deterministic, lane- and step-dependent gradient. *)
    let grads =
      Array.init (batch * n) (fun j -> sin ((float_of_int (j + step) /. 3.0) +. 0.1))
    in
    Adam.step_batch batched ~batch ~params ~grads;
    Array.iteri
      (fun l p ->
        Adam.step scalars.(l) ~params:p ~grads:(Array.sub grads (l * n) n);
        if not (bits_eq p (Array.sub params (l * n) n)) then
          Alcotest.failf "step %d lane %d: batched Adam diverged" step l)
      scalar_params
  done

let test_mlp_workspace_mismatch () =
  let rng = Rng.create 8 in
  let m1 = Mlp.create rng ~hidden:[ 4 ] ~n_inputs:3 () in
  let m2 = Mlp.create rng ~hidden:[ 5 ] ~n_inputs:3 () in
  let bws = Mlp.batch_workspace m1 ~batch:2 in
  let xs = [| 0.1; 0.2; 0.3; 0.4; 0.5; 0.6 |] in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "forward: workspace shape checked" true
    (raises (fun () -> Mlp.forward_batch_into m2 bws ~batch:2 xs ~scores:(Array.make 2 0.0)));
  Alcotest.(check bool) "input gradient: workspace shape checked" true
    (raises (fun () ->
         Mlp.input_gradient_batch_into m2 bws ~batch:2 xs ~grads:(Array.make 6 0.0)
           ~scores:(Array.make 2 0.0)))

let tests =
  [ Alcotest.test_case "adam minimises a quadratic" `Quick test_adam_minimises_quadratic;
    Alcotest.test_case "adam arity check" `Quick test_adam_arity;
    Alcotest.test_case "adam reset" `Quick test_adam_reset;
    Alcotest.test_case "mlp shapes and parameter count" `Quick test_mlp_shapes;
    Alcotest.test_case "mlp input gradient vs finite differences" `Quick test_mlp_input_gradient_fd;
    Alcotest.test_case "mlp learns a linear function" `Quick test_mlp_learns_linear_function;
    Alcotest.test_case "mlp input normalisation" `Quick test_mlp_normalizer;
    Alcotest.test_case "mlp copy independence" `Quick test_mlp_copy_independent;
    Alcotest.test_case "mlp kernel sets agree at every tile" `Quick test_kernel_sets_every_tile;
    Alcotest.test_case "mlp kernel sets agree on production minibatches" `Quick
      test_kernel_sets_production_minibatches;
    Alcotest.test_case "mlp save/load roundtrip" `Quick test_mlp_save_load;
    Alcotest.test_case "mlp batched kernels bitwise-equal scalar (both kernel sets)" `Quick
      test_mlp_batch_bitwise;
    Alcotest.test_case "mlp batched parameter gradient bitwise" `Quick
      test_mlp_param_gradient_batch_bitwise;
    Alcotest.test_case "pretraining is kernel-set-invariant" `Quick
      test_pretrain_kernel_set_invariant;
    Alcotest.test_case "batched adam retraces independent optimisers" `Quick
      test_adam_step_batch_bitwise;
    Alcotest.test_case "mlp workspace kernels bitwise-equal legacy" `Quick
      test_mlp_workspace_bitwise;
    Alcotest.test_case "mlp workspace shape mismatch" `Quick test_mlp_workspace_mismatch;
    Alcotest.test_case "dataset generation" `Slow test_dataset_generation;
    Alcotest.test_case "dataset split fractions" `Quick test_dataset_split;
    Alcotest.test_case "dataset attempt/accept counters" `Slow test_dataset_counters;
    Alcotest.test_case "one telemetry event per pretraining epoch" `Quick
      test_pretrain_epoch_events;
    Alcotest.test_case "model cache: nested dir, unwritable dir warns" `Quick
      test_cache_model_nested_and_unwritable;
    Alcotest.test_case "task collection deduplicates" `Slow test_collect_tasks_dedup;
    Alcotest.test_case "pretraining ranks schedules" `Slow test_pretrain_ranks_schedules;
    Alcotest.test_case "evaluate on empty set" `Quick test_evaluate_empty ]
