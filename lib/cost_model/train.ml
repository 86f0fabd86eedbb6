type metrics = {
  mse : float;
  spearman : float;
  per_task_spearman : float;
  n_samples : int;
}

let normalizer_of samples =
  if Array.length samples = 0 then invalid_arg "Train.normalizer_of: empty dataset";
  let k = Array.length samples.(0).Dataset.features in
  let mean = Array.make k 0.0 and std = Array.make k 0.0 in
  let n = float_of_int (Array.length samples) in
  Array.iter
    (fun (s : Dataset.sample) -> Array.iteri (fun i v -> mean.(i) <- mean.(i) +. v) s.features)
    samples;
  Array.iteri (fun i v -> mean.(i) <- v /. n) mean;
  Array.iter
    (fun (s : Dataset.sample) ->
      Array.iteri (fun i v -> std.(i) <- std.(i) +. ((v -. mean.(i)) ** 2.0)) s.features)
    samples;
  Array.iteri (fun i v -> std.(i) <- sqrt (v /. n)) std;
  (mean, std)

let evaluate model samples =
  let n = Array.length samples in
  if n = 0 then { mse = 0.0; spearman = 0.0; per_task_spearman = 0.0; n_samples = 0 }
  else begin
    (* Scoring runs through the batched SoA forward in fixed-size chunks;
       each lane is bitwise the scalar [Mlp.forward] on that sample. *)
    let preds = Array.make n 0.0 in
    let ni = Mlp.n_inputs model in
    let chunk = min n 256 in
    let bws = Mlp.batch_workspace model ~batch:chunk in
    let xs = Array.make (chunk * ni) 0.0 in
    let scores = Array.make chunk 0.0 in
    let i = ref 0 in
    while !i < n do
      let len = min chunk (n - !i) in
      for l = 0 to len - 1 do
        Array.blit samples.(!i + l).Dataset.features 0 xs (l * ni) ni
      done;
      Mlp.forward_batch_into model bws ~batch:len xs ~scores;
      Array.blit scores 0 preds !i len;
      i := !i + len
    done;
    let targets = Array.map (fun (s : Dataset.sample) -> s.Dataset.target) samples in
    let mse =
      Array.fold_left ( +. ) 0.0
        (Array.mapi (fun i p -> (p -. targets.(i)) ** 2.0) preds)
      /. float_of_int n
    in
    let spearman = Stats.spearman preds targets in
    (* Per-task ranking quality: group by task key. *)
    let groups = Hashtbl.create 32 in
    Array.iteri
      (fun i (s : Dataset.sample) ->
        let l = Option.value ~default:[] (Hashtbl.find_opt groups s.task_key) in
        Hashtbl.replace groups s.task_key ((preds.(i), targets.(i)) :: l))
      samples;
    let rs =
      Hashtbl.fold
        (fun _ pairs acc ->
          if List.length pairs >= 8 then begin
            let p = Array.of_list (List.map fst pairs) in
            let t = Array.of_list (List.map snd pairs) in
            Stats.spearman p t :: acc
          end
          else acc)
        groups []
    in
    { mse; spearman; per_task_spearman = Stats.mean rs; n_samples = n }
  end

let pretrain rng ?(hidden = [ 192; 192; 192 ]) ?(epochs = 8) ?(batch_size = 256) ?(lr = 1e-3)
    (ds : Dataset.t) =
  if Array.length ds.train = 0 then invalid_arg "Train.pretrain: empty training set";
  Telemetry.with_span Telemetry.global "cost_model.pretrain"
    ~attrs:
      [ ("train_samples", Telemetry.Int (Array.length ds.train));
        ("epochs", Telemetry.Int epochs) ]
  @@ fun () ->
  let k = Array.length ds.train.(0).Dataset.features in
  let model = Mlp.create rng ~hidden ~n_inputs:k () in
  let mean, std = normalizer_of ds.train in
  Mlp.set_normalizer model ~mean ~std;
  let adam = Mlp.adam_for ~lr model in
  let n = Array.length ds.train in
  let order = Array.init n (fun i -> i) in
  (* One batch workspace reused across every minibatch of every epoch:
     examples are staged straight into its rows and the whole
     pretraining loss/gradient path runs on the SoA kernels with no
     per-step allocation. *)
  let ws = Mlp.batch_workspace model ~batch:(min batch_size n) in
  for epoch = 1 to epochs do
    Rng.shuffle rng order;
    let i = ref 0 in
    let loss_sum = ref 0.0 and steps = ref 0 in
    while !i < n do
      let bsz = min batch_size (n - !i) in
      for j = 0 to bsz - 1 do
        let s = ds.train.(order.(!i + j)) in
        Mlp.stage_example ws j s.Dataset.features s.Dataset.target
      done;
      loss_sum := !loss_sum +. Mlp.train_staged model adam ws ~batch:bsz;
      incr steps;
      i := !i + bsz
    done;
    Telemetry.event Telemetry.global "cost_model.epoch"
      ~attrs:
        [ ("epoch", Telemetry.Int epoch);
          ("minibatches", Telemetry.Int !steps);
          ("mean_loss", Telemetry.Float (!loss_sum /. float_of_int !steps)) ]
  done;
  let metrics = evaluate model ds.valid in
  Telemetry.Gauge.set (Telemetry.gauge Telemetry.global "cost_model.valid_mse") metrics.mse;
  Telemetry.Gauge.set
    (Telemetry.gauge Telemetry.global "cost_model.valid_spearman")
    metrics.spearman;
  (model, metrics)

let model_path ~cache_dir (device : Device.t) =
  let safe_name =
    String.map (fun c -> if c = ' ' || c = '/' then '_' else c) device.device_name
  in
  Filename.concat cache_dir (Printf.sprintf "costmodel_%s.json" safe_name)

let cache_model ~cache_dir (device : Device.t) model =
  let path = model_path ~cache_dir device in
  match Result.bind (Store.mkdir_p cache_dir) (fun () -> Mlp.save_file model path) with
  | Ok () -> ()
  | Error e ->
    Logs.warn (fun m ->
        m "cost model for %s not cached at %s (%s); the next run trains it again"
          device.device_name path (Store.error_message e))

let pretrained_for_device ?(cache_dir = "_artifacts") ?(seed = 1234) (device : Device.t) =
  let path = model_path ~cache_dir device in
  match Mlp.load_file path with
  | Ok m ->
    Telemetry.event Telemetry.global "cost_model.cache_hit"
      ~attrs:[ ("device", Telemetry.Str device.device_name) ];
    m
  | Error _ ->
    Telemetry.with_span Telemetry.global "cost_model.train_from_scratch"
      ~attrs:[ ("device", Telemetry.Str device.device_name) ]
    @@ fun () ->
    let rng = Rng.create seed in
    let tasks = Dataset.collect_tasks () in
    let samples = Dataset.generate rng device tasks in
    let ds = Dataset.split rng samples in
    let model, metrics = pretrain rng ds in
    Logs.info (fun m ->
        m "cost model for %s: mse %.4f spearman %.3f (per-task %.3f) on %d samples"
          device.device_name metrics.mse metrics.spearman metrics.per_task_spearman
          metrics.n_samples);
    cache_model ~cache_dir device model;
    model
