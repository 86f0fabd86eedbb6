type sample = { features : float array; target : float; task_key : string }
type t = { train : sample array; valid : sample array }

let collect_tasks ?(max_tasks = 500) () =
  let seen = Hashtbl.create 128 in
  let out = ref [] in
  let add_graph g =
    List.iter
      (fun (task : Partition.task) ->
        let key = Compute.workload_key task.subgraph in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          out := task.subgraph :: !out
        end)
      (Partition.partition g)
  in
  List.iter
    (fun net ->
      add_graph (Workload.graph ~batch:1 net);
      add_graph (Workload.graph ~batch:16 net))
    Workload.all_networks;
  let tasks = List.rev !out in
  List.filteri (fun i _ -> i < max_tasks) tasks

(* Rejection sampling; [tries] counts the points drawn. *)
let sample_counted rng pack attempts tries =
  let bounds = Pack.bounds_log pack in
  let rec go n =
    if n = 0 then None
    else begin
      let y = Array.map (fun (lo, hi) -> Rng.range rng lo hi) bounds in
      incr tries;
      match Pack.round_to_valid pack y with Some r -> Some r | None -> go (n - 1)
    end
  in
  go attempts

let sample_valid_point rng pack attempts = sample_counted rng pack attempts (ref 0)

let c_attempts = Telemetry.counter Telemetry.global "cost_model.dataset_attempts"
let c_accepted = Telemetry.counter Telemetry.global "cost_model.dataset_accepted"

let generate rng device ?(schedules_per_task = 256) ?runtime ?cache_dir tasks =
  let out = ref [] in
  let attempts = ref 0 and accepted = ref 0 in
  List.iter
    (fun sg ->
      let key = Compute.workload_key sg in
      let packs =
        Pack.prepare_all ?runtime ?cache_dir
          (List.map (fun s -> (sg, s)) (Sketch.generate sg))
      in
      let per_sketch = max 1 (schedules_per_task / List.length packs) in
      List.iter
        (fun pack ->
          let prog = Pack.program pack in
          let seen = Hashtbl.create per_sketch in
          for _ = 1 to per_sketch do
            match sample_counted rng pack 50 attempts with
            | None -> ()
            | Some y ->
              incr accepted;
              let skey = Pack.schedule_key pack y in
              if not (Hashtbl.mem seen skey) then begin
                Hashtbl.replace seen skey ();
                let env = Pack.env_of pack y in
                let lat = Gpu_model.measure_ms ~noise:0.01 rng device prog env in
                if Float.is_finite lat && lat > 0.0 then begin
                  let features = Pack.features_at pack y in
                  out := { features; target = -.log lat; task_key = key } :: !out
                end
              end
          done)
        packs)
    tasks;
  Telemetry.Counter.incr ~by:!attempts c_attempts;
  Telemetry.Counter.incr ~by:!accepted c_accepted;
  Array.of_list !out

let split rng ?(train_frac = 0.9) samples =
  let samples = Array.copy samples in
  Rng.shuffle rng samples;
  let n_train = int_of_float (train_frac *. float_of_int (Array.length samples)) in
  { train = Array.sub samples 0 n_train;
    valid = Array.sub samples n_train (Array.length samples - n_train) }
