(* End-to-end tuning benchmark.

   Drives the public entry points a user of the library hits —
   Felix.pretrained_cost_model, Workload.graph, Tuner.run,
   Export.save_result, Store.open_dir and the Serve daemon with its
   client — and times each call from outside. Inside a Tuner.run call the
   benchmark splits time by the timestamps of the tuner's own events
   (Tuning_config.with_on_event). A traced run (--trace 1) also attaches a
   sink to Telemetry.global and merges the program's spans with the
   benchmark's into a self-time tree.

   Usage (from the repository root, normally through perfbench/run.sh):
     felix_bench --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. Everything the benchmark
   writes goes under .bench_work/ in the current directory. *)

let device = Device.rtx_a5000
let work_root = ".bench_work"

(* ---- workload definitions --------------------------------------------- *)

type workload = Cold_dcgan | Warm_ansor_store | Served_jobs

let workloads =
  [ ("cold_dcgan", Cold_dcgan);
    ("warm_resnet50_ansor_store", Warm_ansor_store);
    ("served_jobs", Served_jobs) ]

(* Search budgets. The warm resnet-50 run uses the default search
   configuration with a round cap that keeps one request about two seconds
   long, so a run repeats each of its requests; the served jobs are short
   quick-config runs. *)
let resnet_rounds = 6
let served_rounds = 8
let chaos_rate = 0.1

(* A run tunes under [n] seeds derived from the benchmark seed (three, or
   six for the short served specs) and reports quality figures as their
   geometric mean: one seed's tuned latency varies by several percent from
   seed to seed. *)
let n_sub = 3
let sub_seeds ?(n = n_sub) seed = List.init n (fun k -> (n * seed) + k)

(* The completed run the Ansor store is warm-started from. *)
let golden_seed = 1_000_003

let ansor_rc seed =
  Tuning_config.(
    builder |> with_rounds resnet_rounds |> with_seed seed
    |> with_measurer
         { Measure.default with chaos = Some (Measure.chaos_with_rate ~seed chaos_rate) })

let served_spec seed network =
  { Serve.Job.network;
    inference_batch = 1;
    device;
    engine = Tuning_config.Felix;
    run =
      Tuning_config.(
        builder |> with_search quick |> with_rounds served_rounds |> with_seed seed);
    deadline_s = None;
    store_dir = None }

(* ---- files ------------------------------------------------------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let read_file p = In_channel.with_open_bin p In_channel.input_all
let write_file p s = Out_channel.with_open_bin p (fun oc -> output_string oc s)

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    mkdir_p dst;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  end
  else write_file dst (read_file src)

let file_size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0

(* Shared inputs (the cached cost model, the completed Ansor store) are
   prepared once per build of the benchmark, keyed by the executable. *)
let shared_dir () =
  Filename.concat work_root
    ("shared-" ^ String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12)

let model_dir shared = Filename.concat shared "model"
let golden_dir shared = Filename.concat shared "ansor_store"

(* ---- clocks and event capture ----------------------------------------- *)

(* All timestamps of a run come from one clock: wall time when untraced,
   the registry's clock when traced, so benchmark spans and program spans
   share a time base. *)
let clock = ref Unix.gettimeofday
let now () = !clock ()

let timed f =
  let t0 = now () in
  let x = f () in
  (x, t0, now ())

let ok_or what = function
  | Ok x -> x
  | Error e -> failwith (Printf.sprintf "%s: %s" what e)

let open_store d =
  mkdir_p (Filename.dirname d);
  ok_or "Store.open_dir" (Result.map_error Store.error_message (Store.open_dir d))

(* Failed correctness gates, reported at the end of the run. *)
let failures = ref []
let gate ok msg = if not ok then failures := msg :: !failures

(* ---- one in-process tuning request ------------------------------------ *)

type unit_run = {
  key : string;  (* requests with equal keys are identical requests *)
  rc : Tuning_config.run;
  setup : (float * float) option;  (* model call, graph build: None on a rep *)
  trained : bool;  (* the model call trained the model *)
  wall : float;
  tune : float;
  result : Tuner.result;
  json : string;  (* Export.result_to_json *)
  sim_clock : float;
  requests : int;  (* measurement requests *)
  failed_requests : int option;  (* requests whose final outcome is not Ok, if counted *)
  compiles : int;  (* packs compiled during Tuner.run *)
  measurements : int;
  spans : Layers.span list;  (* benchmark spans, event-bounded ones included *)
  events : (float * Tuner.event) list;
  ckpt_sizes : int list;
  journal_bytes : int;
  t0 : float;
  t1 : float;
}

let counter reg name = Telemetry.Counter.value (Telemetry.counter reg name)

(* Tuning requests issued (in process and served) and those that did not
   complete. *)
let attempted = ref 0
let failed = ref 0

let lru_misses () = Option.value ~default:0 (List.assoc_opt "misses" (Pack.cache_stats ()))

let disk_hits () =
  Option.value ~default:0 (List.assoc_opt "disk_hits" (Pack.disk_counters ()))

(* Spans bounded by the tuner's events: the prologue up to the first
   round, each round with its search+measure, model-update and commit
   parts, and the epilogue after the budget is exhausted. *)
let event_spans ~t_enter ~t_return evs =
  let out = ref [] in
  let add name start stop =
    if stop >= start then out := { Layers.name; start; stop } :: !out
  in
  let first_round =
    List.find_map
      (fun (t, e) ->
        match e with
        | Tuner.Round_started _ | Tuner.Budget_exhausted _ -> Some t
        | _ -> None)
      evs
  in
  add "tuner.prologue" t_enter (Option.value first_round ~default:t_return);
  let rs = ref 0.0 and cm = ref None and mu = ref None in
  List.iter
    (fun (t, e) ->
      match e with
      | Tuner.Round_started _ ->
        rs := t;
        cm := None;
        mu := None
      | Tuner.Candidates_measured _ -> cm := Some t
      | Tuner.Model_updated _ -> mu := Some t
      | Tuner.Round_finished _ ->
        add "round" !rs t;
        let c = Option.value !cm ~default:!rs in
        add "round.search_measure" !rs c;
        Option.iter (fun m -> add "round.update" c m) !mu;
        add "round.commit" (Option.value !mu ~default:c) t
      | Tuner.Budget_exhausted _ -> add "tuner.epilogue" t t_return
      | _ -> ())
    evs;
  !out

let store_failures = Option.map (fun s -> (Store.stats s).Store.failures)

(* Runs Tuner.run (with an optional store and pack cache) and exports the
   result. [setup] is called first and timed as set-up when given.

   An untraced request runs at the library's default, with telemetry off.
   Its failed measurement requests are then read from its store, whose
   journal holds one failure record per failed request; a request without
   a store counts them only when [count] gives it a registry of its own,
   which costs time, so it is for untimed requests. A traced request
   records into Telemetry.global. *)
let run_request ?setup ?store_dir ?pack_dir ?(traced = false) ?(count = false) ~key ~dir
    ~graph_of ~model_of ~engine rc0 =
  mkdir_p dir;
  let reg =
    if traced then Some Telemetry.global
    else if count then Some (Telemetry.create ())
    else None
  in
  let evs = ref [] in
  let ckpt = ref [] in
  let on_event e =
    evs := (now (), e) :: !evs;
    match (e, store_dir) with
    | Tuner.Round_finished _, Some d when traced ->
      ckpt := file_size (Filename.concat d "checkpoint.json") :: !ckpt
    | _ -> ()
  in
  let t0 = now () in
  let setup_spans, setup, model, graph, trained =
    match setup with
    | None -> ([], None, model_of (), graph_of (), false)
    | Some load ->
      let (model, trained), a, b = timed load in
      let graph, _, c = timed graph_of in
      ( [ { Layers.name = "bench.setup"; start = a; stop = c };
          { Layers.name = "bench.model"; start = a; stop = b };
          { Layers.name = "bench.graph"; start = b; stop = c } ],
        Some (b -. a, c -. b),
        model,
        graph,
        trained )
  in
  let store, o0, o1 =
    timed (fun () ->
        Option.map open_store store_dir)
  in
  let rc = Tuning_config.with_on_event on_event rc0 in
  let rc = match reg with Some t -> Tuning_config.with_telemetry t rc | None -> rc in
  let rc = match store with Some s -> Tuning_config.with_store s rc | None -> rc in
  let rc = match pack_dir with Some d -> Tuning_config.with_pack_cache d rc | None -> rc in
  let misses0 = lru_misses () and disk0 = disk_hits () in
  let sim0 = counter Telemetry.global "sim.measurements" in
  let fail_count t = counter t "measure.requests" - counter t "measure.ok" in
  let req0 = Option.map (fun t -> counter t "measure.requests") reg in
  let fail0 = Option.map fail_count reg and store_fail0 = store_failures store in
  incr attempted;
  let r, t_enter, t_return = timed (fun () -> Tuner.run rc device model graph engine) in
  let compiles = lru_misses () - misses0 - (disk_hits () - disk0) in
  let measurements = if traced then counter Telemetry.global "sim.measurements" - sim0 else -1 in
  let result = ok_or "Tuner.run" (Result.map_error Tuner.error_message r) in
  (* The result's measurement count is the measurer's request count. *)
  (match (reg, req0) with
  | Some t, Some r0 ->
    let n = counter t "measure.requests" - r0 in
    gate (n = result.Tuner.total_measurements)
      (Printf.sprintf "request %s: result counts %d measurements, the measurer %d" key
         result.Tuner.total_measurements n)
  | _ -> ());
  let failed_requests =
    match (store_fail0, reg, fail0) with
    | Some f0, _, _ -> Option.map (fun f -> f - f0) (store_failures store)
    | None, Some t, Some f0 -> Some (fail_count t - f0)
    | _ -> None
  in
  let path = Filename.concat dir "result.json" in
  let (), e0, e1 =
    timed (fun () ->
        ok_or "Export.save_result"
          (Result.map_error Store.error_message (Export.save_result result path)))
  in
  let journal_bytes =
    match store with
    | Some s ->
      let b = (Store.stats s).Store.journal_bytes in
      Store.close s;
      b
    | None -> 0
  in
  let t1 = now () in
  Printf.eprintf "[bench] request %s: wall %.3f s, tune %.3f s\n%!" key (t1 -. t0)
    (t_return -. t_enter);
  let events = List.rev !evs in
  let sim_clock =
    List.fold_left
      (fun acc (_, e) ->
        match e with Tuner.Tuning_finished { sim_clock_s; _ } -> sim_clock_s | _ -> acc)
      0.0 events
  in
  { key;
    rc = rc0;
    setup;
    trained;
    wall = t1 -. t0;
    tune = t_return -. t_enter;
    result;
    json = Export.result_to_json result;
    sim_clock;
    requests = result.Tuner.total_measurements;
    failed_requests;
    compiles;
    measurements;
    spans =
      [ { Layers.name = "bench.iteration"; start = t0; stop = t1 };
        { Layers.name = "bench.tune"; start = t_enter; stop = t_return };
        { Layers.name = "bench.export"; start = e0; stop = e1 } ]
      @ (if store_dir <> None then [ { Layers.name = "bench.store_open"; start = o0; stop = o1 } ]
         else [])
      @ setup_spans
      @ event_spans ~t_enter ~t_return events;
    events;
    ckpt_sizes = List.rev !ckpt;
    journal_bytes;
    t0;
    t1 }

(* ---- correctness gates ------------------------------------------------- *)

(* The range a measured latency may take around the noiseless one: the
   simulator's own noise at its largest and, under fault injection, the
   factor of a flaky measurement. The noise is a Box-Muller draw whose
   first uniform is clamped at 1e-12, so it never exceeds
   sqrt(-2 ln 1e-12) ~ 7.43 standard deviations. A narrower band fails by
   chance: a task's best latency is the lowest of many noisy draws, so it
   sits in the low tail (beyond 3 standard deviations on some task of most
   runs). *)
let noise_range (rc : Tuning_config.run) =
  let n = sqrt (-2.0 *. log 1e-12) *. Gpu_model.default_noise in
  let f =
    match rc.Tuning_config.measure.Measure.chaos with
    | Some c -> c.Measure.flaky_magnitude
    | None -> 0.0
  in
  ((1.0 -. n) *. (1.0 -. f), (1.0 +. n) *. (1.0 +. f))

(* Rebuild every task's best schedule from its sketch name and variable
   assignment, check it is legal, and compare the noiseless latency with
   the measured one, per task and for the network. *)
let check_schedules ~what rc (r : Tuner.result) =
  let lo, hi = noise_range rc in
  let within measured rebuilt = measured /. rebuilt >= lo && measured /. rebuilt <= hi in
  let measured = ref 0.0 and rebuilt = ref 0.0 in
  List.iter
    (fun (tr : Tuner.task_result) ->
      let sg = tr.Tuner.task.Partition.subgraph in
      let best = tr.Tuner.best in
      let fail fmt =
        Printf.ksprintf
          (fun m -> gate false (Printf.sprintf "%s: task %s: %s" what sg.Compute.sg_name m))
          fmt
      in
      match
        List.find_opt (fun s -> s.Schedule.sched_name = best.Tuner.sketch) (Sketch.generate sg)
      with
      | None -> fail "unknown sketch %s" best.Tuner.sketch
      | Some sched ->
        let pack = Pack.prepare_cached sg sched in
        let env =
          Eval.env_of_list
            (List.map (fun (k, v) -> (k, float_of_int v)) best.Tuner.assignment)
        in
        let lat = Gpu_model.program_latency_ms device (Pack.program pack) env in
        if not (List.for_all (Eval.eval_cond env) sched.Schedule.constraints) then
          fail "best schedule violates its constraints";
        if not (Float.is_finite lat) then fail "best schedule is invalid on the simulator"
        else if not (within best.Tuner.latency_ms lat) then
          fail "rebuilt latency %.6f ms vs measured %.6f ms" lat best.Tuner.latency_ms;
        let w = float_of_int tr.Tuner.task.Partition.weight in
        measured := !measured +. (w *. best.Tuner.latency_ms);
        rebuilt := !rebuilt +. (w *. lat))
    r.Tuner.tasks;
  (* final_latency_ms adds the graph executor's dispatch overhead to the
     weighted task latencies; the rebuilt network latency adds the same. *)
  let overhead = r.Tuner.final_latency_ms -. !measured in
  gate (overhead >= 0.0) (Printf.sprintf "%s: final latency below the sum of its tasks" what);
  let net = !rebuilt +. overhead in
  gate (within r.Tuner.final_latency_ms net)
    (Printf.sprintf "%s: rebuilt network latency %.6f ms vs final_latency_ms %.6f ms" what net
       r.Tuner.final_latency_ms)

(* Identical requests must give byte-identical results and do the same
   measurements, and consecutive requests of one network must compile the
   same packs: a cache carried over from one request to the next would
   show up as fewer compiles. *)
let check_repeats ~what units =
  List.iter
    (fun u ->
      let same = List.filter (fun v -> v.key = u.key) units in
      let v = List.hd same in
      gate (u.json = v.json) (Printf.sprintf "%s: request %s: results differ" what u.key);
      gate (u.requests = v.requests)
        (Printf.sprintf "%s: request %s: %d vs %d measurement requests" what u.key u.requests
           v.requests);
      if u.measurements >= 0 && v.measurements >= 0 then
        gate (u.measurements = v.measurements)
          (Printf.sprintf "%s: request %s: %d vs %d simulations" what u.key u.measurements
             v.measurements))
    units;
  ignore
    (List.fold_left
       (fun prev u ->
         Option.iter
           (fun p ->
             gate (p.compiles = u.compiles)
               (Printf.sprintf "%s: consecutive requests compiled %d vs %d packs" what
                  p.compiles u.compiles))
           prev;
         Some u)
       None units)

(* The first request of each key, in order. *)
let distinct units =
  List.fold_left
    (fun acc u -> if List.exists (fun v -> v.key = u.key) acc then acc else acc @ [ u ])
    [] units

(* ---- metrics ----------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; n : int; note : string }

let m ?(n = 1) ?(note = "") name unit_ value = { name; value; unit_; n; note }

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

let retained_mb () =
  Gc.full_major ();
  mb (Gc.stat ()).Gc.live_words

let peak_mb () = mb (Gc.quick_stat ()).Gc.top_heap_words

(* Held-out model-quality probe: a fresh sample of schedules of every
   sixth dataset task, drawn from the benchmark seed (the pretraining set
   is drawn from the model's own fixed seed). *)
let probe_model ~shared ~seed model =
  let tasks = List.filteri (fun i _ -> i mod 6 = 0) (Dataset.collect_tasks ()) in
  let samples =
    Dataset.generate (Rng.create (1 + (seed * 7919))) device ~schedules_per_task:24
      ~cache_dir:(Filename.concat shared "probe_packs") tasks
  in
  Pack.clear_memory_cache ();
  Train.evaluate model samples

let sum = List.fold_left ( +. ) 0.0

(* Medians of samples a workload may not have (no commits on a store-less
   run, for instance) read 0. *)
let median0 = function [] -> 0.0 | xs -> Stats.median xs

let median_by f xs = Stats.median (List.map f xs)

(* A timing of repeated requests: each distinct request's median time,
   averaged over the distinct requests (seeds or job specs, which differ
   in the work they do). *)
let per_request ~key f xs =
  let keys = List.sort_uniq compare (List.map key xs) in
  let med k = median_by f (List.filter (fun x -> key x = k) xs) in
  sum (List.map med keys) /. float_of_int (List.length keys)

let unit_time f units = per_request ~key:(fun u -> u.key) f units

(* The tail of a latency sample: the highest whole percentile that still
   has at least ten samples beyond it. Fewer than twenty samples have no
   such percentile above the median; the median is reported then, as
   percentile 50, rather than an extreme that a single slow sample sets.
   Returns (value, percentile). *)
let tail xs =
  let n = List.length xs in
  if n < 20 then (median0 xs, 50)
  else
    let p = int_of_float (100.0 *. (1.0 -. (10.0 /. float_of_int n))) in
    (Stats.percentile (float_of_int p) xs, p)

let tail_metric ?(scale = 1.0) name unit_ xs =
  let v, p = tail xs in
  m ~n:(List.length xs) ~note:(Printf.sprintf "p%d" p) name unit_ (v *. scale)

(* ---- per-layer metrics from a traced set of requests ------------------- *)

type traced = {
  records : Telemetry.record list;
  bench_spans : Layers.span list;
  events : (float * Tuner.event) list;
  units : unit_run list;
  per : int;  (* requests the sums are divided by *)
  overhead : float;
  serve : metric list;
}

let span_records records =
  List.filter_map
    (fun (r : Telemetry.record) ->
      if r.Telemetry.r_kind = Telemetry.Span then
        Some
          { Layers.name = r.Telemetry.r_name;
            start = r.Telemetry.r_ts_s;
            stop = r.Telemetry.r_ts_s +. (r.Telemetry.r_dur_ms /. 1000.0) }
      else None)
    records

let layer_metrics tr =
  let per = float_of_int (max 1 tr.per) in
  let prog = span_records tr.records in
  let all = prog @ tr.bench_spans in
  let summary = Layers.summarize all in
  let durs name =
    List.filter_map (fun s -> if s.Layers.name = name then Some (Layers.dur s) else None) all
  in
  let total name = sum (durs name) in
  let self name =
    sum
      (List.filter_map
         (fun (n, s) -> if n = name then Some s else None)
         summary.Layers.self_by_name)
  in
  let c name = float_of_int (counter Telemetry.global name) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let pretrain_samples =
    List.fold_left
      (fun acc (r : Telemetry.record) ->
        if r.Telemetry.r_kind = Telemetry.Span && r.Telemetry.r_name = "cost_model.pretrain" then
          let a = r.Telemetry.r_attrs in
          acc
          +. float_of_int
               (Option.value ~default:0 (Telemetry.attr_int a "train_samples")
               * Option.value ~default:0 (Telemetry.attr_int a "epochs"))
        else acc)
      0.0 tr.records
  in
  let trained = List.exists (fun u -> u.trained) tr.units in
  let model_calls = List.filter_map (fun u -> Option.map fst u.setup) tr.units in
  let felix_s = total "felix.search_round" and ansor_s = total "ansor.search_round" in
  let search = durs "felix.search_round" @ durs "ansor.search_round" in
  let proposed, measured =
    List.fold_left
      (fun (p, q) (_, e) ->
        match e with
        | Tuner.Candidates_measured { proposed; measured; _ } -> (p + proposed, q + measured)
        | _ -> (p, q))
      (0, 0) tr.events
  in
  let ckpt = List.concat_map (fun u -> u.ckpt_sizes) tr.units in
  let ms x = 1000.0 *. x in
  let rounds = durs "tuner.round" in
  let n_rounds = List.length rounds in
  [ m "cost_model.bootstrap_s" "s" (if trained then median0 model_calls else 0.0);
    m "cost_model.load_ms" "ms" (if trained then 0.0 else ms (median0 model_calls))
      ~n:(List.length model_calls);
    m "cost_model.pretrain_s" "s" (total "cost_model.pretrain" /. per);
    m "cost_model.pretrain_samples_per_s" "1/s"
      (ratio pretrain_samples (total "cost_model.pretrain"));
    m "cost_model.dataset_s" "s" (self "cost_model.train_from_scratch" /. per);
    m "cost_model.update_s" "s" (total "round.update" /. per);
    m "features.prepare_s" "s" (total "pack.prepare" /. per);
    m "features.packs_compiled" "count" (float_of_int (List.length (durs "pack.compile")) /. per);
    m "features.evals" "count" (c "features.evals" /. per);
    m "features.pack_disk_hit_ratio" "ratio"
      (ratio (c "features.pack_cache_disk_hits")
         (c "features.pack_cache_disk_hits" +. c "features.pack_cache_disk_misses"));
    m "optim.search_s" "s" ((felix_s +. ansor_s) /. per);
    m "optim.search_round_p50_ms" "ms" (ms (median0 search)) ~n:(List.length search);
    tail_metric ~scale:1000.0 "optim.search_round_tail_ms" "ms" search;
    m "optim.gd_steps_per_s" "1/s" (ratio (c "felix.gd_steps") felix_s);
    m "optim.predictions_per_s" "1/s" (ratio (c "ansor.evaluated") ansor_s);
    m "optim.new_candidate_ratio" "ratio" (ratio (float_of_int measured) (float_of_int proposed));
    m "tuner.prepare_tasks_s" "s" (total "tuner.prepare_tasks" /. per);
    m "tuner.initial_round_s" "s" (total "tuner.initial_round" /. per);
    m "tuner.round_p50_ms" "ms" (ms (median0 rounds)) ~n:n_rounds;
    tail_metric ~scale:1000.0 "tuner.round_tail_ms" "ms" rounds;
    m "tuner.prologue_s" "s" (total "tuner.prologue" /. per);
    m "tuner.epilogue_s" "s" (total "tuner.epilogue" /. per);
    m "measure.s" "s" (self "round.search_measure" /. per);
    m "measure.requests" "count" (c "measure.requests" /. per);
    m "measure.attempts" "count" (c "measure.attempts" /. per);
    m "measure.ok_ratio" "ratio" (ratio (c "measure.ok") (c "measure.requests"));
    m "measure.retries" "count" (c "measure.retries" /. per);
    m "measure.cache_hits" "count" (c "measure.cache_hits" /. per);
    m "sim.measurements" "count" (c "sim.measurements" /. per);
    m "sim.cache_hit_ratio" "ratio"
      (ratio (c "sim.cache_hits") (c "sim.cache_hits" +. c "sim.cache_misses"));
    m "store.commit_s" "s" (total "round.commit" /. per);
    m "store.commit_p50_ms" "ms" (ms (median0 (durs "round.commit")))
      ~n:(List.length (durs "round.commit"));
    m "store.replay_s" "s" (self "tuner.prologue" /. per);
    m "store.checkpoint_bytes" "bytes" (float_of_int (List.fold_left max 0 ckpt));
    m "store.checkpoint_bytes_written" "bytes"
      (float_of_int (List.fold_left ( + ) 0 ckpt) /. per);
    m "store.journal_bytes" "bytes"
      (median0 (List.map (fun u -> float_of_int u.journal_bytes) tr.units));
    m "store.records" "count" (c "store.records" /. per);
    m "store.failures" "count" (c "store.failures" /. per);
    m "store.replays" "count" (c "store.replays" /. per) ]
  @ tr.serve
  @ [ m "telemetry.overhead_ratio" "ratio" tr.overhead;
      m "telemetry.coverage" "ratio" (Layers.coverage summary);
      m "telemetry.records" "count" (float_of_int (List.length tr.records) /. per) ],
  summary

(* ---- tracing ----------------------------------------------------------- *)

let trace_records = ref []
let trace_lock = Mutex.create ()

let start_tracing () =
  Telemetry.reset Telemetry.global;
  trace_records := [];
  Telemetry.add_sink Telemetry.global (fun r ->
      Mutex.lock trace_lock;
      trace_records := r :: !trace_records;
      Mutex.unlock trace_lock);
  Telemetry.enable Telemetry.global;
  clock := fun () -> Telemetry.now_s Telemetry.global

let stop_tracing () =
  Telemetry.disable Telemetry.global;
  clock := Unix.gettimeofday;
  Mutex.lock trace_lock;
  let r = List.rev !trace_records in
  Mutex.unlock trace_lock;
  r

(* ---- preparation of shared inputs -------------------------------------- *)

(* The cached model file a model directory holds, if any. *)
let model_file_in d =
  if Sys.file_exists d then
    Array.to_list (Sys.readdir d)
    |> List.find_opt (fun f ->
           String.starts_with ~prefix:"costmodel_" f && Filename.check_suffix f ".json")
    |> Option.map (Filename.concat d)
  else None

let model_file shared = model_file_in (model_dir shared)

(* Runs in a child process, so the parent's heap and in-process caches
   never see the preparation. *)
let prepare shared ~store =
  let model = Felix.pretrained_cost_model ~cache_dir:(model_dir shared) device in
  if store && not (Sys.file_exists (golden_dir shared)) then begin
    let tmp = golden_dir shared ^ ".tmp" in
    rm_rf tmp;
    let s = open_store (Filename.concat tmp "store") in
    let rc =
      ansor_rc golden_seed |> Tuning_config.with_store s
      |> Tuning_config.with_pack_cache (Filename.concat tmp "packs")
    in
    ignore (ok_or "Tuner.run" (Result.map_error Tuner.error_message
                                 (Tuner.run rc device model (Workload.graph Workload.Resnet50)
                                    Tuning_config.Ansor)));
    Store.close s;
    Unix.rename tmp (golden_dir shared)
  end

let ensure_shared ~store =
  let shared = shared_dir () in
  if model_file shared = None || (store && not (Sys.file_exists (golden_dir shared))) then begin
    mkdir_p shared;
    let args =
      [| Sys.executable_name; "--prepare"; shared; "--with-store"; string_of_bool store |]
    in
    let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr Unix.stderr in
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> ()
    | _ -> failwith "preparing the shared benchmark inputs failed"
  end;
  shared

(* ---- workloads --------------------------------------------------------- *)

(* [results] holds each distinct result of the run (Export.result_to_json,
   and on served_jobs the served payloads too), in a fixed order. *)
type outcome = { e2e : metric list; trace : traced option; results : string list }

let results_of units = List.map (fun u -> u.json) (distinct units)

let load_model dir () =
  let m = Felix.pretrained_cost_model ~cache_dir:dir device in
  (m, false)

(* Repeat [one i] until [seconds] have passed, at least [min] times and a
   whole number of [cycle]s. *)
let repeat ~seconds ~min ~cycle one =
  let start = Unix.gettimeofday () in
  let rec go i acc =
    if i >= min && i mod cycle = 0 && Unix.gettimeofday () -. start >= seconds then List.rev acc
    else go (i + 1) (one i :: acc)
  in
  go 0 []

(* [times] are the setup_s, tune_s and wall_s metrics. *)
let inprocess_metrics ~shared ~seed units ~times ~model =
  let firsts = distinct units in
  let nf = List.length firsts in
  let req = List.fold_left (fun a u -> a + u.requests) 0 firsts in
  let bad = List.fold_left (fun a u -> a + Option.get u.failed_requests) 0 firsts in
  let failed_ratio = if req > 0 then float_of_int bad /. float_of_int req else 0.0 in
  let peak = peak_mb () and retained = retained_mb () in
  List.iter (fun u -> check_schedules ~what:("request " ^ u.key) u.rc u.result) firsts;
  let q, p0, p1 = timed (fun () -> probe_model ~shared ~seed model) in
  Printf.eprintf "[bench] model probe: %.3f s\n%!" (p1 -. p0);
  times
  @ [ m "final_latency_ms" "ms" (Stats.geomean (List.map (fun u -> u.result.Tuner.final_latency_ms) firsts))
      ~n:nf ~note:"geometric mean over the run's seeds";
    m "sim_tuning_s" "sim_s" (Stats.geomean (List.map (fun u -> u.sim_clock) firsts)) ~n:nf
      ~note:"simulated";
    m "peak_heap_mb" "MB" peak;
    m "ok_ratio" "ratio" (1.0 -. failed_ratio) ~n:req
      ~note:(Printf.sprintf "failed_ratio %.6f" failed_ratio);
    m "model_spearman" "ratio" q.Train.spearman ~n:q.Train.n_samples;
    m "model_task_spearman" "ratio" q.Train.per_task_spearman ~n:q.Train.n_samples;
    m "retained_heap_mb" "MB" retained ]

(* The traced requests of an in-process workload; [overhead] compares
   them with untraced requests of the same run. *)
let traced_of ~overhead units records =
  { records;
    bench_spans = List.concat_map (fun (u : unit_run) -> u.spans) units;
    events = List.concat_map (fun (u : unit_run) -> u.events) units;
    units;
    per = List.length units;
    overhead;
    serve =
      List.map
        (fun name -> m name "ms" 0.0 ~n:0)
        [ "serve.submit_ms"; "serve.result_ms"; "serve.queue_ms"; "serve.overhead_ms" ]
      @ [ m "serve.jobs_per_s" "1/s" 0.0 ~n:0; m "serve.job_p50_s" "s" 0.0 ~n:0;
          m "serve.job_tail_s" "s" 0.0 ~n:0 ] }

let with_run_dir f =
  let dir = Filename.concat work_root (Printf.sprintf "tmp/%d" (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let cold_dcgan ~seed ~trace =
  let shared = shared_dir () in
  let seeds = sub_seeds seed in
  let rc_of s = Tuning_config.(builder |> with_search quick |> with_seed s) in
  with_run_dir @@ fun dir ->
  let graph_of () = Workload.graph Workload.Dcgan in
  let request ?setup ~traced ~model_of d k =
    Pack.clear_memory_cache ();
    run_request ?setup ~traced ~key:(string_of_int k) ~dir:d
      ~store_dir:(Filename.concat d "store") ~pack_dir:(Filename.concat d "packs") ~graph_of
      ~model_of ~engine:Tuning_config.Felix
      (rc_of (List.nth seeds k))
  in
  (* The cold request: empty model cache, pack cache and store, and no
     in-process caches. The bootstrap fills the in-process pack cache with
     dataset packs; it is cleared before tuning, so the tune request
     starts as cold as its directories. *)
  let cold ~traced tag =
    Pack.set_disk_cache None;
    let d = Filename.concat dir tag in
    let mdir = Filename.concat d "model" in
    let model = ref None in
    let boot () =
      let m = Felix.pretrained_cost_model ~cache_dir:mdir device in
      Pack.clear_memory_cache ();
      model := Some m;
      (m, true)
    in
    let u = request ~traced d 0 ~model_of:(fun () -> assert false) ~setup:boot in
    (u, Option.get !model, mdir)
  in
  (* The tune request alone under the given run seeds, on fresh
     directories, with the bootstrapped model. *)
  let repeats ~tag model ks =
    List.mapi
      (fun i k ->
        request ~traced:false (Filename.concat dir (Printf.sprintf "%s%d" tag i)) k
          ~model_of:(fun () -> model))
      ks
  in
  if trace then start_tracing ();
  let first, model, mdir = cold ~traced:trace "cold" in
  let records = if trace then stop_tracing () else [] in
  (* The tune request three times more, untraced: the bootstrap dominates
     the run, so the cold workload repeats the rest of its request only. *)
  let reps = repeats ~tag:"rep" model [ 0; 0; 0 ] in
  check_repeats ~what:"cold_dcgan" (first :: reps);
  (* The bootstrap must be reproducible across processes: the trained
     model is byte-identical to the shared one trained elsewhere. *)
  let trained = Option.get (model_file_in mdir) in
  (match model_file shared with
  | Some f ->
    gate (read_file f = read_file trained)
      "cold_dcgan: bootstrapped model differs from the shared one"
  | None ->
    mkdir_p (model_dir shared);
    let tmp = Filename.concat shared "model.tmp" in
    write_file tmp (read_file trained);
    Unix.rename tmp (Filename.concat (model_dir shared) (Filename.basename trained)));
  let setup = (let a, b = Option.get first.setup in a +. b) in
  (* One bootstrap per run, a single sample whose spread follows the
     host's state through its whole length; setup_s reports it. wall_s is
     the rest of a request (store open, tune, export), timed on the
     repeats: the tune inside the bootstrap request starts on the heap the
     bootstrap grew, which makes it faster on some runs and not others. *)
  let rest = unit_time (fun u -> u.wall) reps and nr = List.length reps in
  let times =
    [ m "setup_s" "s" setup;
      m "tune_s" "s" (unit_time (fun u -> u.tune) reps) ~n:nr;
      m "wall_s" "s" rest ~n:nr ~note:"store open + tune + export; the bootstrap is setup_s" ]
  in
  (* A traced run bootstraps once, traced, so it fits one run's time
     limit; its tracing overhead is measured on the rest of the request
     against the untraced repeat. *)
  let trace =
    if not trace then None
    else
      Some
        (traced_of
           ~overhead:(((first.wall -. setup) /. rest) -. 1.0)
           [ first ] records)
  in
  { e2e =
      inprocess_metrics ~shared ~seed (first :: reps) ~times ~model;
    trace;
    results = results_of (first :: reps) }

let warm_ansor_store ~seed ~seconds ~trace =
  let shared = ensure_shared ~store:true in
  let seeds = sub_seeds seed in
  with_run_dir @@ fun dir ->
  (* Request [i] tunes under the run's seed [k], on fresh copies of the
     cached model, the warm pack cache and the completed store. *)
  let request ~traced ~k i =
    let d = Filename.concat dir (Printf.sprintf "%s%d" (if traced then "t" else "u") i) in
    let mdir = Filename.concat d "model" in
    copy_tree (model_dir shared) mdir;
    let store_dir = Filename.concat d "store" and pack_dir = Filename.concat d "packs" in
    copy_tree (Filename.concat (golden_dir shared) "store") store_dir;
    copy_tree (Filename.concat (golden_dir shared) "packs") pack_dir;
    Pack.clear_memory_cache ();
    Pack.set_disk_cache None;
    let u =
      run_request ~setup:(load_model mdir) ~store_dir ~pack_dir ~traced
        ~key:(string_of_int k) ~dir:d
        ~graph_of:(fun () -> Workload.graph Workload.Resnet50)
        ~model_of:(fun () -> assert false) ~engine:Tuning_config.Ansor
        (ansor_rc (List.nth seeds k))
    in
    rm_rf d;
    u
  in
  (* The requests cycle through the run's seeds, each seed at least
     twice. *)
  let budget = if trace then seconds /. 2.0 else seconds in
  let cycle ~traced i = request ~traced ~k:(i mod n_sub) i in
  let units = repeat ~seconds:budget ~min:(2 * n_sub) ~cycle:n_sub (cycle ~traced:false) in
  check_repeats ~what:"untraced" units;
  let times =
    let n = List.length units in
    [ m "setup_s" "s" (median_by (fun u -> let a, b = Option.get u.setup in a +. b) units) ~n;
      m "tune_s" "s" (unit_time (fun u -> u.tune) units) ~n;
      m "wall_s" "s" (unit_time (fun u -> u.wall) units) ~n ]
  in
  let trace =
    if not trace then None
    else begin
      start_tracing ();
      let tunits = repeat ~seconds:budget ~min:n_sub ~cycle:n_sub (cycle ~traced:true) in
      let records = stop_tracing () in
      check_repeats ~what:"traced" (units @ tunits);
      let wall = unit_time (fun u -> u.wall) in
      let overhead = (wall tunits /. wall units) -. 1.0 in
      Some (traced_of ~overhead tunits records)
    end
  in
  let model = Felix.pretrained_cost_model ~cache_dir:(model_dir shared) device in
  let e2e =
    inprocess_metrics ~shared ~seed units ~times ~model
  in
  { e2e; trace; results = results_of units }

(* ---- served jobs ------------------------------------------------------- *)

type job = {
  spec : int;  (* index into the job specs *)
  t_submit : float;
  t_submitted : float;  (* submit reply received *)
  t_running : float;  (* "running" state seen on the watch stream *)
  t_done : float;  (* terminal state seen *)
  t_result : float;  (* result reply received *)
  t_exported : float;
  state : string;
  payload : string;  (* the result payload, compact JSON *)
}

(* Follows a job's event stream over its own connection ("watch" verb)
   and timestamps the state changes. *)
let watch socket id =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  output_string oc (Json.to_line (Json.Obj [ ("verb", Json.Str "watch"); ("id", Json.Str id) ]));
  output_char oc '\n';
  flush oc;
  let running = ref nan and finish = ref (nan, "failed") in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line -> (
      let t = now () in
      let j = ok_or "watch" (Json.parse line) in
      let str k = Option.bind (Json.find j k) Json.as_string in
      match (str "event", str "state", Json.find j "done") with
      | Some "state", Some "running", _ ->
        running := t;
        loop ()
      | _, Some st, Some _ -> finish := (t, st)
      | _ -> loop ())
  in
  loop ();
  Unix.close fd;
  (!running, !finish)

let served_jobs ~seed ~seconds ~trace =
  let shared = ensure_shared ~store:false in
  with_run_dir @@ fun dir ->
  Pack.clear_memory_cache ();
  Pack.set_disk_cache None;
  let mdir = Filename.concat dir "model" in
  copy_tree (model_dir shared) mdir;
  let pack_dir = Filename.concat dir "packs" in
  let socket = Filename.concat dir "d.sock" in
  (* The daemon records into Telemetry.global, its default, which is
     enabled only while the traced stream runs. *)
  (* Daemon set-up: model ready, daemon bound and serving, client
     connected. Stood up five times; the last one serves the stream. *)
  let stand_up () =
    let t0 = now () in
    let model = Felix.pretrained_cost_model ~cache_dir:mdir device in
    let d =
      ok_or "Serve.create"
        (Serve.create ~workers:1 ~queue_capacity:4 ~model_for:(fun _ -> model)
           ~pack_cache:pack_dir ~socket ())
    in
    let th = Thread.create Serve.run d in
    let c = ok_or "Serve.Client.connect" (Serve.Client.connect socket) in
    (now () -. t0, d, th, c, model)
  in
  let drain (d, th, c) =
    ignore (Serve.Client.shutdown c);
    Serve.Client.close c;
    Serve.initiate_shutdown d;
    Thread.join th;
    gate (not (Sys.file_exists socket)) "served_jobs: drained daemon left its socket behind"
  in
  let setup_s =
    List.init 4 (fun _ ->
        let s, d, th, c, _ = stand_up () in
        drain (d, th, c);
        s)
  in
  let s5, d, th, c, model = stand_up () in
  let setup_s = s5 :: setup_s in
  (* One job spec per network and run seed. The client alternates the
     DCGAN and MobileNet-V2 specs of the first seed, so that each repeats
     often enough for its median job to be steady; the other seeds' specs
     run in process only, untimed, for the quality figures. *)
  let specs =
    Array.of_list
      (List.concat_map
         (fun s -> [ served_spec s Workload.Dcgan; served_spec s Workload.Mobilenet_v2 ])
         (sub_seeds ~n:6 seed))
  in
  let nspecs = Array.length specs and nstream = 2 in
  let job i =
    let k = i mod nstream in
    let t_submit = now () in
    let id = ok_or "submit" (Serve.Client.submit c specs.(k)) in
    let t_submitted = now () in
    let t_running, (t_done, state) = watch socket id in
    let payload = Serve.Client.result c id in
    let t_result = now () in
    let payload = match payload with Ok p -> Json.to_line p | Error e -> "error: " ^ e in
    (match Json.parse payload with
    | Ok p ->
      ignore
        (Store.Artifact.save ~path:(Filename.concat dir "served.json") ~kind:Export.result_kind
           ~version:Export.result_version p)
    | Error _ -> ());
    { spec = k; t_submit; t_submitted; t_running; t_done; t_result; t_exported = now ();
      state; payload }
  in
  (* A closed loop: the next job is submitted once the previous result is
     exported. The stream ends after a whole cycle of specs, and every spec
     runs at least four times. The heap the daemon holds is read once,
     after the first four cycles, between jobs and outside the window. *)
  let retained = ref 0.0 in
  let stream ~seconds =
    let start = now () and paused = ref 0.0 in
    let rec go i acc =
      if i = 4 * nstream && !retained = 0.0 then begin
        let t = now () in
        retained := retained_mb ();
        paused := now () -. t
      end;
      let elapsed = now () -. start -. !paused in
      if i >= 4 * nstream && i mod nstream = 0 && elapsed >= seconds then
        (List.rev acc, elapsed)
      else go (i + 1) (job i :: acc)
    in
    go 0 []
  in
  let budget = if trace then seconds /. 2.0 else seconds in
  let jobs, window = stream ~seconds:budget in
  let tjobs, trecords, tstart =
    if trace then begin
      start_tracing ();
      let t0 = now () in
      let tj, _ = stream ~seconds:budget in
      (tj, stop_tracing (), t0)
    end
    else ([], [], 0.0)
  in
  drain (d, th, c);
  let peak = peak_mb () in
  let latency j = j.t_exported -. j.t_submit in
  let all_jobs = jobs @ tjobs in
  let n_jobs = List.length all_jobs in
  let n_done = List.length (List.filter (fun j -> j.state = "done") all_jobs) in
  attempted := !attempted + n_jobs;
  failed := !failed + n_jobs - n_done;
  (* Every served result must equal an in-process Tuner.run of the same
     spec against the same pack cache. The first of these runs counts its
     failed measurement requests, which stand for those of the served jobs
     of its spec; a traced run times a second one, at the default
     telemetry, for serve.overhead_ms. *)
  let reference k =
    let spec = specs.(k) in
    let runs =
      List.init (if trace && k < nstream then 2 else 1) (fun i ->
          run_request ~count:(i = 0) ~key:(Printf.sprintf "spec%d" k)
            ~dir:(Filename.concat dir (Printf.sprintf "ref%d-%d" k i)) ~pack_dir
            ~graph_of:(fun () -> Workload.graph ~batch:1 spec.Serve.Job.network)
            ~model_of:(fun () -> model) ~engine:spec.Serve.Job.engine spec.Serve.Job.run)
    in
    let expect = Json.to_line (Export.result_json (List.hd runs).result) in
    List.iter
      (fun j ->
        if j.spec = k then
          gate (j.payload = expect)
            (Printf.sprintf
               "served_jobs: spec %d: served result differs from in-process Tuner.run" k))
      all_jobs;
    runs
  in
  let refs = Array.init nspecs reference in
  let firsts = Array.to_list (Array.map List.hd refs) in
  let over_jobs f = List.fold_left (fun a j -> a + f refs.(j.spec)) 0 all_jobs in
  let req = over_jobs (fun rs -> (List.hd rs).requests) in
  let bad = over_jobs (fun rs -> Option.get (List.hd rs).failed_requests) in
  List.iter (fun u -> check_schedules ~what:("spec " ^ u.key) u.rc u.result) firsts;
  (* Timings are each spec's median job, averaged over the specs. *)
  let job_time f js = per_request ~key:(fun j -> j.spec) f js in
  (* DCGAN and MobileNet-V2 jobs differ in length, so a median over all
     jobs would sit between the two groups: the job latency distribution
     (a per-layer figure) takes medians per network and averages them. *)
  let per_network f js =
    let med net =
      median_by f (List.filter (fun j -> specs.(j.spec).Serve.Job.network = net) js)
    in
    (med Workload.Dcgan +. med Workload.Mobilenet_v2) /. 2.0
  in
  let failed_ratio = float_of_int (bad + n_jobs - n_done) /. float_of_int (req + n_jobs) in
  let q = probe_model ~shared ~seed model in
  let n = List.length jobs in
  let e2e =
    [ m "setup_s" "s" (Stats.median setup_s) ~n:(List.length setup_s);
      m "tune_s" "s" (job_time (fun j -> j.t_done -. j.t_running) jobs) ~n
        ~note:"running -> done in the daemon";
      m "wall_s" "s" (Stats.median setup_s +. job_time latency jobs) ~n
        ~note:"set-up + submit -> exported";
      m "final_latency_ms" "ms"
        (Stats.geomean (List.map (fun u -> u.result.Tuner.final_latency_ms) firsts))
        ~n:nspecs ~note:"geometric mean over the job specs";
      m "sim_tuning_s" "sim_s" (Stats.geomean (List.map (fun u -> u.sim_clock) firsts)) ~n:nspecs
        ~note:"simulated";
      m "peak_heap_mb" "MB" peak;
      m "ok_ratio" "ratio" (1.0 -. failed_ratio) ~n:(req + n_jobs)
        ~note:(Printf.sprintf "failed_ratio %.6f" failed_ratio);
      m "model_spearman" "ratio" q.Train.spearman ~n:q.Train.n_samples;
      m "model_task_spearman" "ratio" q.Train.per_task_spearman ~n:q.Train.n_samples;
      m "retained_heap_mb" "MB" !retained ~note:(Printf.sprintf "after %d jobs" (4 * nstream))
    ]
  in
  let trace =
    if not trace then None
    else begin
      let spans =
        List.concat_map
          (fun j ->
            (* The daemon may start a job before its submit reply reaches
               the client, so the daemon's share is everything from the
               submit to the terminal state seen on the watch stream; the
               program's spans of the job nest inside it. *)
            [ { Layers.name = "serve.job"; start = j.t_submit; stop = j.t_exported };
              { Layers.name = "serve.daemon"; start = j.t_submit; stop = j.t_done };
              { Layers.name = "serve.submit"; start = j.t_submit; stop = j.t_submitted };
              { Layers.name = "serve.result"; start = j.t_done; stop = j.t_result };
              { Layers.name = "bench.export"; start = j.t_result; stop = j.t_exported } ])
          tjobs
      in
      let t_end = List.fold_left (fun a j -> max a j.t_exported) tstart tjobs in
      let spans = { Layers.name = "bench.window"; start = tstart; stop = t_end } :: spans in
      let ms x = 1000.0 *. x in
      let per_job f = ms (Stats.median (List.map f tjobs)) in
      let ref_tune k = (List.nth refs.(k) 1).tune in
      (* The first cycle of specs compiles packs into a cold cache; the
         untraced jobs after it are compared with in-process runs and with
         the traced jobs. *)
      let warm_jobs = List.filteri (fun i _ -> i >= nstream) jobs in
      let n = List.length tjobs in
      Some
        { records = trecords;
          bench_spans = spans;
          events = [];
          units = [];
          per = n;
          overhead = (job_time latency tjobs /. job_time latency warm_jobs) -. 1.0;
          serve =
            [ m "serve.submit_ms" "ms" (per_job (fun j -> j.t_submitted -. j.t_submit)) ~n;
              m "serve.result_ms" "ms" (per_job (fun j -> j.t_result -. j.t_done)) ~n;
              m "serve.queue_ms" "ms" (per_job (fun j -> j.t_running -. j.t_submit)) ~n
                ~note:"submit -> running seen";
              m "serve.overhead_ms" "ms"
                (ms (job_time (fun j -> latency j -. ref_tune j.spec) warm_jobs))
                ~n:(List.length warm_jobs) ~note:"untraced job latency - in-process tune_s";
              m "serve.jobs_per_s" "1/s" (float_of_int (List.length jobs) /. window)
                ~n:(List.length jobs) ~note:"untraced stream";
              m "serve.job_p50_s" "s" (per_network latency jobs) ~n:(List.length jobs)
                ~note:"untraced stream, per-network medians averaged";
              tail_metric "serve.job_tail_s" "s" (List.map latency jobs) ] }
    end
  in
  let payloads =
    List.init nstream (fun k -> (List.find (fun j -> j.spec = k) all_jobs).payload)
  in
  { e2e; trace; results = results_of firsts @ payloads }

(* ---- output ------------------------------------------------------------ *)

let results_dir = Filename.concat work_root "results"

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun x ->
      Printf.printf "  %-36s %16.6f %-6s n=%-6d %s\n" x.name x.value x.unit_ x.n x.note)
    ms

let metrics_json ms =
  Json.Obj
    (List.map
       (fun x ->
         if not (Float.is_finite x.value) then
           failwith (Printf.sprintf "metric %s is not finite" x.name);
         (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ]))
       ms)

(* Results of one workload/seed must not change between runs of the same
   build: the first run records a digest of its results (each distinct
   result, and the deterministic metrics), later ones compare against
   it. *)
let check_across_runs ~name ~seed digest =
  let dir = Filename.concat (shared_dir ()) "digests" in
  mkdir_p dir;
  let f = Filename.concat dir (Printf.sprintf "%s-%d" name seed) in
  if Sys.file_exists f then
    gate (read_file f = digest) (name ^ ": results differ from an earlier run of this seed")
  else write_file f digest

let run_workload name ~seed ~seconds ~trace =
  let w =
    match List.assoc_opt name workloads with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ name)
  in
  Telemetry.disable Telemetry.global;
  let o =
    match w with
    | Cold_dcgan -> cold_dcgan ~seed ~trace
    | Warm_ansor_store -> warm_ansor_store ~seed ~seconds ~trace
    | Served_jobs -> served_jobs ~seed ~seconds ~trace
  in
  print_metrics (Printf.sprintf "%s seed %d: end-to-end" name seed) o.e2e;
  let deterministic =
    List.filter_map
      (fun x ->
        if List.mem x.name [ "final_latency_ms"; "sim_tuning_s"; "ok_ratio"; "model_spearman";
                             "model_task_spearman" ]
        then Some (Printf.sprintf "%s=%h" x.name x.value)
        else None)
      o.e2e
  in
  let results = List.map (fun r -> Digest.to_hex (Digest.string r)) o.results in
  check_across_runs ~name ~seed (String.concat "\n" (results @ deterministic));
  mkdir_p results_dir;
  let base = Filename.concat results_dir (Printf.sprintf "%s-seed%d" name seed) in
  let layer =
    match o.trace with
    | None -> []
    | Some t ->
      let ms, summary = layer_metrics t in
      print_metrics (Printf.sprintf "%s seed %d: per layer (traced)" name seed) ms;
      let report =
        Layers.render
          ~title:(Printf.sprintf "%s seed %d: %d traced request(s)" name seed t.per)
          ~per:t.per ~overhead:t.overhead summary
      in
      print_string report;
      write_file (base ^ ".trace.txt") report;

      ms
  in
  List.iter (fun f -> Printf.eprintf "GATE FAILED: %s\n" f) (List.rev !failures);
  let correct = !failures = [] in
  let line =
    Json.to_line
      (Json.Obj
         [ ("correct", Json.Bool correct);
           ("attempted", Json.Num (float_of_int (max 1 !attempted)));
           ("failed", Json.Num (float_of_int !failed));
           ("metrics", metrics_json (if trace then layer else o.e2e)) ])
  in
  write_file (base ^ (if trace then ".trace.json" else ".json")) (line ^ "\n");
  print_endline line;
  if not correct then exit 1

(* Every workload in its own process, then one combined line. *)
let run_all ~seed ~seconds ~trace =
  mkdir_p results_dir;
  let lines =
    List.map
      (fun (name, _) ->
        let out = Filename.concat results_dir (name ^ ".stdout") in
        let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
        let args =
          [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed; "--seconds";
             Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") |]
        in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin fd Unix.stderr in
        let _, st = Unix.waitpid [] pid in
        Unix.close fd;
        let text = read_file out in
        print_string text;
        let last =
          String.split_on_char '\n' (String.trim text) |> List.rev |> function
          | l :: _ -> l
          | [] -> ""
        in
        (name, st = Unix.WEXITED 0, Json.parse last))
      workloads
  in
  let field j k = Option.bind (Json.find j k) Json.as_int |> Option.value ~default:0 in
  let ok = List.for_all (fun (_, ok, j) -> ok && Result.is_ok j) lines in
  let parsed =
    List.filter_map (fun (n, _, j) -> Result.to_option j |> Option.map (fun j -> (n, j))) lines
  in
  let total k = float_of_int (List.fold_left (fun a (_, j) -> a + field j k) 0 parsed) in
  let metrics =
    List.concat_map
      (fun (n, j) ->
        match Json.find j "metrics" with
        | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (n ^ "/" ^ k, v)) kvs
        | _ -> [])
      parsed
  in
  print_endline
    (Json.to_line
       (Json.Obj
          [ ("correct", Json.Bool ok);
            ("attempted", Json.Num (total "attempted"));
            ("failed", Json.Num (total "failed"));
            ("metrics", Json.Obj metrics) ]));
  if not ok then exit 1

let usage () =
  prerr_endline
    ("usage: felix_bench --workload NAME --seed N --seconds S --trace 0|1\n  NAME: all | "
    ^ String.concat " | " (List.map fst workloads));
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let get k = List.assoc_opt k o in
  match get "prepare" with
  | Some shared -> prepare shared ~store:(get "with-store" = Some "true")
  | None -> (
    let int k = Option.bind (get k) int_of_string_opt in
    let seconds = Option.bind (get "seconds") float_of_string_opt in
    match (get "workload", int "seed", seconds, int "trace") with
    | Some w, Some seed, Some seconds, Some t when seconds > 0.0 && (t = 0 || t = 1) -> (
      let trace = t = 1 in
      if w = "all" then run_all ~seed ~seconds ~trace
      else if not (List.mem_assoc w workloads) then usage ()
      else
        try run_workload w ~seed ~seconds ~trace
        with e ->
          Printf.eprintf "benchmark failed: %s\n" (Printexc.to_string e);
          exit 2)
    | _ -> usage ())
