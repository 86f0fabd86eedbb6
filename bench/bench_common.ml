(* Shared infrastructure of the benchmark harness: experiment scale,
   per-device cost models, and a disk cache of tuning runs so the expensive
   table/figure reproductions share work and re-runs are fast. *)

let artifacts_dir = "_artifacts"

let ensure_artifacts () =
  if not (Sys.file_exists artifacts_dir) then Sys.mkdir artifacts_dir 0o755

type scale = Quick | Standard

let scale =
  match Sys.getenv_opt "FELIX_BENCH_SCALE" with
  | Some "quick" -> Quick
  | Some _ | None -> Standard

let tuning_config () =
  match scale with
  | Quick ->
    { Tuning_config.quick with Tuning_config.max_rounds = 12; time_budget_s = 2_000.0 }
  | Standard ->
    { Tuning_config.default with
      Tuning_config.max_rounds = 30;
      population = 256;
      time_budget_s = 12_000.0 }

let devices = [ Device.a10g; Device.rtx_a5000; Device.xavier_nx ]

let model_cache : (string, Mlp.t) Hashtbl.t = Hashtbl.create 4

let cost_model device =
  let key = device.Device.device_name in
  match Hashtbl.find_opt model_cache key with
  | Some m -> m
  | None ->
    ensure_artifacts ();
    Printf.printf "[setup] cost model for %s...\n%!" key;
    let m = Train.pretrained_for_device ~cache_dir:artifacts_dir device in
    Hashtbl.replace model_cache key m;
    m

let safe name = String.map (fun c -> if c = ' ' || c = '/' then '_' else c) name

(* --- tuning-run cache -------------------------------------------------------

   Cached runs are stored as the versioned result artifact
   ([Export.save_result]) rather than a Marshal blob: the files are
   diffable, survive compiler upgrades, and every float round-trips
   bit-exactly. Live [Partition.task] values are not serialised, so a
   cache hit carries the per-run summary (curve, final latency,
   measurement count) with [tasks = []] — which is everything the
   harness consumes. *)

let run_cache_path ~net ~device ~batch ~engine ~seed =
  Filename.concat artifacts_dir
    (Printf.sprintf "tune_%s_%s_b%d_%s_s%d_%s.json" (safe net)
       (safe device.Device.device_name) batch
       (match engine with Tuner.Felix -> "felix" | Tuner.Ansor -> "ansor" | Tuner.Random -> "random")
       seed
       (match scale with Quick -> "q" | Standard -> "std"))

let result_of_saved (s : Export.saved_result) : Tuner.result =
  { Tuner.network = s.Export.sr_network;
    device_name = s.Export.sr_device;
    engine =
      (match s.Export.sr_engine with
      | "Ansor-TenSet" -> Tuner.Ansor
      | "Random" -> Tuner.Random
      | _ -> Tuner.Felix);
    curve =
      List.map (fun (t, l) -> { Tuner.time_s = t; latency_ms = l }) s.Export.sr_curve;
    final_latency_ms = s.Export.sr_final_latency_ms;
    total_measurements = s.Export.sr_total_measurements;
    tasks = [] }

(* Benchmarks treat a tuner configuration error as fatal. *)
let run_tuner rc device model g engine =
  match Tuner.run rc device model g engine with
  | Ok r -> r
  | Error e -> failwith (Tuner.error_message e)

let run_tuner_single rc ~rounds device model sg engine =
  match Tuner.run_single rc ~rounds device model sg engine with
  | Ok r -> r
  | Error e -> failwith (Tuner.error_message e)

let tuned ?(seed = 1) ~batch net device engine : Tuner.result =
  ensure_artifacts ();
  let name = Workload.network_name net in
  let path = run_cache_path ~net:name ~device ~batch ~engine ~seed in
  match Export.load_result path with
  | Ok saved -> result_of_saved saved
  | Error _ ->
    Printf.printf "[tune] %s on %s (batch %d, %s, seed %d)...\n%!" name
      device.Device.device_name batch (Tuner.engine_name engine) seed;
    let t0 = Unix.gettimeofday () in
    let model = cost_model device in
    let g = Workload.graph ~batch net in
    let rc = Tuning_config.(builder |> with_search (tuning_config ()) |> with_seed seed) in
    let r = run_tuner rc device model g engine in
    Printf.printf "[tune]   done: %.3f ms final (%.0fs simulated, %.1fs cpu)\n%!"
      r.Tuner.final_latency_ms
      (match List.rev r.Tuner.curve with p :: _ -> p.Tuner.time_s | [] -> 0.0)
      (Unix.gettimeofday () -. t0);
    (match Export.save_result r path with
    | Ok () -> ()
    | Error e -> Printf.eprintf "[tune] cache write failed: %s\n%!" (Store.error_message e));
    (match Export.write_curve_csv r (Filename.remove_extension path ^ ".csv") with
    | Ok () -> ()
    | Error e -> Printf.eprintf "[tune] curve write failed: %s\n%!" (Store.error_message e));
    r

(* --- curve utilities --------------------------------------------------------- *)

let best_latency (r : Tuner.result) =
  List.fold_left (fun acc (p : Tuner.progress_point) -> min acc p.latency_ms) infinity
    r.Tuner.curve

let time_to_reach (r : Tuner.result) target_ms =
  let rec go = function
    | [] -> None
    | (p : Tuner.progress_point) :: rest ->
      if p.latency_ms <= target_ms then Some p.time_s else go rest
  in
  go r.Tuner.curve

let downsample n curve =
  let arr = Array.of_list curve in
  let len = Array.length arr in
  if len <= n then curve
  else
    List.init n (fun i ->
        let idx = i * (len - 1) / (n - 1) in
        arr.(idx))

let fmt_norm v = Printf.sprintf "%.2f" v
