(* felix-tune: command-line front end.

   Subcommands:
     tune     — tune one of the paper's networks on a device
     resume   — continue an interrupted tune from its --store directory
     serve    — run the tuning service daemon on a Unix-domain socket
     submit   — send a tuning job to a running service
     status   — query a job's state on a running service
     result   — fetch a finished job's result from a running service
     cancel   — cancel a queued or running job on a running service
     inspect  — print a network's tuning tasks and search-space statistics
     compare  — compare a tuned network against the vendor frameworks
     devices  — list device models
     stats    — summarize a JSONL telemetry trace written by tune --trace
     store    — inspect a durable tuning store (store stats DIR)
     cache    — inspect or clear a persistent compilation cache *)

open Cmdliner

let network_conv =
  let parse s =
    let all =
      List.map (fun n -> (String.lowercase_ascii (Workload.network_name n), n))
        Workload.all_networks
    in
    match List.assoc_opt (String.lowercase_ascii s) all with
    | Some n -> Ok n
    | None ->
      Error (`Msg (Printf.sprintf "unknown network %S (known: %s)" s
                     (String.concat ", " (List.map fst all))))
  in
  Arg.conv (parse, fun fmt n -> Format.pp_print_string fmt (Workload.network_name n))

let device_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Device.of_name s) in
  Arg.conv (parse, fun fmt (d : Device.t) -> Format.pp_print_string fmt d.device_name)

let network_arg =
  Arg.(required & pos 0 (some network_conv) None & info [] ~docv:"NETWORK")

let device_arg =
  Arg.(value & opt device_conv Device.rtx_a5000 & info [ "device"; "d" ] ~docv:"DEVICE"
         ~doc:"Target GPU: a10g, rtx-a5000 or xavier-nx.")

let rounds_arg =
  Arg.(value & opt int 30 & info [ "rounds"; "r" ] ~doc:"Total tuning rounds.")

let batch_arg = Arg.(value & opt int 1 & info [ "batch"; "b" ] ~doc:"Inference batch size.")

let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Search seed.")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Use the reduced-effort search configuration.")

let engine_arg =
  let engine_conv =
    Arg.enum
      (List.map
         (fun e -> (Tuning_config.engine_id e, e))
         [ Tuner.Felix; Tuner.Ansor; Tuner.Random ])
  in
  Arg.(value & opt engine_conv Tuner.Felix
       & info [ "engine" ] ~doc:"Search engine: felix, ansor or random.")

let config_of_quick quick rounds =
  let base = if quick then Tuning_config.quick else Tuning_config.default in
  { base with Tuning_config.max_rounds = rounds }

let jobs_arg =
  let default =
    match Sys.getenv_opt "FELIX_JOBS" with
    | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 1)
    | None -> 1
  in
  Arg.(value & opt int default
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Run searches and measurements on $(docv) parallel domains. Defaults \
                 to the FELIX_JOBS environment variable (else 1). Results are \
                 bit-identical at any value.")

(* Measurement-policy flags; env-variable fallbacks mirror FELIX_JOBS:
   unset, empty or unparsable means the built-in default. Range errors are
   caught by Tuner.validate's typed Invalid_config path, not here. *)
let env_float name =
  Option.bind (Sys.getenv_opt name) (fun s -> float_of_string_opt (String.trim s))

let env_int name =
  Option.bind (Sys.getenv_opt name) (fun s -> int_of_string_opt (String.trim s))

let measure_timeout_arg =
  let default =
    Option.value (env_float "FELIX_MEASURE_TIMEOUT")
      ~default:Measure.default.Measure.timeout_s
  in
  Arg.(value & opt float default
       & info [ "measure-timeout" ] ~docv:"SECONDS"
           ~doc:"Per-measurement deadline in simulated seconds; a timed-out \
                 attempt costs this much tuning time. Defaults to the \
                 FELIX_MEASURE_TIMEOUT environment variable (else 5).")

let measure_retries_arg =
  let default =
    Option.value (env_int "FELIX_MEASURE_RETRIES")
      ~default:(Measure.default.Measure.max_attempts - 1)
  in
  Arg.(value & opt int default
       & info [ "measure-retries" ] ~docv:"N"
           ~doc:"Retry a failed measurement up to $(docv) more times (total \
                 attempts $(docv)+1) with exponential backoff; a candidate that \
                 fails identically twice is classified deterministic and not \
                 retried again. Defaults to the FELIX_MEASURE_RETRIES \
                 environment variable (else 2).")

let chaos_arg =
  let default = Option.value (env_float "FELIX_MEASURE_CHAOS") ~default:0.0 in
  Arg.(value & opt float default
       & info [ "chaos" ] ~docv:"RATE"
           ~doc:"Inject measurement faults deterministically at total rate \
                 $(docv) in [0, 1], split evenly across timeouts, crashes, \
                 hangs and flaky noise; the fault schedule is keyed on the \
                 candidate digest and the search seed, so runs with equal \
                 seeds see identical faults. 0 (the default, or the \
                 FELIX_MEASURE_CHAOS environment variable) disables injection.")

let measure_of ~timeout ~retries ~chaos ~seed =
  { Measure.default with
    Measure.timeout_s = timeout;
    max_attempts = retries + 1;
    chaos =
      (if chaos <> 0.0 then Some (Measure.chaos_with_rate ~seed chaos) else None) }

let out_arg =
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"PREFIX"
         ~doc:"Write PREFIX.csv (progress curve) and PREFIX.json (summary).")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a JSONL telemetry trace of the run (spans, events, metrics) to \
               $(docv); summarize it later with the stats subcommand.")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ] ~doc:"Print aggregated telemetry metrics after the run.")

(* Enable the global telemetry registry for the duration of [f] when either
   observability flag is set; metric snapshots land at the end of the trace. *)
let with_telemetry ~trace ~metrics f =
  let reg = Telemetry.global in
  let oc =
    Option.map
      (fun file ->
        try open_out file
        with Sys_error msg ->
          Printf.eprintf "felix-tune: cannot open trace file: %s\n" msg;
          exit 1)
      trace
  in
  if oc <> None || metrics then Telemetry.enable reg;
  Option.iter (fun oc -> Telemetry.add_sink reg (Telemetry.jsonl_sink oc)) oc;
  let finish () =
    Telemetry.flush_metrics reg;
    if metrics then print_string (Telemetry.report reg);
    Option.iter close_out oc;
    Option.iter (fun f -> Printf.printf "wrote telemetry trace to %s\n" f) trace
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let store_arg =
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR"
         ~doc:"Durable tuning store: journal every measurement to $(docv), \
               checkpoint each round, and warm-start from completed prior runs. \
               An interrupted run is continued bit-identically by \
               $(b,felix-tune resume) $(docv).")

let pack_cache_arg =
  Arg.(value & opt (some string) (Sys.getenv_opt "FELIX_PACK_CACHE")
       & info [ "pack-cache" ] ~docv:"DIR"
           ~doc:"Persistent compilation cache: store compiled feature/penalty \
                 packs content-addressed under $(docv) (created on demand) and \
                 reuse them across runs and processes. Defaults to the \
                 FELIX_PACK_CACHE environment variable (else disabled). Results \
                 are bit-identical with the cache cold, warm or disabled.")

(* One job specification drives [tune], [submit] and the [run.json]
   invocation record that [resume] replays: the shared Serve.Job codec
   means the three paths cannot drift apart. *)
let spec_of ~net ~device ~rounds ~batch ~seed ~quick ~engine ~jobs
    ~measure ~deadline ~store_dir ~pack_cache =
  let search = config_of_quick quick rounds in
  let run =
    Tuning_config.(
      builder |> with_search search |> with_seed seed |> with_jobs jobs
      |> with_measurer measure)
  in
  let run =
    match pack_cache with
    | Some dir -> Tuning_config.with_pack_cache dir run
    | None -> run
  in
  { Serve.Job.network = net; inference_batch = batch; device; engine; run;
    deadline_s = deadline; store_dir }

let exit_store_error what e =
  Printf.eprintf "felix-tune: %s: %s\n" what (Store.error_message e);
  exit 1

let print_store_summary store =
  let st = Store.stats store in
  Printf.printf "store: %d records, %d runs (%d completed)%s\n"
    st.Store.records st.Store.runs_started st.Store.runs_completed
    (if st.Store.recovered_bytes > 0 then
       Printf.sprintf " — recovered a torn journal tail (%d bytes dropped)"
         st.Store.recovered_bytes
     else "")

(* Run one job spec in-process (the [tune] and [resume] paths). The store
   directory, when given, gets the spec recorded as [run.json] so the run
   can be resumed or re-submitted with the exact same configuration. *)
let execute_tune ?store_dir (spec : Serve.Job.spec) out trace metrics =
  with_telemetry ~trace ~metrics @@ fun () ->
  let store =
    Option.map
      (fun dir ->
        match Store.open_dir dir with
        | Error e -> exit_store_error dir e
        | Ok store ->
          (match Serve.Job.save_invocation spec ~dir with
          | Ok () -> ()
          | Error e -> exit_store_error "cannot record invocation" e);
          store)
      store_dir
  in
  let g = Workload.graph ~batch:spec.Serve.Job.inference_batch spec.Serve.Job.network in
  Printf.printf "%s\n\n" (Graph.summary g);
  let model = Felix.pretrained_cost_model spec.Serve.Job.device in
  let rc = spec.Serve.Job.run in
  let rc = match store with Some s -> Tuning_config.with_store s rc | None -> rc in
  match Tuner.run rc spec.Serve.Job.device model g spec.Serve.Job.engine with
  | Error e ->
    Option.iter Store.close store;
    Printf.eprintf "felix-tune: %s\n" (Tuner.error_message e);
    exit 1
  | Ok result ->
    Printf.printf "final latency: %.3f ms (%d measurements, %.0f simulated seconds)\n"
      result.Tuner.final_latency_ms result.Tuner.total_measurements
      (match List.rev result.Tuner.curve with p :: _ -> p.Tuner.time_s | [] -> 0.0);
    let t = Table.create ~title:"tasks" ~header:[ "subgraph"; "x"; "best ms"; "sketch" ] in
    List.iter
      (fun (tr : Tuner.task_result) ->
        Table.add_row t
          [ tr.task.Partition.subgraph.Compute.sg_name; string_of_int tr.task.Partition.weight;
            Table.fmt_ms tr.best.Tuner.latency_ms; tr.best.Tuner.sketch ])
      result.Tuner.tasks;
    Table.print t;
    Option.iter
      (fun s ->
        print_store_summary s;
        Store.close s)
      store;
    match out with
    | None -> ()
    | Some prefix ->
      (match Export.write_curve_csv result (prefix ^ ".csv") with
      | Ok () -> ()
      | Error e -> exit_store_error (prefix ^ ".csv") e);
      (match Export.save_result result (prefix ^ ".json") with
      | Ok () -> ()
      | Error e -> exit_store_error (prefix ^ ".json") e);
      Printf.printf "wrote %s.csv and %s.json\n" prefix prefix

let tune_cmd =
  let run net device rounds batch seed quick engine jobs measure_timeout
      measure_retries chaos store_dir pack_cache out trace metrics =
    let measure =
      measure_of ~timeout:measure_timeout ~retries:measure_retries ~chaos ~seed
    in
    let spec =
      spec_of ~net ~device ~rounds ~batch ~seed ~quick ~engine ~jobs
        ~measure ~deadline:None ~store_dir:None ~pack_cache
    in
    execute_tune ?store_dir spec out trace metrics
  in
  Cmd.v (Cmd.info "tune" ~doc:"Tune a network's schedules for a device.")
    Term.(const run $ network_arg $ device_arg $ rounds_arg $ batch_arg $ seed_arg
          $ quick_arg $ engine_arg $ jobs_arg $ measure_timeout_arg
          $ measure_retries_arg $ chaos_arg $ store_arg $ pack_cache_arg $ out_arg
          $ trace_arg $ metrics_arg)

(* Optional parallelism override for [resume]: an omitted flag keeps the
   recorded invocation's value (results are invariant either way). *)
let jobs_override_arg =
  Arg.(value & opt (some int) None
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Override the recorded domain parallelism. Results are \
                 bit-identical at any value.")

let resume_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR"
           ~doc:"Store directory of the interrupted $(b,tune --store) run.")
  in
  let run dir jobs pack_cache out trace metrics =
    match Serve.Job.load_invocation ~dir with
    | Error e -> exit_store_error dir e
    | Ok spec ->
      let rc = spec.Serve.Job.run in
      let rc =
        match jobs with Some j -> Tuning_config.with_jobs j rc | None -> rc
      in
      let rc =
        match pack_cache with
        | Some d -> Tuning_config.with_pack_cache d rc
        | None -> rc
      in
      let spec = { spec with Serve.Job.run = rc } in
      Printf.printf "resuming: %s on %s (%d rounds, seed %d, %s)\n\n"
        (Workload.network_name spec.Serve.Job.network)
        spec.Serve.Job.device.Device.device_name
        rc.Tuning_config.search.Tuning_config.max_rounds rc.Tuning_config.seed
        (Tuning_config.engine_id spec.Serve.Job.engine);
      execute_tune ~store_dir:dir spec out trace metrics
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Continue an interrupted tuning run from its store directory, \
          bit-identically to the uninterrupted run. Parallelism flags may \
          differ from the original invocation; results do not depend on them.")
    Term.(const run $ dir_arg $ jobs_override_arg
          $ pack_cache_arg $ out_arg $ trace_arg $ metrics_arg)

(* --- the tuning service ----------------------------------------------------- *)

let socket_arg =
  Arg.(value & opt string "felix.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path of the tuning service.")

let with_client socket f =
  match Serve.Client.connect socket with
  | Error m ->
    Printf.eprintf "felix-tune: %s\n" m;
    exit 1
  | Ok c ->
    let finish () = Serve.Client.close c in
    (match f c with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)

let exit_client_error m =
  Printf.eprintf "felix-tune: %s\n" m;
  exit 1

let print_status j =
  let field k = Option.bind (Json.find j k) Json.as_string in
  let num k = Option.bind (Json.find j k) Json.as_float in
  Printf.printf "%s: %s"
    (Option.value ~default:"?" (field "id"))
    (Option.value ~default:"?" (field "state"));
  (match num "rounds" with
  | Some r when r > 0.0 -> Printf.printf " (round %.0f" r;
    (match num "latency_ms" with
    | Some l -> Printf.printf ", %.3f ms)" l
    | None -> Printf.printf ")")
  | _ -> ());
  (match field "error" with Some m -> Printf.printf " — %s" m | None -> ());
  print_newline ()

(* Fetch a finished job's result payload and persist it exactly as
   [tune -o] would: the artifact envelope and the bit-exact JSON writer
   make the file byte-identical to a local run of the same spec. *)
let write_result_artifact path payload =
  match
    Store.Artifact.save ~path ~kind:Export.result_kind ~version:Export.result_version
      payload
  with
  | Ok () -> Printf.printf "wrote %s\n" path
  | Error e -> exit_store_error path e

let serve_cmd =
  let workers_arg =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N" ~doc:"Worker domains running jobs in parallel.")
  in
  let queue_arg =
    Arg.(value & opt int 16
         & info [ "queue" ] ~docv:"N"
             ~doc:"Bounded queue capacity; submits beyond it are rejected as overloaded.")
  in
  let run socket workers queue pack_cache trace metrics =
    with_telemetry ~trace ~metrics @@ fun () ->
    match Serve.create ~workers ~queue_capacity:queue ?pack_cache ~socket () with
    | Error m ->
      Printf.eprintf "felix-tune: %s\n" m;
      exit 1
    | Ok srv ->
      Serve.handle_signals srv;
      Printf.printf "felix serve: listening on %s (%d workers, queue %d)\n%!" socket
        workers queue;
      Serve.run srv;
      Printf.printf "felix serve: drained\n"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the tuning service: accept jobs over a Unix-domain socket, run \
          them on a bounded worker pool, drain gracefully on SIGTERM.")
    Term.(const run $ socket_arg $ workers_arg $ queue_arg $ pack_cache_arg
          $ trace_arg $ metrics_arg)

let submit_cmd =
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"Wall-clock deadline; the job stops (state expired) at the first \
                   round boundary past it.")
  in
  let wait_arg =
    Arg.(value & flag
         & info [ "wait" ] ~doc:"Block until the job reaches a terminal state.")
  in
  let result_out_arg =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"With $(b,--wait): write the finished job's result artifact to \
                   $(docv) (byte-identical to $(b,tune -o)'s JSON).")
  in
  let run net device rounds batch seed quick engine jobs measure_timeout
      measure_retries chaos store_dir deadline socket wait out =
    (* The pack cache is daemon-side state (serve --pack-cache), not part of
       the job spec: submitted jobs share whatever cache the daemon mounts.
       The measurement policy *is* job state: it rides the spec codec. *)
    let measure =
      measure_of ~timeout:measure_timeout ~retries:measure_retries ~chaos ~seed
    in
    let spec =
      spec_of ~net ~device ~rounds ~batch ~seed ~quick ~engine ~jobs
        ~measure ~deadline ~store_dir ~pack_cache:None
    in
    with_client socket @@ fun c ->
    match Serve.Client.submit c spec with
    | Error m -> exit_client_error m
    | Ok id ->
      Printf.printf "submitted %s\n%!" id;
      if wait then begin
        match Serve.Client.wait c id with
        | Error m -> exit_client_error m
        | Ok status ->
          print_status status;
          let state = Option.bind (Json.find status "state") Json.as_string in
          if state <> Some "done" then exit 1;
          match out with
          | None -> ()
          | Some path -> (
            match Serve.Client.result c id with
            | Error m -> exit_client_error m
            | Ok payload -> write_result_artifact path payload)
      end
  in
  Cmd.v
    (Cmd.info "submit" ~doc:"Submit a tuning job to a running service.")
    Term.(const run $ network_arg $ device_arg $ rounds_arg $ batch_arg $ seed_arg
          $ quick_arg $ engine_arg $ jobs_arg $ measure_timeout_arg
          $ measure_retries_arg $ chaos_arg $ store_arg $ deadline_arg $ socket_arg
          $ wait_arg $ result_out_arg)

let job_id_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"JOB"
         ~doc:"Job id returned by submit.")

let status_cmd =
  let run id socket =
    with_client socket @@ fun c ->
    match Serve.Client.status c id with
    | Error m -> exit_client_error m
    | Ok j -> print_status j
  in
  Cmd.v (Cmd.info "status" ~doc:"Query a job's state on a running service.")
    Term.(const run $ job_id_arg $ socket_arg)

let result_cmd =
  let out_file_arg =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Write the result artifact to $(docv) instead of printing a summary.")
  in
  let run id socket out =
    with_client socket @@ fun c ->
    match Serve.Client.result c id with
    | Error m -> exit_client_error m
    | Ok payload -> (
      match out with
      | Some path -> write_result_artifact path payload
      | None ->
        (match Option.bind (Json.find payload "final_latency_ms") Json.as_float with
        | Some l -> Printf.printf "%s: final latency %.3f ms\n" id l
        | None -> print_endline (Json.to_string payload)))
  in
  Cmd.v (Cmd.info "result" ~doc:"Fetch a finished job's result from a running service.")
    Term.(const run $ job_id_arg $ socket_arg $ out_file_arg)

let cancel_cmd =
  let run id socket =
    with_client socket @@ fun c ->
    match Serve.Client.cancel c id with
    | Error m -> exit_client_error m
    | Ok j -> print_status j
  in
  Cmd.v
    (Cmd.info "cancel"
       ~doc:
         "Cancel a job: a queued job stops immediately, a running one \
          checkpoints its store at the next round boundary and stops.")
    Term.(const run $ job_id_arg $ socket_arg)

let store_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR"
           ~doc:"Store directory written by tune --store.")
  in
  let stats_sub =
    let run dir =
      match Store.open_dir dir with
      | Error e -> exit_store_error dir e
      | Ok store ->
        let st = Store.stats store in
        let t = Table.create ~title:("store " ^ dir) ~header:[ "field"; "value" ] in
        Table.add_row t [ "records"; string_of_int st.Store.records ];
        Table.add_row t [ "failed measurements"; string_of_int st.Store.failures ];
        Table.add_row t [ "retried measurements"; string_of_int st.Store.retried ];
        Table.add_row t [ "runs started"; string_of_int st.Store.runs_started ];
        Table.add_row t [ "runs completed"; string_of_int st.Store.runs_completed ];
        Table.add_row t [ "devices"; String.concat ", " st.Store.devices ];
        Table.add_row t [ "tasks"; string_of_int st.Store.tasks ];
        Table.add_row t [ "journal bytes"; string_of_int st.Store.journal_bytes ];
        Table.add_row t
          [ "recovered bytes";
            (if st.Store.recovered_bytes > 0 then
               Printf.sprintf "%d (torn tail truncated)" st.Store.recovered_bytes
             else "0") ];
        Table.add_row t [ "checkpoint"; (if st.Store.has_checkpoint then "yes" else "no") ];
        Table.print t;
        Store.close store
    in
    Cmd.v (Cmd.info "stats" ~doc:"Summarize a store's journal and checkpoint.")
      Term.(const run $ dir_arg)
  in
  Cmd.group (Cmd.info "store" ~doc:"Inspect a durable tuning store.") [ stats_sub ]

let cache_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"Pack-cache directory (as given to --pack-cache or \
                 FELIX_PACK_CACHE).")
  in
  let stats_sub =
    let run dir =
      let t =
        Table.create ~title:("pack cache " ^ dir) ~header:[ "field"; "value" ]
      in
      List.iter
        (fun (k, v) -> Table.add_row t [ k; string_of_int v ])
        (Pack.disk_cache_stats dir);
      (* Activity counters are process-lifetime; in this freshly started
         process they reflect only work done by this invocation. *)
      List.iter
        (fun (k, v) -> Table.add_row t [ k ^ " (this process)"; string_of_int v ])
        (Pack.disk_counters ());
      List.iter
        (fun (k, v) -> Table.add_row t [ "lru " ^ k ^ " (this process)"; string_of_int v ])
        (Pack.cache_stats ());
      Table.print t
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:"Show a pack cache's entry count and size, plus this process's \
               hit/miss/evict counters.")
      Term.(const run $ dir_arg)
  in
  let clear_sub =
    let yes_arg =
      Arg.(value & flag
           & info [ "yes" ] ~doc:"Confirm deletion; without it nothing is removed.")
    in
    let run dir yes =
      if not yes then begin
        Printf.eprintf
          "felix-tune: cache clear %s would delete its entries; re-run with --yes\n"
          dir;
        exit 1
      end
      else
        let n = Pack.clear_disk_cache dir in
        Printf.printf "removed %d cache entries from %s\n" n dir
    in
    Cmd.v
      (Cmd.info "clear"
         ~doc:"Delete every pack-* cache entry in the directory (needs --yes).")
      Term.(const run $ dir_arg $ yes_arg)
  in
  Cmd.group
    (Cmd.info "cache" ~doc:"Inspect or clear a persistent compilation cache.")
    [ stats_sub; clear_sub ]

let inspect_cmd =
  let run net batch =
    let g = Workload.graph ~batch net in
    Printf.printf "%s\n\n" (Graph.summary g);
    let t =
      Table.create ~title:"tuning tasks"
        ~header:[ "task"; "x"; "MFLOPs"; "stages"; "sketches"; "variables"; "space size" ]
    in
    List.iter
      (fun (task : Partition.task) ->
        let scheds = Sketch.generate task.subgraph in
        let vars = List.map Schedule.num_vars scheds in
        let space =
          List.fold_left (fun acc s -> acc +. Schedule.space_size s) 0.0 scheds
        in
        Table.add_row t
          [ task.subgraph.Compute.sg_name; string_of_int task.weight;
            Printf.sprintf "%.1f" (Partition.task_flops task /. 1e6);
            string_of_int (List.length task.subgraph.Compute.stages);
            string_of_int (List.length scheds);
            String.concat "+" (List.map string_of_int vars);
            Printf.sprintf "%.2e" space ])
      (Partition.partition g);
    Table.print t
  in
  Cmd.v (Cmd.info "inspect" ~doc:"Show a network's tuning tasks and search-space size.")
    Term.(const run $ network_arg $ batch_arg)

let compare_cmd =
  let run net device rounds quick jobs =
    let g = Workload.graph net in
    let model = Felix.pretrained_cost_model device in
    let search = config_of_quick quick rounds in
    let rc =
      Tuning_config.(builder |> with_search search |> with_jobs jobs)
    in
    let result =
      match Tuner.run rc device model g Tuner.Felix with
      | Ok r -> r
      | Error e ->
        Printf.eprintf "felix-tune: %s\n" (Tuner.error_message e);
        exit 1
    in
    let t = Table.create ~title:"latency comparison" ~header:[ "framework"; "latency"; "vs Felix" ] in
    let felix = result.Tuner.final_latency_ms in
    List.iter
      (fun fw ->
        if Frameworks.supported device fw net then
          match Frameworks.network_latency_ms device fw g with
          | Some l ->
            Table.add_row t [ Frameworks.name fw; Table.fmt_ms l; Table.fmt_speedup (l /. felix) ]
          | None -> Table.add_row t [ Frameworks.name fw; "-"; "-" ]
        else Table.add_row t [ Frameworks.name fw; "(unsupported)"; "-" ])
      Frameworks.all;
    Table.add_row t [ "Felix"; Table.fmt_ms felix; "1.00x" ];
    Table.print t
  in
  Cmd.v (Cmd.info "compare" ~doc:"Compare Felix against vendor frameworks.")
    Term.(const run $ network_arg $ device_arg $ rounds_arg $ quick_arg $ jobs_arg)

let devices_cmd =
  let run () =
    let t =
      Table.create ~title:"device models"
        ~header:[ "name"; "SMs"; "fp32 GFLOPS"; "DRAM GB/s"; "L2 KB"; "launch us" ]
    in
    List.iter
      (fun (d : Device.t) ->
        Table.add_row t
          [ d.device_name; string_of_int d.sms; Printf.sprintf "%.0f" d.fp32_gflops;
            Printf.sprintf "%.0f" d.dram_gbps; string_of_int d.l2_kb;
            Printf.sprintf "%.0f" d.launch_overhead_us ])
      Device.all;
    Table.print t
  in
  Cmd.v (Cmd.info "devices" ~doc:"List device models.") Term.(const run $ const ())

let stats_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE"
           ~doc:"JSONL trace written by tune --trace.")
  in
  let run file =
    let records = Telemetry.Trace.read_file file in
    if records = [] then begin
      Printf.eprintf "%s: no parseable trace records\n" file;
      exit 1
    end;
    let spans = List.filter (fun r -> r.Telemetry.r_kind = Telemetry.Span) records in
    let events = List.filter (fun r -> r.Telemetry.r_kind = Telemetry.Event) records in
    let metrics = List.filter (fun r -> r.Telemetry.r_kind = Telemetry.Metric) records in
    Printf.printf "%s: %d records (%d spans, %d events, %d metrics)\n\n" file
      (List.length records) (List.length spans) (List.length events) (List.length metrics);
    (* Span latency percentiles, grouped by span name. *)
    let by_name = Hashtbl.create 16 in
    List.iter
      (fun r ->
        let h =
          match Hashtbl.find_opt by_name r.Telemetry.r_name with
          | Some h -> h
          | None ->
            let h = ref [] in
            Hashtbl.replace by_name r.Telemetry.r_name h;
            h
        in
        h := r.Telemetry.r_dur_ms :: !h)
      spans;
    let t =
      Table.create ~title:"span latencies (wall clock)"
        ~header:[ "span"; "count"; "p50 ms"; "p95 ms"; "p99 ms"; "total ms" ]
    in
    Hashtbl.fold (fun name durs acc -> (name, !durs) :: acc) by_name []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.iter (fun (name, durs) ->
           Table.add_row t
             [ name; string_of_int (List.length durs);
               Printf.sprintf "%.3f" (Stats.percentile 50.0 durs);
               Printf.sprintf "%.3f" (Stats.percentile 95.0 durs);
               Printf.sprintf "%.3f" (Stats.percentile 99.0 durs);
               Printf.sprintf "%.3f" (List.fold_left ( +. ) 0.0 durs) ]);
    Table.print t;
    (* Round-by-round story from the tuner.round spans. *)
    let rounds =
      List.filter (fun r -> r.Telemetry.r_name = "tuner.round") spans
      |> List.sort (fun a b -> compare a.Telemetry.r_ts_s b.Telemetry.r_ts_s)
    in
    (match rounds with
    | [] -> ()
    | first :: _ ->
      let attr = Telemetry.attr_float in
      let last = List.nth rounds (List.length rounds - 1) in
      let engine =
        Option.value ~default:"?" (Telemetry.attr_str first.Telemetry.r_attrs "engine")
      in
      let measured =
        List.fold_left
          (fun acc r ->
            acc + Option.value ~default:0 (Telemetry.attr_int r.Telemetry.r_attrs "measured"))
          0 rounds
      in
      let best_of r = attr r.Telemetry.r_attrs "best_ms" in
      Printf.printf "\nrounds: %d (engine %s, %d schedules measured)\n" (List.length rounds)
        engine measured;
      (match (best_of first, best_of last) with
      | Some b0, Some b1 ->
        Printf.printf "task best latency: %.4f ms -> %.4f ms\n" b0 b1
      | _ -> ());
      match attr last.Telemetry.r_attrs "sim_clock_end_s" with
      | Some sim ->
        let wall =
          List.fold_left (fun acc r -> acc +. r.Telemetry.r_dur_ms) 0.0 rounds /. 1000.0
        in
        Printf.printf "simulated tuning clock: %.0f s; wall clock in rounds: %.2f s\n" sim wall
      | None -> ());
    (* End-of-run metric snapshot lines, if the trace carries them. *)
    if metrics <> [] then begin
      let t = Table.create ~title:"metrics" ~header:[ "name"; "kind"; "value" ] in
      List.iter
        (fun r ->
          let kind =
            Option.value ~default:"?" (Telemetry.attr_str r.Telemetry.r_attrs "metric")
          in
          let value =
            match kind with
            | "counter" ->
              string_of_int (Option.value ~default:0 (Telemetry.attr_int r.Telemetry.r_attrs "value"))
            | "gauge" ->
              Printf.sprintf "%g"
                (Option.value ~default:0.0 (Telemetry.attr_float r.Telemetry.r_attrs "value"))
            | _ ->
              Printf.sprintf "n=%d p50=%.4g p95=%.4g p99=%.4g"
                (Option.value ~default:0 (Telemetry.attr_int r.Telemetry.r_attrs "count"))
                (Option.value ~default:0.0 (Telemetry.attr_float r.Telemetry.r_attrs "p50"))
                (Option.value ~default:0.0 (Telemetry.attr_float r.Telemetry.r_attrs "p95"))
                (Option.value ~default:0.0 (Telemetry.attr_float r.Telemetry.r_attrs "p99"))
          in
          Table.add_row t [ r.Telemetry.r_name; kind; value ])
        (List.sort (fun a b -> compare a.Telemetry.r_name b.Telemetry.r_name) metrics);
      Table.print t
    end
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Summarize a JSONL telemetry trace (p50/p95/p99 span times).")
    Term.(const run $ file_arg)

let () =
  let info = Cmd.info "felix-tune" ~doc:"Gradient-based tensor program optimisation (Felix)." in
  exit
    (Cmd.eval
       (Cmd.group info
          [ tune_cmd; resume_cmd; serve_cmd; submit_cmd; status_cmd; result_cmd;
            cancel_cmd; inspect_cmd; compare_cmd; devices_cmd; stats_cmd; store_cmd;
            cache_cmd ]))
