(* Engine and event types live in Tuning_config (so the run configuration
   can carry an event callback); re-export them under the historical names
   with type equations, so [Tuner.Felix] and friends keep working. *)

type engine = Tuning_config.engine = Felix | Ansor | Random

let engine_name = Tuning_config.engine_name

type progress_point = { time_s : float; latency_ms : float }

type best_candidate = {
  latency_ms : float;
  sketch : string;
  assignment : (string * int) list;
}

type task_result = {
  task : Partition.task;
  best : best_candidate;
  rounds_spent : int;
  measurements : int;
}

type result = {
  network : string;
  device_name : string;
  engine : engine;
  curve : progress_point list;
  final_latency_ms : float;
  total_measurements : int;
  tasks : task_result list;
}

let network_latency_ms r = r.final_latency_ms

(* --- tuning events --------------------------------------------------------- *)

type budget_reason = Tuning_config.budget_reason = Round_limit | Time_limit

type event = Tuning_config.event =
  | Tuning_started of {
      network : string;
      device_name : string;
      engine : engine;
      n_tasks : int;
    }
  | Round_started of { round : int; task_id : int; subgraph : string; sim_clock_s : float }
  | Candidates_measured of {
      round : int;
      task_id : int;
      proposed : int;
      measured : int;
      sim_clock_s : float;
    }
  | Task_improved of {
      round : int;
      task_id : int;
      subgraph : string;
      before_ms : float;
      after_ms : float;
    }
  | Model_updated of { round : int; samples : int; loss : float }
  | Round_finished of {
      round : int;
      task_id : int;
      best_task_ms : float;
      network_ms : float;
      sim_clock_s : float;
    }
  | Budget_exhausted of { rounds : int; sim_clock_s : float; reason : budget_reason }
  | Tuning_finished of {
      final_latency_ms : float;
      total_measurements : int;
      sim_clock_s : float;
    }

let no_event = Tuning_config.no_event
let budget_reason_name = Tuning_config.budget_reason_name

type task_state = {
  t : Partition.task;
  packs : Pack.t list;
  key_prefix : string;  (* workload identity, prefixes sim-cache keys *)
  measured : (string, float) Hashtbl.t;
  seeded : (string, unit) Hashtbl.t;
      (* keys warm-started from the store; a dedup hit here is a paid
         measurement the store saved us *)
  mutable best : float;
  mutable best_point : (Pack.t * float array) option;
  mutable elites : (Pack.t * float array * float) list;  (* best few, latency-sorted *)
  mutable improvement_factor : float;
  mutable rounds_spent : int;
  mutable n_measured : int;
}

let make_state ?runtime ?cache_dir task =
  let sg = task.Partition.subgraph in
  let sketches = Sketch.generate sg in
  let packs =
    Pack.prepare_all ?cache_dir ?runtime (List.map (fun s -> (sg, s)) sketches)
  in
  { t = task;
    packs;
    key_prefix = Compute.workload_key sg ^ "|";
    measured = Hashtbl.create 64;
    seeded = Hashtbl.create 16;
    best = Float.infinity;
    best_point = None;
    elites = [];
    improvement_factor = 1.0;
    rounds_spent = 0;
    n_measured = 0 }

let graph_exec_overhead_ms states =
  (* Graph-executor dispatch cost per kernel occurrence. *)
  List.fold_left
    (fun acc st ->
      acc
      +. (float_of_int st.t.Partition.weight
          *. float_of_int (List.length st.t.Partition.subgraph.Compute.stages)
          *. 0.002))
    0.0 states

let network_latency states =
  List.fold_left
    (fun acc st -> acc +. (float_of_int st.t.Partition.weight *. st.best))
    (graph_exec_overhead_ms states) states

(* Bookkeeping for one measured latency; shared by the sequential and the
   parallel measurement paths so both update best/elites identically.
   [count = false] replays a store record: the dedup cache, best and
   elites learn about the schedule, but it is not a new measurement of
   this run. *)
let note_measurement ?(count = true) st pack y key lat =
  Hashtbl.replace st.measured key lat;
  if count then st.n_measured <- st.n_measured + 1;
  if Float.is_finite lat && lat < st.best then begin
    st.best <- lat;
    st.best_point <- Some (pack, Array.copy y)
  end;
  if Float.is_finite lat then
    st.elites <-
      (pack, Array.copy y, lat) :: st.elites
      |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
      |> List.filteri (fun i _ -> i < 8)

(* A dedup hit on a store-seeded key is a measurement the warm start paid
   for in a previous run; it costs zero simulated time and is counted as a
   store hit. [journal] (when a store is attached) records every outcome
   actually obtained — successes and failures alike. *)
let note_store_hit ~telemetry st key =
  if Hashtbl.mem st.seeded key then
    Telemetry.Counter.incr (Telemetry.counter telemetry "store.hits")

(* The request digest doubles as the Pool backend's simulator-cache key,
   so it keeps the historical [device|workload|schedule-key] format. *)
let request_of device st pack y key =
  { Measure.digest = device.Device.device_name ^ "|" ^ st.key_prefix ^ key;
    device;
    program = Pack.program pack;
    env = Pack.env_of pack y }

(* Simulated time a measured batch costs the tuning clock. With the
   default (fault-free) policy this is exactly
   [float n_fresh *. measure_seconds], matching the legacy arithmetic
   bit-for-bit; faults add deadline and backoff time on top. *)
let batch_seconds (cfg : Tuning_config.t) (cost : Measure.batch_cost) =
  (float_of_int cost.Measure.measured_attempts *. cfg.Tuning_config.measure_seconds)
  +. cost.Measure.extra_s

(* Measure a round's candidates through the measurer; returns
   (fresh-request count, simulated-time cost, training pairs in the
   reversed order the historical loop accumulated them).

   Dedup stays the tuner's job (the measurer's outcome cache is keyed the
   same way but never hit here): proposals already in [st.measured] —
   including store-seeded ones — cost nothing, and within-batch duplicates
   collapse. Measurement noise is drawn from the tuning RNG at the join in
   candidate order whatever the backend, so Direct and Pool are
   bit-identical. Feature vectors piggyback on the backend's base
   computation ([with_base] runs on the pool for [Pool]). *)
let measure_candidates measurer ?journal ~telemetry rng device st candidates =
  let seen = Hashtbl.create 32 in
  let fresh =
    List.filter_map
      (fun (pack, y) ->
        let key = Pack.schedule_key pack y in
        if Hashtbl.mem st.measured key then begin
          note_store_hit ~telemetry st key;
          None
        end
        else if Hashtbl.mem seen key then None
        else begin
          Hashtbl.replace seen key ();
          Some (pack, y, key)
        end)
      candidates
    |> Array.of_list
  in
  let requests = Array.map (fun (pack, y, key) -> request_of device st pack y key) fresh in
  let feats = Array.make (Array.length fresh) None in
  let with_base i _base =
    let pack, y, _ = fresh.(i) in
    feats.(i) <- Some (Pack.features_at pack y)
  in
  let results, cost = Measure.measure_batch measurer ~rng ~with_base requests in
  let pairs = ref [] in
  Array.iteri
    (fun i (pack, y, key) ->
      let r = results.(i) in
      note_measurement st pack y key (Measure.latency_ms r.Measure.outcome);
      (match journal with Some f -> f st pack y key r | None -> ());
      match (feats.(i), r.Measure.outcome) with
      | Some f, Measure.Ok lat -> pairs := (f, -.log lat) :: !pairs
      | _ -> ())
    fresh;
  (Array.length fresh, cost, !pairs)

(* Fine-tune the cost model on freshly measured pairs (Alg. 1 line 24);
   returns the last batch loss when an update happened. *)
let update_model model adam pairs =
  if pairs = [] then None
  else begin
    (* One workspace per update: the pairs are staged once and the four
       steps reuse its buffers. *)
    let batch = List.length pairs in
    let ws = Mlp.batch_workspace model ~batch in
    List.iteri (fun l (x, target) -> Mlp.stage_example ws l x target) pairs;
    let loss = ref 0.0 in
    for _ = 1 to 4 do
      loss := Mlp.train_staged model adam ws ~batch
    done;
    Some !loss
  end

(* Sequential by design even when a runtime is available: each task's
   rejection sampling and its measurement noise interleave on the one
   tuning RNG, so reordering would change the stream. One measurement per
   task is not a hot path. *)
let initial_round cfg measurer ?journal ~telemetry rng device clock states =
  List.iter
    (fun st ->
      match
        List.find_map
          (fun pack ->
            match Dataset.sample_valid_point rng pack 200 with
            | Some y -> Some (pack, y)
            | None -> None)
          st.packs
      with
      | Some (pack, y) ->
        (* Only an actual measurement costs simulated time: a dedup hit on
           a warm-started key is free, which is what makes warm curves
           strictly dominate cold ones. *)
        let key = Pack.schedule_key pack y in
        if Hashtbl.mem st.measured key then note_store_hit ~telemetry st key
        else begin
          let results, cost =
            Measure.measure_batch measurer ~rng [| request_of device st pack y key |]
          in
          let r = results.(0) in
          note_measurement st pack y key (Measure.latency_ms r.Measure.outcome);
          (match journal with Some f -> f st pack y key r | None -> ());
          Tuning_config.Clock.advance clock (batch_seconds cfg cost)
        end
      | None -> ())
    states

let select_task states =
  (* Expected-gain scheduler: weight x current latency x freshness decay. *)
  Stats.argmax
    (fun st ->
      if Float.is_finite st.best then
        float_of_int st.t.Partition.weight *. st.best *. st.improvement_factor
      else 1e12)
    states

(* Random search measures the same budget as Ansor but picks uniformly
   valid schedules -- the no-cost-model control used by the ablations. *)
let random_round (cfg : Tuning_config.t) rng st ~already_measured =
  let packs = Array.of_list st.packs in
  let out = ref [] in
  let seen = Hashtbl.create 64 in
  let attempts = ref 0 in
  while List.length !out < cfg.Tuning_config.nmeasure_ansor
        && !attempts < cfg.Tuning_config.nmeasure_ansor * 20 do
    incr attempts;
    let pack = Rng.choose rng packs in
    match Dataset.sample_valid_point rng pack 20 with
    | Some y ->
      let key = Pack.schedule_key pack y in
      if (not (Hashtbl.mem seen key)) && not (already_measured key) then begin
        Hashtbl.replace seen key ();
        out := (pack, y) :: !out
      end
    | None -> ()
  done;
  !out

let run_engine_round cfg rng ?runtime engine model st =
  let already_measured key = Hashtbl.mem st.measured key in
  match engine with
  | Felix ->
    let cands, trace =
      Gradient_tuner.search_round cfg rng ?runtime model st.packs
        ~already_measured
    in
    ( List.map (fun (c : Gradient_tuner.candidate) -> (c.pack, c.y)) cands,
      trace.Gradient_tuner.predictions,
      cfg.Tuning_config.felix_round_overhead )
  | Ansor ->
    let elites = List.map (fun (p, y, _) -> (p, y)) st.elites in
    let cands, trace =
      Evolutionary.search_round cfg rng ?runtime model st.packs ~elites
        ~already_measured
    in
    ( List.map (fun (c : Evolutionary.individual) -> (c.pack, c.y)) cands,
      trace.Evolutionary.predictions,
      cfg.Tuning_config.ansor_round_overhead )
  | Random -> (random_round cfg rng st ~already_measured, [], 0.5)

let subgraph_name st = st.t.Partition.subgraph.Compute.sg_name

let tune_round cfg measurer rng ?runtime ?journal device engine model model_adam
    clock ~telemetry ~emit ~round st =
  let task_id = st.t.Partition.task_id in
  emit
    (Round_started
       { round; task_id; subgraph = subgraph_name st;
         sim_clock_s = Tuning_config.Clock.now clock });
  let sp =
    Telemetry.span_begin telemetry "tuner.round"
      ~attrs:
        [ ("round", Telemetry.Int round); ("engine", Telemetry.Str (engine_name engine));
          ("task", Telemetry.Int task_id);
          ("subgraph", Telemetry.Str (subgraph_name st));
          ("sim_clock_s", Telemetry.Float (Tuning_config.Clock.now clock)) ]
  in
  let candidates, predictions, overhead =
    run_engine_round cfg rng ?runtime engine model st
  in
  let before = st.best in
  let n_measured, cost, pairs =
    measure_candidates measurer ?journal ~telemetry rng device st candidates
  in
  (* Time accounting follows measurements actually paid for: deduplicated
     proposals — in particular re-proposals of store-seeded schedules —
     advance the simulated clock by zero; timed-out attempts and retry
     backoffs (fault injection only) add their deadline and wait time. *)
  Tuning_config.Clock.advance clock
    (batch_seconds cfg cost +. overhead +. cfg.Tuning_config.model_update_seconds);
  emit
    (Candidates_measured
       { round; task_id; proposed = List.length candidates; measured = n_measured;
         sim_clock_s = Tuning_config.Clock.now clock });
  if Float.is_finite st.best && st.best < before then
    emit
      (Task_improved
         { round; task_id; subgraph = subgraph_name st; before_ms = before;
           after_ms = st.best });
  let loss = update_model model model_adam pairs in
  (match loss with
  | Some l ->
    emit (Model_updated { round; samples = List.length pairs; loss = l });
    Telemetry.Gauge.set (Telemetry.gauge telemetry "tuner.model_loss") l
  | None -> ());
  st.rounds_spent <- st.rounds_spent + 1;
  let improved = Float.is_finite st.best && st.best < before *. 0.995 in
  st.improvement_factor <-
    (if improved then 1.0 else max 0.2 (st.improvement_factor *. 0.8));
  Telemetry.Counter.incr (Telemetry.counter telemetry "tuner.rounds");
  Telemetry.Counter.incr ~by:n_measured (Telemetry.counter telemetry "tuner.measurements");
  Telemetry.span_end telemetry sp
    ~attrs:
      [ ("proposed", Telemetry.Int (List.length candidates));
        ("measured", Telemetry.Int n_measured); ("best_ms", Telemetry.Float st.best);
        ("model_loss", Telemetry.Float (Option.value ~default:0.0 loss));
        ("sim_clock_end_s", Telemetry.Float (Tuning_config.Clock.now clock)) ];
  predictions

let best_of_state st =
  let sketch, assignment =
    match st.best_point with
    | Some (pack, y) -> ((Pack.schedule pack).Schedule.sched_name, Pack.assignment pack y)
    | None -> ("-", [])
  in
  { latency_ms = st.best; sketch; assignment }

(* --- durable store integration ---------------------------------------------

   Checkpoints are self-contained: run identity (so a resume refuses a
   different configuration), the RNG stream position, the simulated
   clock, cost-model weights and optimizer state, the progress curve and
   the full per-task scheduler state. Every float crosses the disk as
   IEEE-754 bits, and packs are referenced by sketch name — they are
   regenerated deterministically by [make_state] — so a resumed run
   continues the exact float sequence of the uninterrupted one. *)

exception Decode

let req = function Some x -> x | None -> raise Decode
let jfind j k = req (Json.find j k)
let jstr j k = req (Option.bind (Json.find j k) Json.as_string)
let jint j k = req (Option.bind (Json.find j k) Json.as_int)
let jlist j k = req (Option.bind (Json.find j k) Json.as_list)

let jbits j k =
  req (Option.bind (Option.bind (Json.find j k) Json.as_string) Store.Bits.to_float)

let jbits_arr j k =
  req (Option.bind (Option.bind (Json.find j k) Json.as_string) Store.Bits.to_floats)

let task_key_of st = String.sub st.key_prefix 0 (String.length st.key_prefix - 1)
let sketch_name pack = (Pack.schedule pack).Schedule.sched_name

(* jobs is deliberately not part of the identity: results are invariant
   to it, so a run may be resumed at any parallelism. The
   measurement policy *is* identity (faults change results), but is
   emitted only when non-default so pre-measurer checkpoints keep
   matching. The search codec lives in Tuning_config and is shared with
   the CLI invocation record and the service wire protocol. *)
let identity_json (rc : Tuning_config.run) ~network ~device_name engine =
  Json.Obj
    ([ ("network", Json.Str network); ("device", Json.Str device_name);
       ("engine", Json.Str (engine_name engine));
       ("seed", Json.Num (float_of_int rc.Tuning_config.seed));
       ("search", Tuning_config.search_to_json rc.Tuning_config.search) ]
    @ (if Measure.config_equal rc.Tuning_config.measure Measure.default then []
       else [ ("measure", Measure.config_to_json rc.Tuning_config.measure) ]))

let point_to_json pack y =
  Json.Obj
    [ ("sketch", Json.Str (sketch_name pack));
      ("y", Json.Str (Store.Bits.of_floats y)) ]

let state_to_json st =
  let measured =
    Hashtbl.fold (fun k lat acc -> (k, lat) :: acc) st.measured []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let seeded =
    Hashtbl.fold (fun k () acc -> k :: acc) st.seeded [] |> List.sort compare
  in
  Json.Obj
    [ ("task_id", Json.Num (float_of_int st.t.Partition.task_id));
      ("subgraph", Json.Str st.t.Partition.subgraph.Compute.sg_name);
      ("best", Json.Str (Store.Bits.of_float st.best));
      ("best_point",
       (match st.best_point with None -> Json.Null | Some (p, y) -> point_to_json p y));
      ("elites",
       Json.List
         (List.map
            (fun (p, y, lat) ->
              Json.Obj
                [ ("sketch", Json.Str (sketch_name p));
                  ("y", Json.Str (Store.Bits.of_floats y));
                  ("lat", Json.Str (Store.Bits.of_float lat)) ])
            st.elites));
      ("improvement", Json.Str (Store.Bits.of_float st.improvement_factor));
      ("rounds_spent", Json.Num (float_of_int st.rounds_spent));
      ("n_measured", Json.Num (float_of_int st.n_measured));
      ("measured",
       Json.List
         (List.map
            (fun (k, lat) -> Json.List [ Json.Str k; Json.Str (Store.Bits.of_float lat) ])
            measured));
      ("seeded", Json.List (List.map (fun k -> Json.Str k) seeded)) ]

(* Decode one task entry against the freshly built state; returns the
   mutation to run once the whole checkpoint has decoded (so a corrupt
   checkpoint never leaves states half-restored). *)
let state_restorer st j =
  if
    jint j "task_id" <> st.t.Partition.task_id
    || jstr j "subgraph" <> st.t.Partition.subgraph.Compute.sg_name
  then raise Decode;
  let by_name = List.map (fun p -> (sketch_name p, p)) st.packs in
  let point pj =
    let pack = req (List.assoc_opt (jstr pj "sketch") by_name) in
    let y = jbits_arr pj "y" in
    if Array.length y <> Pack.num_vars pack then raise Decode;
    (pack, y)
  in
  let best = jbits j "best" in
  let best_point =
    match jfind j "best_point" with Json.Null -> None | pj -> Some (point pj)
  in
  let elites =
    List.map
      (fun ej ->
        let p, y = point ej in
        (p, y, jbits ej "lat"))
      (jlist j "elites")
  in
  let improvement = jbits j "improvement" in
  let rounds_spent = jint j "rounds_spent" in
  let n_measured = jint j "n_measured" in
  let measured =
    List.map
      (function
        | Json.List [ Json.Str k; Json.Str lat ] -> (k, req (Store.Bits.to_float lat))
        | _ -> raise Decode)
      (jlist j "measured")
  in
  let seeded = List.map (fun x -> req (Json.as_string x)) (jlist j "seeded") in
  fun () ->
    st.best <- best;
    st.best_point <- best_point;
    st.elites <- elites;
    st.improvement_factor <- improvement;
    st.rounds_spent <- rounds_spent;
    st.n_measured <- n_measured;
    Hashtbl.reset st.measured;
    List.iter (fun (k, lat) -> Hashtbl.replace st.measured k lat) measured;
    Hashtbl.reset st.seeded;
    List.iter (fun k -> Hashtbl.replace st.seeded k ()) seeded

let checkpoint_json ~identity ~run_id ~completed ~round ~rng ~clock ~curve ~model
    ~adam states =
  Json.Obj
    [ ("identity", identity);
      ("run_id", Json.Str run_id);
      ("completed", Json.Bool completed);
      ("round", Json.Num (float_of_int round));
      ("rng", Json.Str (Printf.sprintf "%016Lx" (Rng.state_bits rng)));
      ("clock", Json.Str (Store.Bits.of_float (Tuning_config.Clock.now clock)));
      ("curve",
       Json.List
         (List.map
            (fun p ->
              Json.List
                [ Json.Str (Store.Bits.of_float p.time_s);
                  Json.Str (Store.Bits.of_float p.latency_ms) ])
            curve));
      ("model", Mlp.to_json model);
      ("adam", Adam.to_json adam);
      ("tasks", Json.List (List.map state_to_json states)) ]

type resume_state = {
  rs_run_id : string;
  rs_round : int;
  rs_rng : Rng.t;
  rs_clock : float;
  rs_curve : progress_point list;  (* chronological *)
  rs_model : Mlp.t;
  rs_adam : Adam.t;
  rs_restore : (unit -> unit) list;
  rs_entries : int;  (* measured-table entries restored, for telemetry *)
}

let decode_checkpoint cp ~identity states =
  try
    if Json.find cp "identity" <> Some identity then None
    else if req (Option.bind (Json.find cp "completed") Json.as_bool) then
      (* The stored run already finished; a new run warm-starts instead. *)
      None
    else begin
      let rng_bits =
        let s = jstr cp "rng" in
        if String.length s <> 16 then raise Decode
        else req (Int64.of_string_opt ("0x" ^ s))
      in
      let curve =
        List.map
          (function
            | Json.List [ Json.Str ts; Json.Str lat ] ->
              { time_s = req (Store.Bits.to_float ts);
                latency_ms = req (Store.Bits.to_float lat) }
            | _ -> raise Decode)
          (jlist cp "curve")
      in
      let model = req (Mlp.of_json (jfind cp "model")) in
      let adam = req (Adam.of_json (jfind cp "adam")) in
      let tasks = jlist cp "tasks" in
      if List.length tasks <> List.length states then raise Decode;
      let restore = List.map2 state_restorer states tasks in
      let entries =
        List.fold_left
          (fun acc tj -> acc + List.length (jlist tj "measured"))
          0 tasks
      in
      Some
        { rs_run_id = jstr cp "run_id";
          rs_round = jint cp "round";
          rs_rng = Rng.of_state_bits rng_bits;
          rs_clock = jbits cp "clock";
          rs_curve = curve;
          rs_model = model;
          rs_adam = adam;
          rs_restore = restore;
          rs_entries = entries }
    end
  with Decode -> None

(* Seed dedup caches, bests and elites from completed prior runs; returns
   the replay count and the (features, target) pairs for the one-shot
   model fine-tune. Consumes no RNG, so a run over an empty store is
   bit-identical to a run without a store. *)
let warm_finetune_cap = 512

let warm_seed store ~device_name states =
  let total = ref 0 in
  let pairs = ref [] in
  let n_pairs = ref 0 in
  List.iter
    (fun st ->
      let by_name = List.map (fun p -> (sketch_name p, p)) st.packs in
      let records =
        Store.completed_records store ~device:device_name ~task_key:(task_key_of st)
      in
      List.iter
        (fun (r : Store.Record.t) ->
          match List.assoc_opt r.Store.Record.sketch by_name with
          | None -> () (* sketch no longer generated; skip the record *)
          | Some pack ->
            if
              Array.length r.Store.Record.y = Pack.num_vars pack
              && not (Hashtbl.mem st.measured r.Store.Record.key)
            then begin
              note_measurement ~count:false st pack r.Store.Record.y
                r.Store.Record.key r.Store.Record.latency_ms;
              Hashtbl.replace st.seeded r.Store.Record.key ();
              incr total;
              if Float.is_finite r.Store.Record.latency_ms && !n_pairs < warm_finetune_cap
              then begin
                incr n_pairs;
                pairs :=
                  (Pack.features_at pack r.Store.Record.y, -.log r.Store.Record.latency_ms)
                  :: !pairs
              end
            end)
        records;
      (* Known failures seed the dedup cache at infinite latency — the
         whole point of journaling them: a resumed or warm-started run
         must not re-pay a failure already classified. They contribute no
         training pairs (like invalid schedules). *)
      let failures =
        Store.completed_failures store ~device:device_name ~task_key:(task_key_of st)
      in
      List.iter
        (fun (r : Store.Failure.t) ->
          match List.assoc_opt r.Store.Failure.sketch by_name with
          | None -> ()
          | Some pack ->
            if
              Array.length r.Store.Failure.y = Pack.num_vars pack
              && not (Hashtbl.mem st.measured r.Store.Failure.key)
            then begin
              note_measurement ~count:false st pack r.Store.Failure.y
                r.Store.Failure.key Float.infinity;
              Hashtbl.replace st.seeded r.Store.Failure.key ();
              incr total
            end)
        failures)
    states;
  (!total, !pairs)

(* Materialise the runtime a run configuration asks for: an explicit
   [runtime] wins; otherwise [jobs > 1] creates a temporary pool for the
   duration of the call. *)
let with_effective_runtime (rc : Tuning_config.run) f =
  match rc.Tuning_config.runtime with
  | Some rt -> f (Some rt)
  | None ->
    if rc.Tuning_config.jobs > 1 then
      Runtime.with_runtime ~domains:rc.Tuning_config.jobs (fun rt -> f (Some rt))
    else f None

(* --- typed failure reporting ------------------------------------------------

   The public entry points validate the configuration up front and map the
   two failure modes that used to escape as exceptions — bad configuration
   values (Invalid_argument from deep layers) and store I/O (Sys_error) —
   into a typed result. Exceptions raised by the caller's own event
   callback (the service's cancellation signal, tests' abort-for-resume)
   propagate unchanged: they are control flow, not failures. *)

type error = Invalid_config of string | Store_error of Store.error

let error_message = function
  | Invalid_config m -> Printf.sprintf "invalid tuning configuration: %s" m
  | Store_error e -> Printf.sprintf "tuning store error: %s" (Store.error_message e)

let validate (rc : Tuning_config.run) =
  let cfg = rc.Tuning_config.search in
  let pos_finite v = Float.is_finite v && v > 0.0 in
  let nonneg_finite v = Float.is_finite v && v >= 0.0 in
  let checks =
    [ (cfg.nseeds >= 1, "nseeds must be >= 1");
      (cfg.nsteps >= 1, "nsteps must be >= 1");
      (cfg.nmeasure_felix >= 1, "nmeasure_felix must be >= 1");
      (cfg.nmeasure_ansor >= 1, "nmeasure_ansor must be >= 1");
      (cfg.population >= 2, "population must be >= 2");
      (cfg.generations >= 1, "generations must be >= 1");
      ( Float.is_finite cfg.mutation_prob
        && cfg.mutation_prob >= 0.0
        && cfg.mutation_prob <= 1.0,
        "mutation_prob must be in [0, 1]" );
      (nonneg_finite cfg.lambda, "lambda must be finite and >= 0");
      (pos_finite cfg.gd_lr, "gd_lr must be finite and > 0");
      (nonneg_finite cfg.measure_seconds, "measure_seconds must be finite and >= 0");
      ( nonneg_finite cfg.felix_round_overhead,
        "felix_round_overhead must be finite and >= 0" );
      ( nonneg_finite cfg.ansor_round_overhead,
        "ansor_round_overhead must be finite and >= 0" );
      ( nonneg_finite cfg.model_update_seconds,
        "model_update_seconds must be finite and >= 0" );
      (cfg.max_rounds >= 0, "max_rounds must be >= 0");
      (pos_finite cfg.time_budget_s, "time_budget_s must be finite and > 0");
      (rc.Tuning_config.jobs >= 1, "jobs must be >= 1") ]
    @ (match Measure.validate rc.Tuning_config.measure with
      | Ok () -> []
      | Error m -> [ (false, m) ])
  in
  match List.find_opt (fun (ok, _) -> not ok) checks with
  | Some (_, msg) -> Error (Invalid_config msg)
  | None -> Ok ()

let reporting f =
  match f () with
  | r -> Ok r
  | exception Sys_error m -> Error (Store_error (Store.Io m))
  | exception Invalid_argument m -> Error (Invalid_config m)

let run_raw (rc : Tuning_config.run) device base_model graph engine =
  with_effective_runtime rc @@ fun runtime ->
  let cfg = rc.Tuning_config.search in
  let on_event = rc.Tuning_config.on_event in
  let telemetry = Option.value rc.Tuning_config.telemetry ~default:Telemetry.global in
  let store = rc.Tuning_config.store in
  let measurer =
    Measure.create ~telemetry
      (match runtime with Some rt -> Measure.Pool rt | None -> Measure.Direct)
      rc.Tuning_config.measure
  in
  let clock = Tuning_config.Clock.create () in
  let run_sp =
    Telemetry.span_begin telemetry "tuner.tune"
      ~attrs:
        [ ("network", Telemetry.Str graph.Graph.graph_name);
          ("device", Telemetry.Str device.Device.device_name);
          ("engine", Telemetry.Str (engine_name engine));
          ("domains", Telemetry.Int (match runtime with None -> 1 | Some rt -> Runtime.domains rt)) ]
  in
  let states =
    Telemetry.with_span telemetry "tuner.prepare_tasks" (fun () ->
        let tasks = Partition.partition graph in
        let cache_dir = rc.Tuning_config.pack_cache in
        match runtime with
        | None -> List.map (fun t -> make_state ?cache_dir t) tasks
        | Some rt ->
          Runtime.map_list rt (fun t -> make_state ~runtime:rt ?cache_dir t) tasks)
  in
  on_event
    (Tuning_started
       { network = graph.Graph.graph_name; device_name = device.Device.device_name;
         engine; n_tasks = List.length states });
  let identity =
    identity_json rc ~network:graph.Graph.graph_name
      ~device_name:device.Device.device_name engine
  in
  (* An unfinished checkpoint of this exact configuration resumes it;
     anything else (no store, no checkpoint, finished or foreign
     checkpoint) starts a fresh — possibly warm — run. *)
  let resume =
    match store with
    | None -> None
    | Some s -> (
      match Store.load_checkpoint s with
      | Error _ -> None
      | Ok cp -> decode_checkpoint cp ~identity states)
  in
  let rng, model, model_adam =
    match resume with
    | Some rs -> (rs.rs_rng, rs.rs_model, rs.rs_adam)
    | None ->
      let model = Mlp.copy base_model in
      (Rng.create rc.Tuning_config.seed, model, Mlp.adam_for ~lr:2e-4 model)
  in
  let round = ref 0 in
  let curve = ref [] in
  let run_id = ref None in
  let journal =
    match store with
    | None -> None
    | Some s ->
      let c_records = Telemetry.counter telemetry "store.records" in
      let c_failures = Telemetry.counter telemetry "store.failures" in
      Some
        (fun st pack y key (r : Measure.result) ->
          match r.Measure.outcome with
          | Measure.Ok lat ->
            Store.append s
              { Store.Record.network = graph.Graph.graph_name;
                device = device.Device.device_name;
                task_key = task_key_of st;
                sketch = sketch_name pack;
                key;
                y = Array.copy y;
                latency_ms = lat;
                round = !round;
                attempts = r.Measure.attempts };
            Telemetry.Counter.incr c_records
          | outcome ->
            Store.append_failure s
              { Store.Failure.network = graph.Graph.graph_name;
                device = device.Device.device_name;
                task_key = task_key_of st;
                sketch = sketch_name pack;
                key;
                y = Array.copy y;
                kind = Measure.outcome_kind outcome;
                message = (match outcome with Measure.Crash m -> m | _ -> "");
                attempts = r.Measure.attempts;
                deterministic = r.Measure.classification = Measure.Deterministic;
                round = !round };
            Telemetry.Counter.incr c_failures)
  in
  (* Journal lines of the round are made durable before the checkpoint
     that says the round happened, so a kill at any instant resumes from
     a state the journal fully covers. *)
  let save_ckpt ~completed =
    match (store, !run_id) with
    | Some s, Some id ->
      Telemetry.with_span telemetry "store.sync" (fun () -> Store.sync s);
      let sp = Telemetry.span_begin telemetry "store.checkpoint" in
      let cp =
        checkpoint_json ~identity ~run_id:id ~completed ~round:!round ~rng ~clock
          ~curve:(List.rev !curve) ~model ~adam:model_adam states
      in
      (match Store.save_checkpoint s cp with
      | Ok bytes -> Telemetry.span_end telemetry sp ~attrs:[ ("bytes", Telemetry.Int bytes) ]
      | Error e ->
        Telemetry.span_end telemetry sp ~attrs:[ ("error", Telemetry.Bool true) ];
        Logs.warn (fun m -> m "tuning store checkpoint failed: %s" (Store.error_message e)))
    | _ -> ()
  in
  (match resume with
  | Some rs ->
    List.iter (fun f -> f ()) rs.rs_restore;
    Tuning_config.Clock.set clock rs.rs_clock;
    round := rs.rs_round;
    curve := List.rev rs.rs_curve;
    run_id := Some rs.rs_run_id;
    (match store with Some s -> Store.resume_run s ~id:rs.rs_run_id | None -> ());
    Telemetry.Counter.incr ~by:rs.rs_entries (Telemetry.counter telemetry "store.replays")
  | None ->
    (match store with
    | Some s ->
      let replayed, warm_pairs =
        warm_seed s ~device_name:device.Device.device_name states
      in
      if replayed > 0 then begin
        Telemetry.Counter.incr ~by:replayed (Telemetry.counter telemetry "store.replays");
        ignore (update_model model model_adam warm_pairs)
      end;
      let id = Store.fresh_run_id s in
      run_id := Some id;
      Store.begin_run s ~id
    | None -> ());
    Telemetry.with_span telemetry "tuner.initial_round" (fun () ->
        initial_round cfg measurer ?journal ~telemetry rng device clock states);
    curve :=
      [ { time_s = Tuning_config.Clock.now clock; latency_ms = network_latency states } ];
    save_ckpt ~completed:false);
  while
    !round < cfg.max_rounds
    && Tuning_config.Clock.now clock < cfg.time_budget_s
  do
    incr round;
    let st = select_task states in
    ignore
      (tune_round cfg measurer rng ?runtime ?journal device engine model
         model_adam clock ~telemetry ~emit:on_event ~round:!round st);
    let net_ms = network_latency states in
    Telemetry.Gauge.set (Telemetry.gauge telemetry "tuner.network_latency_ms") net_ms;
    curve := { time_s = Tuning_config.Clock.now clock; latency_ms = net_ms } :: !curve;
    (* Checkpoint before announcing the round: once an observer hears
       [Round_finished n], a kill resumes from round n, not n-1. *)
    save_ckpt ~completed:false;
    on_event
      (Round_finished
         { round = !round; task_id = st.t.Partition.task_id; best_task_ms = st.best;
           network_ms = net_ms; sim_clock_s = Tuning_config.Clock.now clock })
  done;
  let reason = if !round >= cfg.max_rounds then Round_limit else Time_limit in
  on_event
    (Budget_exhausted
       { rounds = !round; sim_clock_s = Tuning_config.Clock.now clock; reason });
  let tasks =
    List.map
      (fun st ->
        { task = st.t; best = best_of_state st; rounds_spent = st.rounds_spent;
          measurements = st.n_measured })
      states
  in
  let final_latency_ms = network_latency states in
  let total_measurements = List.fold_left (fun acc st -> acc + st.n_measured) 0 states in
  (match (store, !run_id) with
  | Some s, Some id ->
    save_ckpt ~completed:true;
    Store.complete_run s ~id
  | _ -> ());
  on_event
    (Tuning_finished
       { final_latency_ms; total_measurements;
         sim_clock_s = Tuning_config.Clock.now clock });
  Telemetry.span_end telemetry run_sp
    ~attrs:
      [ ("rounds", Telemetry.Int !round);
        ("final_latency_ms", Telemetry.Float final_latency_ms);
        ("measurements", Telemetry.Int total_measurements);
        ("budget", Telemetry.Str (budget_reason_name reason));
        ("sim_clock_s", Telemetry.Float (Tuning_config.Clock.now clock)) ];
  { network = graph.Graph.graph_name;
    device_name = device.Device.device_name;
    engine;
    curve = List.rev !curve;
    final_latency_ms;
    total_measurements;
    tasks }

let run rc device base_model graph engine =
  match validate rc with
  | Error _ as e -> e
  | Ok () -> reporting (fun () -> run_raw rc device base_model graph engine)

type single_result = {
  best : best_candidate;
  curve : progress_point list;
  predictions : float list;
}

let run_single_raw (rc : Tuning_config.run) ~rounds device base_model sg engine =
  with_effective_runtime rc @@ fun runtime ->
  let cfg = rc.Tuning_config.search in
  let on_event = rc.Tuning_config.on_event in
  let telemetry = Option.value rc.Tuning_config.telemetry ~default:Telemetry.global in
  let measurer =
    Measure.create ~telemetry
      (match runtime with Some rt -> Measure.Pool rt | None -> Measure.Direct)
      rc.Tuning_config.measure
  in
  let rng = Rng.create rc.Tuning_config.seed in
  let model = Mlp.copy base_model in
  let model_adam = Mlp.adam_for ~lr:2e-4 model in
  let clock = Tuning_config.Clock.create () in
  let task = { Partition.task_id = 0; subgraph = sg; weight = 1; node_ids = [] } in
  let st = make_state ?runtime ?cache_dir:rc.Tuning_config.pack_cache task in
  on_event
    (Tuning_started
       { network = sg.Compute.sg_name; device_name = device.Device.device_name; engine;
         n_tasks = 1 });
  initial_round cfg measurer ~telemetry rng device clock [ st ];
  let curve = ref [ { time_s = Tuning_config.Clock.now clock; latency_ms = st.best } ] in
  let predictions = ref [] in
  for round = 1 to rounds do
    let preds =
      tune_round cfg measurer rng ?runtime device engine model model_adam clock
        ~telemetry ~emit:on_event ~round st
    in
    predictions := !predictions @ preds;
    on_event
      (Round_finished
         { round; task_id = 0; best_task_ms = st.best; network_ms = st.best;
           sim_clock_s = Tuning_config.Clock.now clock });
    curve := { time_s = Tuning_config.Clock.now clock; latency_ms = st.best } :: !curve
  done;
  on_event
    (Budget_exhausted
       { rounds; sim_clock_s = Tuning_config.Clock.now clock; reason = Round_limit });
  on_event
    (Tuning_finished
       { final_latency_ms = st.best; total_measurements = st.n_measured;
         sim_clock_s = Tuning_config.Clock.now clock });
  { best = best_of_state st; curve = List.rev !curve; predictions = !predictions }

let run_single rc ~rounds device base_model sg engine =
  match validate rc with
  | Error _ as e -> e
  | Ok () ->
    if rounds < 0 then Error (Invalid_config "rounds must be >= 0")
    else reporting (fun () -> run_single_raw rc ~rounds device base_model sg engine)
