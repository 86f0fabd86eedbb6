type t = {
  nseeds : int;
  nsteps : int;
  nmeasure_felix : int;
  lambda : float;
  gd_lr : float;
  population : int;
  generations : int;
  nmeasure_ansor : int;
  mutation_prob : float;
  measure_seconds : float;
  felix_round_overhead : float;
  ansor_round_overhead : float;
  model_update_seconds : float;
  max_rounds : int;
  time_budget_s : float;
}

let default =
  { nseeds = 8; nsteps = 200; nmeasure_felix = 16; lambda = 10.0; gd_lr = 0.08;
    population = 512; generations = 4; nmeasure_ansor = 64; mutation_prob = 0.3;
    measure_seconds = 0.5; felix_round_overhead = 2.0; ansor_round_overhead = 4.5;
    model_update_seconds = 0.5; max_rounds = 120; time_budget_s = 12_000.0 }

let quick =
  { default with nseeds = 4; nsteps = 60; population = 96; generations = 2;
    nmeasure_ansor = 24; max_rounds = 16; time_budget_s = 1_000.0 }

module Clock = struct
  type clock = { mutable t : float }

  let create () = { t = 0.0 }
  let now c = c.t
  let advance c dt = c.t <- c.t +. dt
  let set c v = c.t <- v
end

(* --- engines and tuning events --------------------------------------------- *)

type engine = Felix | Ansor | Random

let engine_name = function
  | Felix -> "Felix"
  | Ansor -> "Ansor-TenSet"
  | Random -> "Random"

(* Stable lowercase identifiers for the wire protocol, CLI flags and the
   invocation/checkpoint artifacts; [engine_name] stays the paper's display
   spelling. *)
let engine_id = function Felix -> "felix" | Ansor -> "ansor" | Random -> "random"

let engine_of_id s =
  match String.lowercase_ascii (String.trim s) with
  | "felix" -> Some Felix
  | "ansor" -> Some Ansor
  | "random" -> Some Random
  | _ -> None

type budget_reason = Round_limit | Time_limit

let budget_reason_name = function Round_limit -> "rounds" | Time_limit -> "time"

type event =
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

let no_event : event -> unit = fun _ -> ()

(* --- consolidated run configuration ---------------------------------------- *)

type run = {
  search : t;
  seed : int;
  jobs : int;
  measure : Measure.config;
  runtime : Runtime.t option;
  on_event : event -> unit;
  telemetry : Telemetry.t option;
  store : Store.t option;
  pack_cache : string option;
}

let builder =
  { search = default; seed = 0; jobs = 1;
    measure = Measure.default; runtime = None; on_event = no_event;
    telemetry = None; store = None; pack_cache = None }

let with_search search r = { r with search }
let with_rounds n r = { r with search = { r.search with max_rounds = n } }
let with_time_budget s r = { r with search = { r.search with time_budget_s = s } }

let with_measure_per_round n r =
  { r with search = { r.search with nmeasure_felix = n; nmeasure_ansor = n } }

let with_seed seed r = { r with seed }
let with_jobs jobs r = { r with jobs = max 1 jobs }
let with_measurer measure r = { r with measure }
let with_runtime rt r = { r with runtime = Some rt }
let with_on_event on_event r = { r with on_event }
let with_telemetry reg r = { r with telemetry = Some reg }
let with_store store r = { r with store = Some store }

(* Like runtime/telemetry/store, the pack-cache directory is process-local
   deployment state, not search identity: it stays out of the JSON codec so
   checkpoints and job specs are unaffected by where (or whether) a host
   caches compiled packs. *)
let with_pack_cache dir r = { r with pack_cache = Some dir }

(* --- JSON codec -------------------------------------------------------------

   One codec shared by the CLI invocation record (run.json), the tuning
   service's wire protocol and the checkpoint identity. Floats cross as
   IEEE-754 bit strings (Store.Bits): a decoded configuration is
   bit-identical to the encoded one, which is what lets a resumed or
   re-submitted run match its checkpoint identity exactly. *)

let search_to_json (cfg : t) =
  let f v = Json.Str (Store.Bits.of_float v) in
  let i v = Json.Num (float_of_int v) in
  Json.Obj
    [ ("nseeds", i cfg.nseeds); ("nsteps", i cfg.nsteps);
      ("nmeasure_felix", i cfg.nmeasure_felix); ("lambda", f cfg.lambda);
      ("gd_lr", f cfg.gd_lr); ("population", i cfg.population);
      ("generations", i cfg.generations); ("nmeasure_ansor", i cfg.nmeasure_ansor);
      ("mutation_prob", f cfg.mutation_prob);
      ("measure_seconds", f cfg.measure_seconds);
      ("felix_round_overhead", f cfg.felix_round_overhead);
      ("ansor_round_overhead", f cfg.ansor_round_overhead);
      ("model_update_seconds", f cfg.model_update_seconds);
      ("max_rounds", i cfg.max_rounds); ("time_budget_s", f cfg.time_budget_s) ]

(* Decoders thread the first missing/mistyped field name out as the error. *)
exception Codec of string

let field j k = match Json.find j k with Some v -> v | None -> raise (Codec k)
let int_field j k = match Json.as_int (field j k) with Some v -> v | None -> raise (Codec k)

let bits_field j k =
  match Option.bind (Json.as_string (field j k)) Store.Bits.to_float with
  | Some v -> v
  | None -> raise (Codec k)

let search_of_json j =
  try
    let i = int_field j and f = bits_field j in
    Ok
      { nseeds = i "nseeds"; nsteps = i "nsteps";
        nmeasure_felix = i "nmeasure_felix"; lambda = f "lambda";
        gd_lr = f "gd_lr"; population = i "population";
        generations = i "generations"; nmeasure_ansor = i "nmeasure_ansor";
        mutation_prob = f "mutation_prob"; measure_seconds = f "measure_seconds";
        felix_round_overhead = f "felix_round_overhead";
        ansor_round_overhead = f "ansor_round_overhead";
        model_update_seconds = f "model_update_seconds";
        max_rounds = i "max_rounds"; time_budget_s = f "time_budget_s" }
  with Codec k -> Error (Printf.sprintf "search config: missing or malformed field %S" k)

let to_json (r : run) =
  Json.Obj
    ([ ("search", search_to_json r.search);
       ("seed", Json.Num (float_of_int r.seed));
       ("jobs", Json.Num (float_of_int r.jobs)) ]
    (* Emitted only when non-default, so run.json, job specs and checkpoint
       identities written by a default (fault-free) run keep the exact
       pre-measurer byte format. *)
    @ (if Measure.config_equal r.measure Measure.default then []
       else [ ("measure", Measure.config_to_json r.measure) ]))

(* The process-local fields (runtime, callback, telemetry, store) have no
   serialised form; a decoded run carries the builder defaults for them and
   the front end re-attaches what it needs. Records written by older
   builds also carry a "batch" field (a descent tile width that no longer
   exists); unknown fields are ignored, so they still decode. *)
let of_json j =
  match Json.find j "search" with
  | None -> Error "run config: missing field \"search\""
  | Some sj -> (
    match search_of_json sj with
    | Error m -> Error m
    | Ok search ->
      (try
         let seed = int_field j "seed" in
         let jobs = int_field j "jobs" in
         let measure =
           match Json.find j "measure" with
           | None -> Ok Measure.default
           | Some mj -> Measure.config_of_json mj
         in
         match measure with
         | Error m -> Error m
         | Ok measure ->
           Ok
             (builder |> with_search search |> with_seed seed |> with_jobs jobs
             |> with_measurer measure)
       with Codec k -> Error (Printf.sprintf "run config: missing or malformed field %S" k)))
