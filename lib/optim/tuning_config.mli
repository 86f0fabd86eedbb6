(** Search parameters, the consolidated run configuration, and the simulated
    tuning-time accounting.

    Search defaults follow the paper's Section 5: Felix runs 8 seeds x 200
    Adam steps and measures 16 candidates per round; Ansor runs an
    evolutionary search and measures 64 per round. The paper's Ansor
    population is 2048 x 4 generations; we default to 512 x 4 — a
    documented scale-down that keeps the harness CPU time tractable while
    preserving the predictions-per-round ratio between the two tuners
    (see DESIGN.md).

    Tuning time is simulated: every measured candidate costs compile +
    run time, and each round pays the search's own overhead (gradient
    descent for Felix; population scoring and genetic operators for Ansor)
    plus the cost-model update. The constants are calibrated to the
    end-to-end round times reported for TVM-based tuners. *)

type t = {
  (* Felix (Algorithm 1) *)
  nseeds : int;  (** schedules optimised simultaneously (default 8) *)
  nsteps : int;  (** gradient descent steps (default 200) *)
  nmeasure_felix : int;  (** hardware measurements per round (default 16) *)
  lambda : float;  (** penalty coefficient of Equation 4 *)
  gd_lr : float;  (** Adam learning rate over schedule variables *)
  (* Ansor baseline *)
  population : int;  (** evolutionary population size (default 512) *)
  generations : int;  (** default 4 *)
  nmeasure_ansor : int;  (** default 64 *)
  mutation_prob : float;
  (* simulated time accounting (seconds) *)
  measure_seconds : float;  (** compile + run per measured candidate *)
  felix_round_overhead : float;
  ansor_round_overhead : float;
  model_update_seconds : float;
  (* stopping *)
  max_rounds : int;  (** total rounds across all subgraph tasks *)
  time_budget_s : float;  (** stop when the simulated clock passes this *)
}

val default : t

val quick : t
(** Reduced effort for tests and fast harness runs. *)

(** Simulated wall clock of a tuning session. *)
module Clock : sig
  type clock

  val create : unit -> clock
  val now : clock -> float
  val advance : clock -> float -> unit

  val set : clock -> float -> unit
  (** Restore an absolute clock value (tuning-store resume). *)
end

(** {1 Engines and tuning events}

    Defined here (rather than in [Tuner]) so the run configuration can
    carry an event callback; [Tuner] re-exports them under the same
    constructor names. *)

type engine = Felix | Ansor | Random

val engine_name : engine -> string
(** Paper display name, e.g. ["Ansor-TenSet"]. *)

val engine_id : engine -> string
(** Stable lowercase identifier (["felix"], ["ansor"], ["random"]) used by
    CLI flags, invocation records and the tuning service's wire protocol. *)

val engine_of_id : string -> engine option
(** Inverse of {!engine_id} (case-insensitive, whitespace-trimmed). *)

type budget_reason = Round_limit | Time_limit

val budget_reason_name : budget_reason -> string

type event =
  | Tuning_started of {
      network : string;
      device_name : string;
      engine : engine;
      n_tasks : int;
    }
      (** Emitted once, before the initial measurement round. *)
  | Round_started of { round : int; task_id : int; subgraph : string; sim_clock_s : float }
  | Candidates_measured of {
      round : int;
      task_id : int;
      proposed : int;  (** candidates the search engine proposed *)
      measured : int;  (** actually measured (deduplicated) *)
      sim_clock_s : float;
    }
  | Task_improved of {
      round : int;
      task_id : int;
      subgraph : string;
      before_ms : float;
      after_ms : float;
    }  (** The task's best latency improved this round. *)
  | Model_updated of { round : int; samples : int; loss : float }
      (** Cost model fine-tuned on freshly measured pairs. *)
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

val no_event : event -> unit
(** Callback that ignores every event. *)

(** {1 Consolidated run configuration}

    One record carries everything a tuning entry point needs — search
    parameters, seed, parallelism and observability hooks — built with
    [|>]-style combinators:

    {[
      Tuning_config.(builder |> with_rounds 24 |> with_seed 7 |> with_jobs 4)
      |> fun run -> Tuner.run run device model graph Tuner.Felix
    ]} *)

type run = {
  search : t;  (** search parameters (see above) *)
  seed : int;  (** RNG seed; every run is bit-reproducible from it *)
  jobs : int;
      (** domain parallelism; [> 1] without an explicit [runtime] makes the
          tuner create (and shut down) a runtime of that many domains *)
  measure : Measure.config;
      (** measurement policy: per-request deadline, retry/backoff and
          optional deterministic fault injection (see [lib/measure]). The
          default injects nothing and is bitwise-inert: tuner output is
          identical to pre-measurer code. Unlike the process-local fields
          below, this {e is} search identity — it participates in the JSON
          codec and checkpoint identity (emitted only when non-default, so
          default artifacts keep their byte format). *)
  runtime : Runtime.t option;
      (** explicit runtime to share across runs; overrides [jobs] *)
  on_event : event -> unit;
  telemetry : Telemetry.t option;  (** defaults to [Telemetry.global] *)
  store : Store.t option;
      (** durable tuning store: measurements are journaled and the run
          checkpointed every round; an interrupted matching run resumes
          bit-identically and completed prior runs warm-start this one
          (see {!Tuner.run}) *)
  pack_cache : string option;
      (** persistent compilation-cache directory handed to
          [Pack.prepare]: compiled packs are stored content-addressed and
          reused across runs and processes, bitwise-identically to a cold
          compile *)
}

val builder : run
(** Starting point: [default] search, seed 0, sequential, no observers. *)

val with_search : t -> run -> run
val with_rounds : int -> run -> run
(** Sets [search.max_rounds]. *)

val with_time_budget : float -> run -> run
(** Sets [search.time_budget_s]. *)

val with_measure_per_round : int -> run -> run
(** Sets the per-round measurement budget ([nmeasure_felix] and
    [nmeasure_ansor]). *)

val with_seed : int -> run -> run
val with_jobs : int -> run -> run
(** Clamped to [>= 1]. *)

val with_measurer : Measure.config -> run -> run
(** Measurement policy (deadline, retries, chaos); validated by
    [Tuner.validate] into the typed [Invalid_config] error path. *)

val with_runtime : Runtime.t -> run -> run
val with_on_event : (event -> unit) -> run -> run
val with_telemetry : Telemetry.t -> run -> run

val with_store : Store.t -> run -> run
(** Journal every measurement to [store], checkpoint each round, resume
    an interrupted matching run bit-identically, and warm-start fresh
    runs from completed prior records. *)

val with_pack_cache : string -> run -> run
(** Cache compiled feature/penalty packs under this directory (see
    [Pack.prepare]). Process-local deployment state like [store] and
    [runtime]: not part of the JSON codec, so checkpoint identity and job
    specs are unchanged by it. *)

(** {1 JSON codec}

    One serialised form of a run configuration, shared by the CLI's
    invocation record ([run.json] in a store directory), the tuning
    service's wire protocol and the tuner's checkpoint identity. Floats
    are encoded as IEEE-754 bit strings ([Store.Bits]), so
    [of_json (to_json r)] reconstructs [search], [seed], [jobs] and
    [measure] bit-identically — which is what lets a resumed or
    re-submitted run match its checkpoint identity exactly. [of_json]
    ignores fields it does not know, such as the ["batch"] descent width
    that records written by older builds carry.

    The process-local fields ([runtime], [on_event], [telemetry],
    [store]) have no serialised form: [to_json] omits them and [of_json]
    leaves them at the {!builder} defaults for the front end to
    re-attach. *)

val search_to_json : t -> Json.t
val search_of_json : Json.t -> (t, string) result
(** [Error] names the first missing or malformed field. *)

val to_json : run -> Json.t
val of_json : Json.t -> (run, string) result
