(** Plain-text export of tuning results.

    The benchmark harness and the CLI write each run's progress curve as
    CSV (one row per round: simulated seconds, best network latency) and
    a versioned JSON result artifact (final latency, per-task winners and
    variable assignments) so results can be plotted, diffed or reloaded
    outside the process.

    Result files share the {!Store.Artifact} envelope with every other
    persistent Felix artifact (cost models, compiled networks, store
    checkpoints): [{"felix":{"kind":...,"version":...},"payload":...}].
    The JSON writer emits shortest-round-trip numbers, so every float
    read back from a result file is bit-identical to the one written. *)

val curve_to_csv : Tuner.result -> string
(** Header ["time_s,latency_ms"] plus one row per recorded round. *)

val result_json : Tuner.result -> Json.t
(** The result's payload object (run metadata, curve and per-task
    results), without the artifact envelope. *)

val result_to_json : Tuner.result -> string
(** [result_json] pretty-printed. *)

val write_curve_csv : Tuner.result -> string -> (unit, Store.error) result
(** Atomically write {!curve_to_csv} ({!Store.write_atomic}). *)

(** {2 Versioned result artifact} *)

val result_kind : string
val result_version : int

type saved_task = {
  st_subgraph : string;
  st_weight : int;
  st_best_latency_ms : float;
  st_sketch : string;
  st_rounds : int;
  st_measurements : int;
  st_assignment : (string * int) list;
}

type saved_result = {
  sr_network : string;
  sr_device : string;
  sr_engine : string;  (** engine display name, e.g. ["Felix"] *)
  sr_final_latency_ms : float;
  sr_total_measurements : int;
  sr_curve : (float * float) list;  (** (simulated seconds, latency ms) *)
  sr_tasks : saved_task list;
}
(** What a result file persists. Live [Partition.task] values are not
    serialised — a reloaded result carries the per-task summaries
    instead of the original {!Tuner.task_result} list. *)

val save_result : Tuner.result -> string -> (unit, Store.error) result
(** Atomically write the result as a versioned artifact. *)

val load_result : string -> (saved_result, Store.error) result

(** The shared JSON writer/parser, re-exported from [lib/util] under the
    historical [Export.Json] path. *)
module Json = Json
