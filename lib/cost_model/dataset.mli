(** Training data for the cost model — the TenSet substitute (DESIGN.md).

    TenSet provides measured (program features, latency) pairs for ~500
    subgraph tasks. Here the tasks are the distinct fused subgraphs of the
    paper's six networks (batch sizes 1 and 16, covering all bottleneck
    operator types), the schedules are random valid samples from each
    task's sketches, and the labels come from the hardware-substitute
    simulator. Targets are scores [-log latency_ms], so higher = faster and
    the scale is comparable across tasks. *)

type sample = {
  features : float array;  (** transformed features, length 82 *)
  target : float;  (** [-log latency_ms] *)
  task_key : string;  (** workload key, for per-task metrics *)
}

type t = { train : sample array; valid : sample array }

val collect_tasks : ?max_tasks:int -> unit -> Compute.subgraph list
(** Distinct subgraphs of the six evaluation networks (batch 1 and 16),
    first-occurrence order, capped at [max_tasks] (default 500, as in the
    paper's TenSet subset). *)

val sample_valid_point : Rng.t -> Pack.t -> int -> float array option
(** Rejection-sample a feasible rounded log-space point (at most the given
    number of attempts). *)

val generate :
  Rng.t ->
  Device.t ->
  ?schedules_per_task:int ->
  ?runtime:Runtime.t ->
  ?cache_dir:string ->
  Compute.subgraph list ->
  sample array
(** Labelled samples for one device; [schedules_per_task] (default 256) is
    split across the task's sketches, mirroring the paper's 512-per-task
    selection at our scale. [runtime] parallelises the per-task pack
    compilation across domains and [cache_dir] reuses compiled packs from
    the persistent cache (see [Pack.prepare_all]); sampling itself stays
    sequential and deterministic, so the output is identical either
    way. Each call adds its rejection-sampling totals — points drawn and
    points that passed the feasibility check — once to the
    [cost_model.dataset_attempts] and [cost_model.dataset_accepted]
    telemetry counters. *)

val split : Rng.t -> ?train_frac:float -> sample array -> t
(** Shuffle and split (default 90% train, Section 5). *)
