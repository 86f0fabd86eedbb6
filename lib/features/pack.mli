(** Differentiable objective ingredients for one symbolic program.

    [prepare] assembles everything Algorithm 1 needs for a (subgraph,
    symbolic schedule) pair:

    + extract the 82 raw feature formulas ({!Extract});
    + rewrite non-differentiable operators to their smooth forms
      ({!Smooth}, paper Section 3.3);
    + apply the gradient-stability transform: [log(1 + f)] on each feature
      and the substitution [x = e^y] on every schedule variable, so the
      optimiser works in log-space [y];
    + compile features and constraint-penalty margins into reverse-mode
      tapes ({!Autodiff.Tape});
    + keep the divisibility groups for post-optimisation factor rounding.

    All tape inputs are the log-space variables [y] in the order of
    {!var_names}. *)

type t

val prepare :
  ?width:float ->
  ?optimize:bool ->
  ?cache_dir:string ->
  Compute.subgraph ->
  Schedule.t ->
  t
(** [width] is the smoothing-kernel width of Section 3.3 (default 1.0);
    exposed for the ablation benchmarks. [optimize] (default [true]) runs
    the bit-exact tape optimiser on the compiled tapes and reports the
    before/after slot counts on the [features.tape_slots_{pre,post}]
    telemetry counters; disabling it reproduces the raw tapes (same
    results bitwise, more instructions — kept for benchmark baselines).

    [cache_dir] (default {!disk_cache}, i.e. the [FELIX_PACK_CACHE]
    environment variable) enables the persistent compilation cache: the
    compiled tapes and their superop plans ({!Autodiff.Tape.compile_plan})
    are stored content-addressed under the directory, keyed
    by the subgraph's canonical workload key, the schedule fingerprint,
    [width]/[optimize] (exact bits) and the pack schema version. A hit
    skips the rewrite/compile pipeline and is bitwise-identical to a fresh
    compile; a corrupt or foreign entry is recompiled (and rewritten),
    never a crash. Wall-clock per call is observed on the
    [felix.prepare_ms] telemetry histogram either way. *)

val prepare_cached :
  ?width:float ->
  ?optimize:bool ->
  ?cache_dir:string ->
  Compute.subgraph ->
  Schedule.t ->
  t
(** {!prepare} memoised in a process-wide LRU keyed by
    [Compute.workload_key], the sketch name, [width] (exact bits) and
    [optimize]. Packs are immutable, so cached instances are safe to share
    across domains and tuning runs; equal workloads (e.g. repeated
    operators in a network) compile their tapes once. LRU misses fall
    through to {!prepare} (and hence the disk cache, when enabled). *)

val prepare_all :
  ?width:float ->
  ?optimize:bool ->
  ?cache_dir:string ->
  ?runtime:Runtime.t ->
  (Compute.subgraph * Schedule.t) list ->
  t list
(** Batch {!prepare_cached} over independent (subgraph, sketch) pairs, in
    order. With [runtime], cold compilations fan out across the pool's
    domains (the rewriter and simplifier keep per-domain state, so this is
    safe); results are position-stable and bitwise-identical to the
    sequential path. *)

val clear_memory_cache : unit -> unit
(** Drop every entry of the process-wide LRU (disk entries are untouched).
    Tests use this to simulate a fresh process against a warm disk
    cache. *)

(** {2 Persistent disk cache} *)

val set_disk_cache : string option -> unit
(** Set (or disable, with [None]) the process-default cache directory used
    when [?cache_dir] is not passed. Initialised from the
    [FELIX_PACK_CACHE] environment variable. *)

val disk_cache : unit -> string option

val disk_counters : unit -> (string * int) list
(** Process-lifetime disk-cache activity:
    [["disk_hits"; "disk_misses"; "disk_writes"; "disk_errors"]]. The same
    numbers are exported as [features.pack_cache_disk_*] telemetry
    counters when the global registry is enabled. *)

val disk_cache_stats : string -> (string * int) list
(** [["entries"; "bytes"]] for the cache entries currently in a
    directory. A missing directory counts as empty. *)

val clear_disk_cache : string -> int
(** Delete every cache entry in the directory (only files matching the
    [pack-*.json] naming scheme); returns how many were removed. *)

val digest : t -> string
(** Stable hex digest of the pack's observable content (serialized tapes,
    variable order, bounds bits, divisibility groups). Two packs with
    equal digests evaluate bitwise-identically; the benchmarks and tests
    use this to prove cold, parallel and disk-warm compilations equal. *)

val schedule : t -> Schedule.t
val program : t -> Loop_ir.t

val var_names : t -> string array
(** Order of the tape inputs. *)

val num_vars : t -> int

val bounds_log : t -> (float * float) array
(** Per-variable [ln lo, ln hi] box; initial seeds are drawn inside it. *)

val features_at : t -> float array -> float array
(** Transformed (smoothed, log-scaled) feature vector at [y]; length 82. *)

val features_vjp : t -> float array -> float array -> float array * float array
(** [(features, dy)] where [dy] is the gradient of [sum_k adj_k * feat_k]
    with respect to [y]. *)

val penalty_value_grad : t -> float array -> float * float array
(** [(sum_r max(g_r, 0)^2, gradient)] — the penalty term of Equation 4
    (without the lambda factor), where [g_r(y)] are the smoothed
    constraint margins (the schedule is feasible when all are [<= 0]).
    Scalar interpreter; the reference for
    {!penalty_value_grad_batch_into}. *)

val num_penalties : t -> int

val feature_plan : t -> Autodiff.Tape.Plan.t
(** The compiled superop plan of the feature tape (fusion statistics for
    the bench harness; the batch workspaces execute it). *)

val penalty_plan : t -> Autodiff.Tape.Plan.t

(** {2 Batch workspaces}

    A [batch_workspace] runs both compiled plans
    ({!Autodiff.Tape.compile_plan}) over up to its capacity of candidates
    in lockstep; lane [l] of every sweep is bitwise-identical to the
    scalar interpreter ({!features_at}, {!features_vjp},
    {!penalty_value_grad}) on that candidate alone, at any batch size and
    on either kernel set ({!Autodiff.Tape.set_vector_kernels}). All
    matrices are lane-major rows ([a.(l * k + i)] is component [i] of
    candidate [l]). One workspace per concurrent evaluator (never shared
    across domains mid-call); arrays returned by {!features_forward_batch}
    are workspace-owned and valid until the next call; reuse across calls
    is safe because every buffer is rewritten before it is read. *)

type batch_workspace

val batch_workspace : t -> batch:int -> batch_workspace
(** Buffers for up to [batch] lanes ([batch >= 1]). *)

val features_forward_batch :
  t -> batch_workspace -> batch:int -> float array -> float array
(** Lockstep {!features_at} over the lane-major point rows of [ys];
    returns the workspace-owned [batch * 82] lane-major feature matrix
    (do not retain). Intermediate values are kept for
    {!features_backward_batch}. *)

val features_backward_batch :
  t -> batch_workspace -> batch:int -> float array -> float array -> unit
(** [features_backward_batch t bws ~batch adj grads] seeds each lane's
    feature adjoints from the lane-major rows of [adj] and overwrites the
    first [batch] lane-major rows of [grads] with the y-gradients. *)

val penalty_value_grad_batch_into :
  t ->
  batch_workspace ->
  batch:int ->
  float array ->
  grads:float array ->
  values:float array ->
  unit
(** Lockstep {!penalty_value_grad}: per lane, overwrites row [l] of
    [grads] with the penalty gradient and [values.(l)] with the penalty
    value. *)

val cache_stats : unit -> (string * int) list
(** Counters of the process-wide {!prepare_cached} LRU:
    [["hits"; "misses"; "evictions"; "entries"]]. The same numbers are
    exported through the [features.pack_cache_*] telemetry instruments. *)

val round_to_valid : t -> float array -> float array option
(** Round log-space values to the nearest divisor assignment (Section 3.3's
    factor rounding) and check the original integer constraints; [None] if
    the rounded point is infeasible. The result is a valid concrete
    schedule's log-space image.

    The check is compiled: each pack turns its raw constraints into
    closures over the integer point, indexed by variable position
    ({!Eval.compile_cond}), once when it is built or loaded from disk, and
    rounding reads lock-free per-extent divisor tables
    ({!Factorize.table}). Results are bitwise those of interpreting the
    constraints with {!Eval.eval_cond} over a name-keyed environment and
    taking the first log-space minimum over the divisor list, including
    [Eval.Unbound_variable] for a constraint name that is not a variable.
    Thread-safe; allocates only the result and one scratch array. *)

val assignment : t -> float array -> (string * int) list
(** Integer variable assignment corresponding to (rounded) [y]. *)

val env_of : t -> float array -> Eval.env
(** Concrete evaluation environment [x = e^y] for the raw program
    expressions (used by the hardware simulator). *)

val schedule_key : t -> float array -> string
(** Stable identity of the concrete schedule at rounded [y] (for
    deduplicating measurements). *)
