(** Feed-forward cost model C (paper Sections 3.4 and 4).

    The TenSet MLP architecture: four linear layers with ReLU in between,
    taking the 82 transformed program features and predicting a scalar
    performance score (we use [-log latency_ms], so higher is faster).
    Parameters live in one flat array so {!Adam} can train them and so the
    model can be serialised for reuse across benchmark runs.

    Two gradient paths are exposed:
    - {!input_gradient}: dC/dinput — composed with the feature tape's VJP
      this differentiates the whole objective of Equation 4;
    - {!train_staged} (and its one-shot form {!train_batch}):
      dLoss/dparams — used for pretraining and for the online update of
      Algorithm 1 (line 24).

    {!forward}, {!input_gradient} and {!param_gradient} are the scalar
    reference implementations, one example per call; the batched kernels
    below are what descent, scoring and training run, and match them
    bitwise. *)

type t

val create : Rng.t -> ?hidden:int list -> n_inputs:int -> unit -> t
(** He-initialised network; default hidden sizes [[256; 256; 256]]
    (about 150K parameters on 82 inputs, the scale of TenSet's model). *)

val n_inputs : t -> int
val num_params : t -> int

val set_normalizer : t -> mean:float array -> std:float array -> unit
(** Input standardisation applied inside {!forward}; estimated from the
    training set. *)

val forward : t -> float array -> float
(** Predicted score (higher = better). *)

val input_gradient : t -> float array -> float * float array
(** [(score, dscore/dinput)] in one forward + backward pass. *)

val param_gradient : t -> (float array * float) array -> float array -> float
(** [param_gradient t batch grads] overwrites [grads] (length
    {!num_params}) with dMSE/dparams of the batch and returns the loss.
    The scalar reference implementation for the batched trainer; exposed
    for the bitwise-equivalence tests. *)

(** {2 Batched (structure-of-arrays) kernels}

    A [batch_workspace] holds feature-major activation/delta planes for up
    to its capacity of feature rows (caller rows stay lane-major), turning
    the per-candidate layer loops into GEMM-shaped kernels that stream
    each weight once per batch instead of once per candidate and run
    vectorised across lanes by default (strict-IEEE C kernels — see
    mlp_stubs.c). Lane [l] of every batched sweep is bitwise-identical to
    the scalar reference ({!forward}, {!input_gradient}) on that row
    alone, at any batch size, on either kernel set.

    The C kernels are register-blocked: each sweep keeps a tile of result
    cells in vector registers across its whole reduction — outputs x
    lanes (forward), inputs x lanes (input deltas), outputs x inputs
    (weight gradient, over a lane-major transpose of the layer's input
    activations, [prevT.(lane * n_in + i)], kept in the workspace). Each
    cell keeps the scalar operation order: bias first, then inputs
    ascending; active outputs ascending; active lanes ascending (the
    scalar example order); no FMA. A zero delta's step is dropped by a
    masked add or a blend, never by adding 0.0, so signed zeros and
    non-finite weights give the same bits too. One source is compiled
    for AVX-512, AVX2 and the SSE2 baseline and the widest supported set
    runs; all three compute the same bits.

    A workspace must match the model it was created from
    ([Invalid_argument] otherwise) and must not be shared by concurrent
    callers; reuse across calls is safe. The C kernels keep all scratch in
    the workspace, so separate workspaces may run on separate domains.
    Bit-identity across kernel sets assumes every NaN in the inputs or
    weights is the one x86 arithmetic produces: IEEE leaves which payload
    an operation on two different NaNs returns to the implementation. *)

val set_vector_kernels : bool -> unit
(** Select the vectorised C kernels ([true], the default) or the portable
    OCaml loops ([false]) for the batched sweeps — both are bit-identical
    per lane; the switch exists for testing and triage. The initial value
    honours [FELIX_NO_SIMD=1] (forces the OCaml loops). *)

val using_vector_kernels : unit -> bool
(** Which batched kernel set is currently selected. *)

type batch_workspace

val batch_workspace : t -> batch:int -> batch_workspace
(** Buffers for up to [batch] lanes ([batch >= 1]). *)

val forward_batch_into :
  t -> batch_workspace -> batch:int -> float array -> scores:float array -> unit
(** [forward_batch_into t bws ~batch xs ~scores] scores lanes
    [0..batch-1]; [xs] holds the feature rows lane-major
    ([xs.(l * n_inputs + i)]), predictions land in [scores.(l)]. *)

val input_gradient_batch_into :
  t ->
  batch_workspace ->
  batch:int ->
  float array ->
  grads:float array ->
  scores:float array ->
  unit
(** Lockstep {!input_gradient}: overwrites the first [batch]
    lane-major rows of [grads] with each lane's dscore/dinput and
    [scores.(l)] with its prediction. *)

val param_gradient_batch_into :
  t ->
  batch_workspace ->
  batch:int ->
  xs:float array ->
  targets:float array ->
  float array ->
  float
(** Lockstep {!param_gradient} over lane-major rows: overwrites the
    (flat, {!num_params}-wide) gradient and returns the MSE loss.
    Bitwise-identical to the scalar example loop — weight cells accumulate
    their active lanes in example order, input deltas their outputs in
    ascending order. On the C kernels the whole reverse sweep (ReLU mask,
    weight and bias gradients, input deltas) runs in mlp_stubs.c; the
    weight gradient's lane-major transpose plane is sized on first use
    (batch capacity times the widest layer input, plus 8 doubles of
    padding that the edge tiles read) and then kept in the workspace. *)

val train_batch : t -> Adam.t -> (float array * float) array -> float
(** One Adam step on the mean-squared-error of the batch
    [(features, target_score)]; returns the batch loss (before the
    step). Runs on the batched kernels through a fresh workspace:
    {!stage_example} on each row, then {!train_staged}. Repeated steps
    should stage into one reused workspace instead. *)

val stage_example : batch_workspace -> int -> float array -> float -> unit
(** [stage_example bws l x target] copies example [l] (features [x],
    target score [target]) into the workspace's staging rows, for the
    next {!train_staged} step. Staged rows survive training steps. *)

val train_staged : t -> Adam.t -> batch_workspace -> batch:int -> float
(** One Adam step on staged examples [0..batch-1]; returns the batch loss
    (before the step). The gradient vector lives in the workspace, so a
    reused workspace makes each step allocation-free. *)

val adam_for : ?lr:float -> t -> Adam.t
(** Fresh optimiser state sized for this model's parameters. *)

val copy : t -> t
(** Deep copy (the tuners fine-tune a private copy per run). *)

(** {2 Versioned persistence}

    One [Store.Artifact] envelope (kind ["felix-mlp"], schema version 1);
    weights and the input normaliser are IEEE-754 bit strings, so a saved
    model reloads bit-identically. *)

val to_json : t -> Json.t
val of_json : Json.t -> t option
(** Payload codec, shared with the tuning-store checkpoints. *)

val save_file : t -> string -> (unit, Store.error) result
val load_file : string -> (t, Store.error) result
