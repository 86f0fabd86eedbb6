(** Cost-model pretraining and evaluation (paper Section 5).

    One model is trained per target device, once, and reused for every
    network — the key property that separates Felix from MindMappings
    (Section 7). *)

type metrics = {
  mse : float;
  spearman : float;  (** rank correlation over the whole validation set *)
  per_task_spearman : float;  (** mean of per-task rank correlations *)
  n_samples : int;
}

val normalizer_of : Dataset.sample array -> float array * float array
(** Per-feature mean and standard deviation. *)

val pretrain :
  Rng.t ->
  ?hidden:int list ->
  ?epochs:int ->
  ?batch_size:int ->
  ?lr:float ->
  Dataset.t ->
  Mlp.t * metrics
(** Train from scratch; returns the model and validation metrics.
    Defaults: hidden [192;192;192], 8 epochs, batch 256, lr 1e-3. Each
    epoch emits one [cost_model.epoch] telemetry event with attributes
    [epoch], [minibatches] and [mean_loss] (the mean of the epoch's
    minibatch losses, each taken before its Adam step). *)

val evaluate : Mlp.t -> Dataset.sample array -> metrics

val pretrained_for_device :
  ?cache_dir:string -> ?seed:int -> Device.t -> Mlp.t
(** End-to-end: collect tasks, generate the dataset on the device's
    simulator, train, and cache the result under
    [cache_dir/costmodel_<device>.json] (default ["_artifacts"]; spaces and
    slashes in the device name become underscores). Subsequent calls load
    the cache. A model that cannot be cached is logged as a warning
    ({!cache_model}); the call still returns it. The dataset pass adds its
    rejection-sampling totals to the [cost_model.dataset_attempts] and
    [cost_model.dataset_accepted] counters. *)

val model_path : cache_dir:string -> Device.t -> string
(** [cache_dir/costmodel_<device>.json], the file
    {!pretrained_for_device} loads and writes. *)

val cache_model : cache_dir:string -> Device.t -> Mlp.t -> unit
(** Saves the model at {!model_path}, creating [cache_dir] and its
    missing parents. A failure is logged with [Logs.warn] (naming the
    path and the store error) and otherwise ignored. *)
