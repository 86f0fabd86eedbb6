(** Ansor's evolutionary search (the paper's baseline, Section 5).

    Same sketches, same search space, same cost model as the gradient
    tuner — only the decision algorithm differs, mirroring the Ansor-TenSet
    setup: a population evolves for a fixed number of generations under
    cost-model-predicted fitness, with elite retention, divisor-respecting
    crossover and mutation; the top predicted individuals are measured on
    hardware each round. *)

type individual = {
  pack : Pack.t;
  y : float array;  (** valid rounded log-space point *)
  key : string;
  predicted : float;
}

type trace = { evaluated : int; predictions : float list }

val search_round :
  Tuning_config.t ->
  Rng.t ->
  ?runtime:Runtime.t ->
  Mlp.t ->
  Pack.t list ->
  elites:(Pack.t * float array) list ->
  already_measured:(string -> bool) ->
  individual list * trace
(** One evolutionary round. [elites] seeds part of the initial population
    with the best schedules measured so far (Ansor's warm start). Returns
    the top [nmeasure_ansor] unmeasured individuals, best first.
    Population scoring (the cost-model forwards) runs through the batched
    kernels in same-pack tiles ({!Objective.predict_all}); with [runtime],
    the tiles fan out across domains. Genetic operators keep drawing from
    [rng] in sequential order and each lane is bitwise the scalar
    prediction, so the result is the same at any domain count and tile
    split. *)

val mutate : Rng.t -> Pack.t -> float array -> float array option
(** Divisor-respecting mutation of one variable group; [None] when the
    mutated point fails validation. *)

val crossover : Rng.t -> Pack.t -> float array -> float array -> float array option
(** Uniform crossover at variable-group granularity. *)
