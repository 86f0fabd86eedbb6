(** Felix's gradient-descent schedule search — Algorithm 1's search core.

    For every sketch of a subgraph, optimise [nseeds] randomly-initialised
    schedule-variable vectors in log space with Adam, minimising Equation 4:

    O(y) = sum_i ( -C(Feat_i(y_i)) + lambda * sum_r max(g_ir(y_i), 0)^2 )

    Every point visited during descent is rounded to a valid concrete
    schedule (divisor rounding, Section 3.3) and collected; the best
    [nMeasure] by predicted performance are handed back for hardware
    measurement. *)

type candidate = {
  pack : Pack.t;
  y : float array;  (** rounded log-space point (valid concrete schedule) *)
  key : string;  (** schedule identity, for deduplication *)
  predicted : float;  (** cost-model score at the rounded point *)
}

type trace = {
  steps_done : int;  (** gradient steps actually executed *)
  predictions : float list;  (** predicted score of every schedule visited,
                                 in visit order (for Figure 8) *)
}

val search_round :
  Tuning_config.t ->
  Rng.t ->
  ?runtime:Runtime.t ->
  Mlp.t ->
  Pack.t list ->
  already_measured:(string -> bool) ->
  candidate list * trace
(** One Felix round over the subgraph's sketches. Returns the top
    [nmeasure_felix] new candidates sorted by predicted performance
    (best first), plus the search trace. Descents and predictions run
    through the batched kernels in same-pack tiles ({!Objective.map_tiles});
    with [runtime], they fan out across domains. The RNG is consumed
    in the sequential order and every lane is bitwise a lone descent, so
    the result is the same at any domain count and tile split. *)

val descend_batch :
  Tuning_config.t ->
  ?runtime:Runtime.t ->
  Mlp.t ->
  Pack.t ->
  float array array ->
  (float array * float) list array
(** Adam descent of a population of seeds of one pack, minimising
    Equation 4: [descend_batch cfg model pack y0s] returns one trajectory
    [(y, objective)] per seed, in order — [nsteps + 1] points, the last
    one after the final step. Seeds run in lockstep tiles
    ({!Objective.map_tiles}; across domains with [runtime]); trajectory
    [l] is bitwise-identical to descending seed [l] alone. Exposed for
    tests, examples and the ablation benchmarks. *)
