(** Batched evaluation of the descent objective (Equation 4)

    [O(y) = -C(Feat(y)) + lambda * sum_r max(g_r(y), 0)^2]

    and its gradient, over one tile of candidates of one pack. An
    [Objective.t] binds a cost model to a pack and owns one pre-sized
    batch workspace (compiled tape plans, MLP activation planes, gradient
    accumulators), so each {!value_grad_batch} runs two plan forwards, two
    plan backwards and one MLP forward/backward over the whole tile with
    zero inner-loop allocation. All matrices are lane-major rows.

    Lane [l] is bitwise-identical to the scalar reference composition
    ({!Pack.features_at}, {!Mlp.input_gradient}, {!Pack.features_vjp},
    {!Pack.penalty_value_grad}) on that candidate alone, at any tile width
    and domain count, on either kernel set.

    Ownership: a [t] must not be shared by concurrent callers; reuse
    across calls is safe, because every buffer is rewritten before it is
    read. {!map_tiles} creates one per chunk of work. *)

type t

val create : batch:int -> Mlp.t -> Pack.t -> t
(** Workspace for tiles of up to [batch] candidates ([batch >= 1]). *)

val pack : t -> Pack.t

val value_grad_batch :
  t -> lambda:float -> batch:int -> float array -> grads:float array -> objs:float array -> unit
(** [value_grad_batch t ~lambda ~batch ys ~grads ~objs]: [ys] holds the
    points as lane-major [batch * num_vars] rows; overwrites row [l] of
    [grads] with dO/dy of lane [l] and [objs.(l)] with O(y_l). *)

val predict_batch : t -> batch:int -> float array -> scores:float array -> unit
(** Model score C(Feat(y)) of each lane-major point row; fills
    [scores.(l)], bitwise [Mlp.forward model (Pack.features_at pack y_l)]. *)

(** {2 Tiling}

    Descent and scoring split their candidates into same-pack tiles. The
    width is not a setting: each pack's [n] points split into
    [min d n] contiguous chunks for a [d]-domain runtime (one chunk
    without a runtime), and each chunk runs in tiles of at most 32
    points through one workspace it owns for its whole life. Results
    never depend on the tiling. *)

val map_tiles :
  ?runtime:Runtime.t ->
  Mlp.t ->
  ('a -> Pack.t) ->
  'a array ->
  (t -> 'a array -> 'b array) ->
  'b array
(** [map_tiles ?runtime model pack_of items f] groups [items] by pack
    (physical equality, in order of first appearance), splits each group
    into chunks as above — run across the runtime's domains when given —
    and calls [f obj tile] on every tile of a chunk, in item order, where
    [obj] is the chunk's objective for that pack with capacity at least
    [Array.length tile]. [f] must return one result per tile item;
    [map_tiles] returns the per-item results in the order of [items]. *)

val predict_all :
  ?runtime:Runtime.t -> Mlp.t -> ('a -> Pack.t * float array) -> 'a array -> float array
(** Score every item's point [(pack, y)] through {!predict_batch} in
    {!map_tiles} tiles; one score per item, in order. *)
