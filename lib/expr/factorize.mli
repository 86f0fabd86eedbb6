(** Integer factor utilities for divisibility constraints (Section 3.3).

    Tile sizes must divide the extent of the loop they tile. During gradient
    descent the constraint [N mod x = 0] is relaxed to [y <= ln N] (with
    [x = e^y]); after optimization the real-valued [y] is rounded to the
    nearest [ln N_i] over the divisors [N_i] of [N]. This module provides
    the divisor tables and the rounding, plus divisor-split sampling used by
    the evolutionary baseline's mutation operator. *)

val divisors : int -> int list
(** Sorted divisors of [n >= 1], computed in O(sqrt n) and memoised. *)

type table
(** The divisors of one extent in ascending order, each with its
    logarithm [log (float d)] and its integer image
    [Float.round (exp (log (float d)))], all computed once. *)

val table : int -> table
(** [table n] for [n >= 1], memoised process-wide. Reads take no lock
    (one atomic load and a map lookup), so rounding inside parallel
    workers never contends. *)

val nearest : table -> float -> int
(** Index of the divisor nearest to [x] in log space: the first minimum
    of [|log d - log x|] over the ascending divisors. [x <= 0] gives the
    smallest divisor (index 0); so do [x = nan] and [x = infinity], whose
    distances never compare below the first one. *)

val divisor : table -> int -> int
val log_divisor : table -> int -> float
val integer_value : table -> int -> float
(** The [k]-th divisor, its logarithm and its integer image. *)

val is_divisor : int -> int -> bool
(** [is_divisor d n] is [n mod d = 0] (with [d > 0]). *)

val nearest_divisor : int -> float -> int
(** [nearest_divisor n x] is the divisor of [n] whose logarithm is closest
    to [log x] (log-space rounding as in the paper), with the tie and
    edge-case rules of {!nearest}. *)

val round_log_to_divisor : int -> float -> float
(** [round_log_to_divisor n y] rounds [y] to the nearest [ln d] for a
    divisor [d] of [n]; returns the rounded log value. *)

val split : Rng.t -> int -> int -> int list
(** [split rng n k] samples a uniform-ish random factorisation of [n] into
    [k] positive integer factors whose product is exactly [n]. *)

val num_splits : int -> int -> int
(** Number of ordered factorisations of [n] into [k] factors (search-space
    size accounting, used when reporting the size of a task's space). *)
