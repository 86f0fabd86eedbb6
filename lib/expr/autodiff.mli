(** Automatic differentiation of expressions.

    Two engines are provided:

    - {!diff}: symbolic differentiation, returning a new expression. Used in
      tests and for inspecting derivative formulas; applies subgradient
      conventions to non-smooth operators.
    - {!module:Tape}: a compiled reverse-mode engine. A list of expressions
      sharing input variables is compiled once into a common-subexpression-
      eliminated instruction tape, which runs two ways:
      {ul
      {- {!Tape.eval} / {!Tape.vjp}: the scalar interpreter, one point per
         call. It is the reference oracle the tests compare against, and
         serves low-volume feature evaluation (dataset labelling, model
         updates).}
      {- {!Tape.compile_plan} and the [plan_*_batch_into] sweeps: the
         compiled superop plan, run over a tile of points in lockstep.
         This is the only executor of the gradient-descent optimizer
         (Algorithm 1) and of candidate scoring: per step it needs one
         tape evaluation of the 80+ feature formulas plus one VJP with the
         cost model's input-gradient as the adjoint vector, for every
         seed of the tile. Each lane is bitwise-identical to {!Tape.vjp}
         on that point alone.}} *)

val diff : Expr.t -> string -> Expr.t
(** [diff e x] is the partial derivative de/dx as an expression.
    Non-smooth operators get subgradients: [d|x| = select(x >= 0, 1, -1)],
    [d max(a,b)] follows the larger branch, [d select] differentiates the
    taken branch. *)

val gradient : Expr.t -> (string * Expr.t) list
(** Symbolic gradient with respect to all free variables. *)

(** Compiled expression tapes. *)
module Tape : sig
  type t

  val compile : ?optimize:bool -> inputs:string list -> Expr.t list -> t
  (** [compile ~inputs exprs] compiles the expressions against the given
      input ordering. Raises [Invalid_argument] if an expression mentions a
      variable not listed in [inputs]. Common subexpressions across all
      [exprs] are shared. Unless [optimize:false], the post-compile
      optimiser ({!optimize}) runs on the result. *)

  val num_inputs : t -> int
  val num_outputs : t -> int

  val length : t -> int
  (** Number of tape instructions (after CSE); exposed for tests. *)

  (** {2 Post-compile optimiser}

      Constant folding, duplicate-constant merging (keyed by bit pattern),
      bit-exact copy propagation (x*1, x/1, x-(+0.0), min/max(x,x), selects
      with constant conditions or equal branches, -(-x); each applied only
      when the source slot has no other consumer), and dead-slot
      elimination with liveness-based renumbering. Every rewrite preserves
      {!eval} and {!vjp} results bitwise, including the order of float
      adjoint accumulation. *)

  type opt_report = {
    slots_pre : int;
    slots_post : int;
    folded : int;  (** instructions that became constants *)
    aliased : int;  (** copy-like instructions redirected to their source *)
    dead : int;  (** slots removed by dead-code elimination *)
  }

  val optimize : t -> t
  val optimize_report : t -> t * opt_report

  (** {2 Bit-exact serialization}

      Codec for the persistent pack cache: constants cross as 16-hex-char
      IEEE-754 bit strings, so a decoded tape evaluates bitwise-identically
      to the encoded one (signed zeros and NaN payloads included). *)

  val to_json : t -> Json.t

  val of_json : Json.t -> t option
  (** [None] on any malformed or structurally invalid payload (bad opcode,
      out-of-range or forward slot reference, bad float bits) — a corrupt
      cache entry decodes to [None], never a crash. *)

  val eval : t -> float array -> float array
  (** [eval t xs] returns the outputs; [Array.length xs] must equal
      [num_inputs t]. *)

  val vjp : t -> float array -> float array -> float array * float array
  (** [vjp t xs v] returns [(outputs, grad)] where
      [grad.(i) = d(sum_k v.(k) * out_k) / d xs.(i)] — one forward plus one
      reverse sweep. *)

  val jacobian : t -> float array -> float array * float array array
  (** [(outputs, jac)] with [jac.(k).(i) = d out_k / d x_i]; one shared
      forward pass followed by [num_outputs] reverse sweeps. *)

  (** {2 Compiled superop plans}

      {!compile_plan} lowers a tape into a flat superop program: chains of
      two adjacent elementwise ops fused into single superops, constants
      pooled into pre-broadcast arena planes, and slot lifetimes analysed
      so values reuse a compact register arena. {!plan_forward_batch_into}
      and {!plan_backward_batch_into} execute one whole superop across all
      lanes per dispatch — through strict-IEEE C kernels (tape_stubs.c) or
      the portable OCaml kernels ({!set_vector_kernels}) — and are
      bitwise-identical, lane for lane, to {!eval} / {!vjp} at every batch
      size: operand order, the zero-adjoint guard and the order of adjoint
      accumulation are part of the plan, not of the kernel. The one
      exception is the sign and payload of a NaN result, which IEEE leaves
      unspecified and a compiler may change by commuting an operation on
      two NaNs; no operation lets it reach a non-NaN value. *)

  module Plan : sig
    type t

    val num_inputs : t -> int
    val num_outputs : t -> int

    val source_ops : t -> int
    (** Non-constant, non-input tape instructions before fusion. *)

    val superops : t -> int
    (** Superops after fusion ([source_ops - fused_pairs]). *)

    val fused_pairs : t -> int

    (** Bit-exact serialization for the persistent pack cache — same
        contract as {!Tape.to_json}/{!Tape.of_json}: constants cross as
        16-hex-char IEEE-754 bit strings, [of_json] returns [None] on any
        malformed or structurally invalid payload (bad opcode,
        out-of-range register), never a crash. *)

    val to_json : t -> Json.t
    val of_json : Json.t -> t option
  end

  val compile_plan : t -> Plan.t

  val plan_compiles : unit -> int
  (** Process-lifetime count of {!compile_plan} calls (tests use this to
      prove a warm cache hit skipped plan compilation). *)

  val set_vector_kernels : bool -> unit
  (** Select the C superop kernels ([true], the default) or the portable
      OCaml kernels ([false]). Initialised to [false] when the
      [FELIX_NO_SIMD] environment variable is [1]/[true]/[yes]. Both
      produce bit-identical results; the toggle exists for platforms
      without the stubs' ISA assumptions and for differential testing. *)

  val using_vector_kernels : unit -> bool

  type plan_batch_workspace
  (** Register arena (value, adjoint and output planes) for one plan.
      Constant planes are broadcast once at creation. One workspace per
      concurrent evaluator (never shared across domains mid-call); reuse
      across calls is safe, because every plane is rewritten before it is
      read. *)

  val plan_batch_workspace : Plan.t -> batch:int -> plan_batch_workspace
  (** Buffers for up to [batch] lanes ([batch >= 1]). *)

  val plan_forward_batch_into :
    Plan.t -> plan_batch_workspace -> batch:int -> float array -> float array
  (** [plan_forward_batch_into p pw ~batch xs] evaluates lanes
      [0..batch-1]; [xs] holds the points as lane-major rows
      ([xs.(l * num_inputs + i)]; rows beyond [batch] are ignored).
      Returns the workspace-owned lane-major output matrix
      [out.(l * num_outputs + k)] (do not retain). Pinned intermediate
      planes are kept for {!plan_backward_batch_into}. *)

  val plan_backward_batch_into :
    Plan.t -> plan_batch_workspace -> batch:int -> float array -> float array -> unit
  (** [plan_backward_batch_into p pw ~batch v grad] seeds each lane's
      output adjoints from the lane-major rows of [v], sweeps the superops
      in reverse against the values of the last {!plan_forward_batch_into},
      and overwrites the first [batch] lane-major rows of [grad]
      ([grad.(l * num_inputs + i)]). Zero-adjoint lanes are skipped
      exactly as the interpreter's guard does. *)
end

val check_gradient :
  ?eps:float -> ?tol:float -> inputs:string list -> Expr.t -> float array -> bool
(** Finite-difference validation of the tape gradient at a point, used by
    the property-based tests. *)
