(** Direct (tree-walking) evaluation of expressions.

    For the hot paths (gradient descent, evolutionary search) use
    {!module:Autodiff}'s compiled tapes instead; this module is the reference
    semantics that the tape compiler is tested against. *)

type env = string -> float
(** Total assignment of variables; unbound variables should raise. *)

exception Unbound_variable of string

val env_of_list : (string * float) list -> env
(** Builds an env; raises {!Unbound_variable} on lookup misses. *)

val eval : env -> Expr.t -> float

val eval_cond : env -> Expr.cond -> bool

val eval_list : env -> (string * float) list -> Expr.t -> float
(** [eval_list base overrides e] evaluates with [overrides] shadowing
    [base]. *)

val compile : (string -> int option) -> Expr.t -> float array -> float
(** [compile index e] walks [e] once and returns its evaluator over a
    value array: variable [v] reads position [i] when [index v = Some i].
    The result is bitwise {!eval} with the matching environment; a name
    with no index raises {!Unbound_variable} when (and only when)
    evaluation reaches it, as {!eval} would. *)

val compile_cond : (string -> int option) -> Expr.cond -> float array -> bool
(** {!compile} for conditions, with {!eval_cond}'s short-circuiting. *)
