type env = string -> float

exception Unbound_variable of string

let env_of_list bindings =
  let tbl = Hashtbl.create (List.length bindings) in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) bindings;
  fun v ->
    match Hashtbl.find_opt tbl v with
    | Some x -> x
    | None -> raise (Unbound_variable v)

let rec eval env (e : Expr.t) =
  match e with
  | Const c -> c
  | Var v -> env v
  | Binop (op, a, b) -> Expr.apply_binop op (eval env a) (eval env b)
  | Unop (op, a) -> Expr.apply_unop op (eval env a)
  | Select (c, a, b) -> if eval_cond env c then eval env a else eval env b

and eval_cond env (c : Expr.cond) =
  match c with
  | Cmp (op, a, b) -> Expr.apply_cmpop op (eval env a) (eval env b)
  | And (a, b) -> eval_cond env a && eval_cond env b
  | Or (a, b) -> eval_cond env a || eval_cond env b
  | Not a -> not (eval_cond env a)
  | Bconst b -> b

let eval_list base overrides e =
  let tbl = Hashtbl.create (List.length overrides) in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) overrides;
  let env v = match Hashtbl.find_opt tbl v with Some x -> x | None -> base v in
  eval env e

(* Closure compilation: the tree is walked once, here, and every node
   becomes a closure specialised to its operator. Operands are evaluated
   in [eval]'s order (right operand first, as OCaml evaluates the
   arguments of [apply_binop]), conditions short-circuit as in
   [eval_cond], and an unknown name raises [Unbound_variable] only when
   its node is reached — so a compiled condition raises exactly when the
   interpreted one would. *)
let rec compile index (e : Expr.t) : float array -> float =
  match e with
  | Const c -> fun _ -> c
  | Var v -> (
    match index v with
    | Some i -> fun a -> a.(i)
    | None -> fun _ -> raise (Unbound_variable v))
  | Binop (op, a, b) -> (
    let fa = compile index a and fb = compile index b in
    match op with
    | Add -> fun x -> let vb = fb x in fa x +. vb
    | Sub -> fun x -> let vb = fb x in fa x -. vb
    | Mul -> fun x -> let vb = fb x in fa x *. vb
    | Div -> fun x -> let vb = fb x in fa x /. vb
    | Pow | Min | Max -> fun x -> let vb = fb x in Expr.apply_binop op (fa x) vb)
  | Unop (op, a) ->
    let fa = compile index a in
    fun x -> Expr.apply_unop op (fa x)
  | Select (c, a, b) ->
    let fc = compile_cond index c and fa = compile index a and fb = compile index b in
    fun x -> if fc x then fa x else fb x

and compile_cond index (c : Expr.cond) : float array -> bool =
  match c with
  | Cmp (op, a, b) -> (
    let fa = compile index a and fb = compile index b in
    match op with
    | Lt -> fun x -> let vb = fb x in fa x < vb
    | Le -> fun x -> let vb = fb x in fa x <= vb
    | Gt -> fun x -> let vb = fb x in fa x > vb
    | Ge -> fun x -> let vb = fb x in fa x >= vb
    | Eq | Ne -> fun x -> let vb = fb x in Expr.apply_cmpop op (fa x) vb)
  | And (a, b) ->
    let fa = compile_cond index a and fb = compile_cond index b in
    fun x -> fa x && fb x
  | Or (a, b) ->
    let fa = compile_cond index a and fb = compile_cond index b in
    fun x -> fa x || fb x
  | Not a ->
    let fa = compile_cond index a in
    fun x -> not (fa x)
  | Bconst b -> fun _ -> b
