(* Tests for lib/expr: Expr, Eval, Simplify, Rewrite, Smooth, Autodiff,
   Factorize. *)

open Testutil

let e = Expr.var "a"
let f = Expr.var "b"

let test_const_folding () =
  Alcotest.(check bool) "add" true (Expr.equal (Expr.const 5.0) Expr.(add (const 2.0) (const 3.0)));
  Alcotest.(check bool) "mul0" true (Expr.equal Expr.zero Expr.(mul e zero));
  Alcotest.(check bool) "mul1" true (Expr.equal e Expr.(mul e one));
  Alcotest.(check bool) "add0" true (Expr.equal e Expr.(add e zero));
  Alcotest.(check bool) "div1" true (Expr.equal e Expr.(div e one));
  Alcotest.(check bool) "sub self" true (Expr.equal Expr.zero Expr.(sub e e));
  Alcotest.(check bool) "pow0" true (Expr.equal Expr.one Expr.(pow e zero));
  Alcotest.(check bool) "pow1" true (Expr.equal e Expr.(pow e one));
  Alcotest.(check bool) "min self" true (Expr.equal e Expr.(min_ e e));
  Alcotest.(check bool) "neg neg" true (Expr.equal e Expr.(neg (neg e)));
  Alcotest.(check bool) "log exp" true (Expr.equal e Expr.(log_ (exp_ e)));
  Alcotest.(check bool) "exp log" true (Expr.equal e Expr.(exp_ (log_ e)))

let test_select_folding () =
  Alcotest.(check bool) "true branch" true
    (Expr.equal e (Expr.select Expr.btrue e f));
  Alcotest.(check bool) "false branch" true
    (Expr.equal f (Expr.select Expr.bfalse e f));
  Alcotest.(check bool) "same branches" true
    (Expr.equal e (Expr.select (Expr.gt e f) e e));
  Alcotest.(check bool) "const cmp folds" true
    (Expr.equal e (Expr.select Expr.(gt (const 2.0) (const 1.0)) e f))

let test_vars () =
  let expr = Expr.(add (mul (var "x") (var "y")) (select (gt (var "z") zero) (var "x") one)) in
  Alcotest.(check (list string)) "vars sorted" [ "x"; "y"; "z" ] (Expr.vars expr)

let test_subst () =
  let expr = Expr.(add (var "x") (mul (var "y") (var "x"))) in
  let s = Expr.subst (fun v -> if v = "x" then Some (Expr.const 2.0) else None) expr in
  check_close "subst eval" 8.0 (eval_at [ ("y", 3.0) ] s)

let test_size () =
  Alcotest.(check int) "leaf" 1 (Expr.size e);
  Alcotest.(check bool) "composite bigger" true (Expr.size Expr.(add e (mul e f)) > 3)

let test_to_string () =
  Alcotest.(check string) "var" "a" (Expr.to_string e);
  Alcotest.(check bool) "select printed" true
    (contains ~needle:"select" (Expr.to_string (Expr.select (Expr.gt e f) e f)))

let test_eval_ops () =
  let env = [ ("a", 3.0); ("b", 2.0) ] in
  check_close "add" 5.0 (eval_at env Expr.(add e f));
  check_close "sub" 1.0 (eval_at env Expr.(sub e f));
  check_close "mul" 6.0 (eval_at env Expr.(mul e f));
  check_close "div" 1.5 (eval_at env Expr.(div e f));
  check_close "pow" 9.0 (eval_at env Expr.(pow e f));
  check_close "min" 2.0 (eval_at env Expr.(min_ e f));
  check_close "max" 3.0 (eval_at env Expr.(max_ e f));
  check_close "select t" 3.0 (eval_at env Expr.(select (gt e f) e f));
  check_close "select f" 2.0 (eval_at env Expr.(select (lt e f) e f));
  check_close "log" (log 3.0) (eval_at env Expr.(log_ e));
  check_close "sqrt" (sqrt 3.0) (eval_at env Expr.(sqrt_ e))

let test_eval_unbound () =
  Alcotest.check_raises "unbound" (Eval.Unbound_variable "zz") (fun () ->
      ignore (eval_at [] (Expr.var "zz")))

let test_eval_cond () =
  let env = Eval.env_of_list [ ("a", 3.0); ("b", 2.0) ] in
  Alcotest.(check bool) "and" true (Eval.eval_cond env Expr.(and_ (gt e f) (lt f e)));
  Alcotest.(check bool) "or" true (Eval.eval_cond env Expr.(or_ (lt e f) (gt e f)));
  Alcotest.(check bool) "not" false (Eval.eval_cond env Expr.(not_ (gt e f)))

let test_simplify_preserves_semantics =
  qtest ~count:300 "simplify preserves value" QCheck2.Gen.(pair gen_expr gen_env)
    (fun (expr, env) ->
      let v1 = eval_at env expr in
      let v2 = eval_at env (Simplify.simplify expr) in
      (Float.is_nan v1 && Float.is_nan v2) || close ~tol:1e-6 v1 v2)

let test_simplify_log_expand () =
  let l = Expr.Unop (Expr.Log, Expr.Binop (Expr.Mul, e, f)) in
  let s = Simplify.simplify l in
  (* log(a*b) = log a + log b *)
  check_close "log expand" (log 3.0 +. log 2.0) (eval_at [ ("a", 3.0); ("b", 2.0) ] s);
  Alcotest.(check bool) "no log-of-product left" true
    (match s with Expr.Binop (Expr.Add, _, _) -> true | _ -> false)

let test_simplify_exp_log_cancel () =
  let expr = Expr.Unop (Expr.Exp, Expr.Unop (Expr.Log, e)) in
  Alcotest.(check bool) "cancels" true (Expr.equal e (Simplify.simplify expr))

let test_simplify_div_collapse () =
  let expr = Expr.Binop (Expr.Div, Expr.Binop (Expr.Div, e, f), Expr.var "c") in
  check_close "nested div" (10.0 /. (2.0 *. 5.0))
    (eval_at [ ("a", 10.0); ("b", 2.0); ("c", 5.0) ] (Simplify.simplify expr))

let test_simplify_shrinks =
  qtest ~count:200 "simplify never grows the term" gen_expr (fun expr ->
      Expr.size (Simplify.simplify expr) <= Expr.size expr + 4)

let test_rewrite_fixpoint_terminates () =
  let expr =
    Expr.Unop (Expr.Log, Expr.Binop (Expr.Mul, Expr.Binop (Expr.Mul, e, f), Expr.var "c"))
  in
  let s = Rewrite.apply_fixpoint Simplify.rules expr in
  check_close "value kept" (log 30.0) (eval_at [ ("a", 3.0); ("b", 2.0); ("c", 5.0) ] s)

let test_rewrite_count_firings () =
  let expr = Expr.Unop (Expr.Log, Expr.Binop (Expr.Mul, e, f)) in
  let firings = Rewrite.count_firings Simplify.rules expr in
  Alcotest.(check bool) "log-expand fired" true
    (List.exists (fun (name, n) -> name = "log-expand" && n > 0) firings)

(* --- indexed, memoised rewrite engine -------------------------------------

   The head-indexed engine with the per-domain normal-form memo must be an
   observationally exact replacement for the historical scan-every-rule
   pass loop: same normal forms (hash-consed, so Expr.equal is physical),
   and a fixpoint, so running it twice changes nothing. *)

let test_rewrite_indexed_matches_naive_simplify =
  qtest ~count:400 "indexed engine = naive scan (simplify rules)" gen_expr
    (fun expr ->
      Expr.equal
        (Rewrite.apply_fixpoint Simplify.rules expr)
        (Rewrite.apply_fixpoint_naive Simplify.rules expr))

let test_rewrite_indexed_matches_naive_smooth =
  qtest ~count:400 "indexed engine = naive scan (smooth rules)" gen_expr
    (fun expr ->
      Expr.equal (Smooth.smooth expr)
        (Rewrite.apply_fixpoint_naive (Smooth.rules ()) expr))

let test_rewrite_fixpoint_idempotent =
  qtest ~count:400 "normalization is idempotent (f (f x) = f x)" gen_expr
    (fun expr ->
      let s = Simplify.simplify expr in
      Expr.equal s (Simplify.simplify s)
      &&
      let m = Smooth.smooth expr in
      Expr.equal m (Smooth.smooth m))

let test_simplify_subst_fused =
  qtest ~count:400 "fused subst+simplify = subst then simplify" gen_expr
    (fun expr ->
      let f v = if v = "a" || v = "c" then Some (Expr.exp_ (Expr.var v)) else None in
      Expr.equal
        (Simplify.simplify_subst f expr)
        (Simplify.simplify (Expr.subst f expr)))

(* --- smoothing ------------------------------------------------------------ *)

let test_smooth_removes_nondiff =
  qtest ~count:300 "smooth eliminates select/min/max/abs" gen_expr (fun expr ->
      not (Expr.contains_nondiff (Smooth.smooth expr)))

let test_smooth_figure4_select () =
  (* Figure 4 left: select(x > 0, 5, 2). Far from the kink the smooth
     version matches; at the kink it passes through the midpoint 3.5. *)
  let sel = Expr.(select (gt (var "x") zero) (const 5.0) (const 2.0)) in
  let s = Smooth.smooth sel in
  let at x = eval_at [ ("x", x) ] s in
  check_close ~tol:0.02 "x=+5" 5.0 (at 5.0);
  check_close ~tol:0.02 "x=-5" 2.0 (at (-5.0));
  check_close ~tol:1e-9 "x=0 midpoint" 3.5 (at 0.0)

let test_smooth_figure4_relu () =
  (* Figure 4 right: max(x, 0); asymptotes match, value at 0 is width/2. *)
  let m = Smooth.smooth Expr.(max_ (var "x") zero) in
  let at x = eval_at [ ("x", x) ] m in
  check_close ~tol:0.02 "x=5" 5.05 (at 5.0);
  check_close ~tol:0.05 "x=-5" 0.05 (at (-5.0));
  check_close ~tol:1e-9 "x=0" 0.5 (at 0.0)

let test_smooth_monotone_step () =
  let s = Smooth.phi (Expr.var "x") in
  let prev = ref neg_infinity in
  for i = -50 to 50 do
    let v = eval_at [ ("x", float_of_int i /. 5.0) ] s in
    if v < !prev then Alcotest.fail "phi not monotone";
    if v <= 0.0 || v >= 1.0 then Alcotest.failf "phi out of (0,1): %f" v;
    prev := v
  done

let test_smooth_indicator_connectives () =
  let c = Expr.(and_ (gt (var "x") zero) (lt (var "x") (const 10.0))) in
  let ind = Smooth.indicator c in
  let at x = eval_at [ ("x", x) ] ind in
  Alcotest.(check bool) "inside high" true (at 5.0 > 0.9);
  Alcotest.(check bool) "outside low" true (at (-5.0) < 0.1 && at 15.0 < 0.1)

let test_smooth_close_away_from_kinks =
  qtest ~count:200 "smooth approximates original away from kinks"
    QCheck2.Gen.(pair gen_expr gen_env)
    (fun (expr, env) ->
      let v = eval_at env expr in
      let s = eval_at env (Smooth.smooth expr) in
      (* The kernel has width 1; each smoothing step distorts by at most
         ~width/2 locally, but distortions scale through products, so the
         bound is relative to the magnitude of the value. *)
      (not (Float.is_finite v))
      || Float.abs (s -. v) <= 0.75 *. float_of_int (Expr.size expr) *. (1.0 +. Float.abs v))

(* --- autodiff -------------------------------------------------------------- *)

let test_symbolic_diff_basics () =
  let x = Expr.var "x" in
  let d1 = Autodiff.diff Expr.(mul x x) "x" in
  check_close "d(x^2)=2x at 3" 6.0 (eval_at [ ("x", 3.0) ] d1);
  let d2 = Autodiff.diff Expr.(log_ x) "x" in
  check_close "d log" (1.0 /. 3.0) (eval_at [ ("x", 3.0) ] d2);
  let d3 = Autodiff.diff Expr.(exp_ (mul (const 2.0) x)) "x" in
  check_close "chain" (2.0 *. exp 6.0) (eval_at [ ("x", 3.0) ] d3);
  let d4 = Autodiff.diff Expr.(powi x 3) "x" in
  check_close "power rule" 27.0 (eval_at [ ("x", 3.0) ] d4)

let test_symbolic_gradient_vars () =
  let expr = Expr.(add (mul (var "x") (var "y")) (var "y")) in
  let g = Autodiff.gradient expr in
  Alcotest.(check (list string)) "grad vars" [ "x"; "y" ] (List.map fst g);
  check_close "d/dx" 4.0 (eval_at [ ("x", 2.0); ("y", 4.0) ] (List.assoc "x" g));
  check_close "d/dy" 3.0 (eval_at [ ("x", 2.0); ("y", 4.0) ] (List.assoc "y" g))

let test_tape_matches_eval =
  qtest ~count:300 "tape evaluation matches tree evaluation"
    QCheck2.Gen.(pair gen_expr gen_env)
    (fun (expr, env) ->
      let tape = Autodiff.Tape.compile ~inputs:expr_vars [ expr ] in
      let xs = Array.of_list (List.map (fun v -> List.assoc v env) expr_vars) in
      let v1 = eval_at env expr in
      let v2 = (Autodiff.Tape.eval tape xs).(0) in
      (Float.is_nan v1 && Float.is_nan v2) || close ~tol:1e-9 v1 v2)

let test_tape_gradient_fd =
  qtest ~count:200 "tape gradient matches finite differences (smooth exprs)"
    QCheck2.Gen.(pair gen_expr gen_env)
    (fun (expr, env) ->
      let smooth = Smooth.smooth expr in
      let xs = Array.of_list (List.map (fun v -> List.assoc v env) expr_vars) in
      Autodiff.check_gradient ~eps:1e-5 ~tol:5e-2 ~inputs:expr_vars smooth xs)

let test_tape_cse () =
  let shared = Expr.(mul (var "a") (var "b")) in
  let e1 = Expr.(add shared shared) in
  let tape = Autodiff.Tape.compile ~inputs:[ "a"; "b" ] [ e1; Expr.(mul shared shared) ] in
  (* a, b, a*b, (a*b)+(a*b), (a*b)*(a*b) = 5 instructions with CSE *)
  Alcotest.(check int) "cse shares subterms" 5 (Autodiff.Tape.length tape)

let test_tape_multi_output_vjp () =
  let a = Expr.var "a" and b = Expr.var "b" in
  let tape = Autodiff.Tape.compile ~inputs:[ "a"; "b" ] [ Expr.mul a b; Expr.add a b ] in
  let outs, grad = Autodiff.Tape.vjp tape [| 3.0; 4.0 |] [| 1.0; 10.0 |] in
  check_close "out0" 12.0 outs.(0);
  check_close "out1" 7.0 outs.(1);
  (* d(ab + 10(a+b))/da = b + 10 *)
  check_close "grad a" 14.0 grad.(0);
  check_close "grad b" 13.0 grad.(1)

let test_tape_jacobian () =
  let a = Expr.var "a" and b = Expr.var "b" in
  let tape = Autodiff.Tape.compile ~inputs:[ "a"; "b" ] [ Expr.mul a b; Expr.powi a 2 ] in
  let _, jac = Autodiff.Tape.jacobian tape [| 3.0; 4.0 |] in
  check_close "d(ab)/da" 4.0 jac.(0).(0);
  check_close "d(ab)/db" 3.0 jac.(0).(1);
  check_close "d(a^2)/da" 6.0 jac.(1).(0);
  check_close "d(a^2)/db" 0.0 jac.(1).(1)

let test_tape_unbound_var () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Autodiff.Tape.compile ~inputs:[ "a" ] [ Expr.var "zz" ]);
       false
     with Invalid_argument _ -> true)

let test_tape_select_subgradient () =
  let x = Expr.var "x" in
  let expr = Expr.(select (gt x (const 2.0)) (mul (const 3.0) x) (mul (const 5.0) x)) in
  let tape = Autodiff.Tape.compile ~inputs:[ "x" ] [ expr ] in
  let _, g_hi = Autodiff.Tape.vjp tape [| 4.0 |] [| 1.0 |] in
  let _, g_lo = Autodiff.Tape.vjp tape [| 1.0 |] [| 1.0 |] in
  check_close "taken branch hi" 3.0 g_hi.(0);
  check_close "taken branch lo" 5.0 g_lo.(0)

(* --- hash-consing ----------------------------------------------------------- *)

let test_hashcons_sharing () =
  let mk () = Expr.(add (mul (var "a") (var "b")) (const 2.0)) in
  let e1 = mk () and e2 = mk () in
  Alcotest.(check bool) "same construction is shared" true (e1 == e2);
  Alcotest.(check int) "same id" (Expr.id e1) (Expr.id e2);
  (* Constants are interned by bit pattern, so the signed zeros stay
     distinct nodes (merging them would flip signs downstream). *)
  Alcotest.(check bool) "signed zeros distinct" false (Expr.const 0.0 == Expr.const (-0.0))

let test_hashcons_equal_ids =
  qtest ~count:300 "hash-consed equal/compare/hash agree with ids"
    QCheck2.Gen.(pair gen_expr gen_expr)
    (fun (x, y) ->
      let eq = Expr.equal x y in
      eq = (Expr.id x = Expr.id y)
      && eq = (x == y)
      && eq = (Expr.compare x y = 0)
      && ((not eq) || Expr.hash x = Expr.hash y))

let test_expr_memo () =
  let m = Expr.Memo.create () in
  let e = Expr.(add (var "a") (var "b")) in
  Alcotest.(check bool) "miss" true (Expr.Memo.find_opt m e = None);
  Expr.Memo.add m e 42;
  Alcotest.(check bool) "hit" true (Expr.Memo.find_opt m e = Some 42);
  Alcotest.(check int) "length" 1 (Expr.Memo.length m);
  Alcotest.(check int) "memo reuses" 42 (Expr.Memo.memo m (fun _ -> Alcotest.fail "recomputed") e);
  Expr.Memo.clear m;
  Alcotest.(check int) "cleared" 0 (Expr.Memo.length m)

(* --- tape optimiser and workspaces ------------------------------------------ *)

let bits = Int64.bits_of_float
let bits_eq a b = Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) a b

let test_tape_optimize_exact =
  qtest ~count:300 "tape optimiser preserves eval and vjp bitwise"
    QCheck2.Gen.(pair gen_expr gen_env)
    (fun (expr, env) ->
      let raw =
        Autodiff.Tape.compile ~optimize:false ~inputs:expr_vars [ expr; Smooth.smooth expr ]
      in
      let opt, report = Autodiff.Tape.optimize_report raw in
      let xs = Array.of_list (List.map (fun v -> List.assoc v env) expr_vars) in
      let adj = [| 1.0; 0.5 |] in
      let o1, g1 = Autodiff.Tape.vjp raw xs adj in
      let o2, g2 = Autodiff.Tape.vjp opt xs adj in
      Autodiff.Tape.length opt <= Autodiff.Tape.length raw
      && report.Autodiff.Tape.slots_pre = Autodiff.Tape.length raw
      && report.Autodiff.Tape.slots_post = Autodiff.Tape.length opt
      && bits_eq o1 o2 && bits_eq g1 g2)

(* --- compiled superop plans ------------------------------------------------- *)

(* Richer generator than [gen_expr]: the full operator set with no numeric
   guards, so plans are exercised through infinities and NaNs too. *)
let gen_expr_full : Expr.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized_size (int_range 0 10)
  @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [ map (fun f -> Expr.const (f -. 4.0)) (float_bound_inclusive 8.0);
            map Expr.var (oneofl expr_vars) ]
      else begin
        let sub = self (n / 2) in
        oneof
          [ map2 Expr.add sub sub; map2 Expr.sub sub sub; map2 Expr.mul sub sub;
            map2 Expr.div sub sub; map2 Expr.pow sub sub; map2 Expr.min_ sub sub;
            map2 Expr.max_ sub sub; map Expr.neg sub; map Expr.abs_ sub;
            map Expr.sqrt_ sub; map Expr.log_ sub; map Expr.exp_ sub;
            map3 (fun c a b -> Expr.select (Expr.ge c Expr.zero) a b) sub sub sub ]
      end)

(* Comparison contract of the compiled plans against the scalar
   interpreter: exact bits, except that two NaNs compare equal regardless
   of bits. A compiler may legally commute an operation on two NaNs (IEEE
   leaves the NaN sign and payload unspecified) — GCC in the C kernels,
   ocamlopt in the portable OCaml kernels and in the interpreter — and a
   NaN's sign can never propagate into a non-NaN value in this operator
   set, so everything else is exact bits on both kernel sets. *)
let plan_eq x y = Int64.equal (bits x) (bits y) || (Float.is_nan x && Float.is_nan y)

let plan_eq_prefix n a b =
  let ok = ref true in
  for i = 0 to n - 1 do
    if not (plan_eq a.(i) b.(i)) then ok := false
  done;
  !ok

(* The reference for every batched sweep: {!Autodiff.Tape.vjp} on each
   lane alone, concatenated into lane-major output and gradient rows. *)
let vjp_lanes tape ~batch ~n_in ~n_out xs adj =
  let outs = Array.make (batch * n_out) 0.0 and grads = Array.make (batch * n_in) 0.0 in
  for l = 0 to batch - 1 do
    let o, g =
      Autodiff.Tape.vjp tape (Array.sub xs (l * n_in) n_in) (Array.sub adj (l * n_out) n_out)
    in
    Array.blit o 0 outs (l * n_out) n_out;
    Array.blit g 0 grads (l * n_in) n_in
  done;
  (outs, grads)

let test_tape_batch_bitwise =
  qtest ~count:60 "batched tape sweeps are bitwise the scalar kernels"
    QCheck2.Gen.(triple gen_expr gen_env (int_range 1 128))
    (fun (expr, env, batch) ->
      let tape =
        Autodiff.Tape.compile ~inputs:expr_vars [ expr; Smooth.smooth expr ]
      in
      let plan = Autodiff.Tape.compile_plan tape in
      let n_in = 3 and n_out = 2 in
      let base = Array.of_list (List.map (fun v -> List.assoc v env) expr_vars) in
      (* Distinct per-lane inputs and adjoints, derived deterministically. *)
      let xs =
        Array.init (batch * n_in) (fun j ->
            base.(j mod n_in) *. (1.0 +. (0.125 *. float_of_int (j / n_in mod 7))))
      in
      let adj = Array.init (batch * n_out) (fun j -> sin (float_of_int j)) in
      let outs, grads = vjp_lanes tape ~batch ~n_in ~n_out xs adj in
      (* The same workspace swept twice: the second sweep must not see the
         first one's leftovers. *)
      let pws = Autodiff.Tape.plan_batch_workspace plan ~batch in
      let sweep () =
        let o =
          Array.sub (Autodiff.Tape.plan_forward_batch_into plan pws ~batch xs) 0 (batch * n_out)
        in
        let g = Array.make (batch * n_in) nan in
        Autodiff.Tape.plan_backward_batch_into plan pws ~batch adj g;
        (o, g)
      in
      let o1, g1 = sweep () in
      let o2, g2 = sweep () in
      plan_eq_prefix (batch * n_out) o1 outs
      && plan_eq_prefix (batch * n_in) g1 grads
      && plan_eq_prefix (batch * n_out) o2 outs
      && plan_eq_prefix (batch * n_in) g2 grads)

let test_plan_bitwise_random =
  qtest ~count:40 "compiled plan = interpreter (both kernel sets, B=1..128)"
    QCheck2.Gen.(pair (list_size (int_range 1 4) gen_expr_full) (int_range 0 1_000_000))
    (fun (exprs, seed) ->
      let tape = Autodiff.Tape.compile ~inputs:expr_vars exprs in
      let plan = Autodiff.Tape.compile_plan tape in
      let n_in = 3 and n_out = List.length exprs in
      let rng = Random.State.make [| seed |] in
      let was = Autodiff.Tape.using_vector_kernels () in
      Fun.protect ~finally:(fun () -> Autodiff.Tape.set_vector_kernels was)
      @@ fun () ->
      Autodiff.Tape.Plan.superops plan
      = Autodiff.Tape.Plan.source_ops plan - Autodiff.Tape.Plan.fused_pairs plan
      && List.for_all
           (fun batch ->
             (* Inputs and adjoints stress the edge cases: both zero signs,
                negatives (NaN through log/sqrt/pow), large magnitudes. *)
             let xs =
               Array.init (batch * n_in) (fun _ ->
                   match Random.State.int rng 10 with
                   | 0 -> 0.0
                   | 1 -> -0.0
                   | 2 -> -.Random.State.float rng 8.0
                   | 3 -> Random.State.float rng 1e6
                   | _ -> Random.State.float rng 5.0 -. 1.0)
             in
             let adj =
               Array.init (batch * n_out) (fun _ ->
                   match Random.State.int rng 5 with
                   | 0 -> 0.0
                   | 1 -> -0.0
                   | _ -> Random.State.float rng 4.0 -. 2.0)
             in
             let outs, grads = vjp_lanes tape ~batch ~n_in ~n_out xs adj in
             List.for_all
               (fun vec ->
                 Autodiff.Tape.set_vector_kernels vec;
                 let pws = Autodiff.Tape.plan_batch_workspace plan ~batch in
                 let pouts =
                   Array.copy (Autodiff.Tape.plan_forward_batch_into plan pws ~batch xs)
                 in
                 let pgrads = Array.make (batch * n_in) nan in
                 Autodiff.Tape.plan_backward_batch_into plan pws ~batch adj pgrads;
                 plan_eq_prefix (batch * n_out) pouts outs
                 && plan_eq_prefix (batch * n_in) pgrads grads)
               [ true; false ])
           [ 1; 3; 8; 32; 128 ])

let test_plan_zero_adjoint_guard () =
  (* A lane whose output adjoints are all (±)0.0 must leave its input
     gradients at exactly +0.0 bits: the compiled backward keeps the
     interpreter's [g <> 0.0] skip, even when the forward value planes
     hold infinities or NaNs that an unguarded product would propagate. *)
  let exprs =
    Expr.
      [ div (var "a") (var "b");
        pow (var "a") (var "b");
        mul (exp_ (var "c")) (log_ (var "a")) ]
  in
  let tape = Autodiff.Tape.compile ~inputs:expr_vars exprs in
  let plan = Autodiff.Tape.compile_plan tape in
  let batch = 6 in
  let xs =
    [| 1.5; 2.0; 0.5;  (* ordinary *)
       3.0; 0.0; 1.0;  (* b = 0: infinite forward values *)
       -2.0; 1.0; 0.25;  (* a < 0: NaN through log *)
       0.0; 0.0; 0.0;  (* everything zero *)
       4.0; 0.5; -1.0;  (* live lane between dead ones *)
       1e300; 1e300; 1e300 (* overflow territory *) |]
  in
  let adj =
    [| 1.0; 0.5; -0.25;
       0.0; -0.0; 0.0;
       0.0; 0.0; -0.0;
       -0.0; -0.0; -0.0;
       2.0; 0.0; -0.0;
       0.0; 0.0; 0.0 |]
  in
  let _, grads = vjp_lanes tape ~batch ~n_in:3 ~n_out:3 xs adj in
  let was = Autodiff.Tape.using_vector_kernels () in
  Fun.protect ~finally:(fun () -> Autodiff.Tape.set_vector_kernels was)
  @@ fun () ->
  List.iter
    (fun vec ->
      Autodiff.Tape.set_vector_kernels vec;
      let label = if vec then "simd" else "portable" in
      let pws = Autodiff.Tape.plan_batch_workspace plan ~batch in
      ignore (Autodiff.Tape.plan_forward_batch_into plan pws ~batch xs);
      let pgrads = Array.make (batch * 3) nan in
      Autodiff.Tape.plan_backward_batch_into plan pws ~batch adj pgrads;
      Alcotest.(check bool)
        (label ^ ": grads bitwise-equal interpreter")
        true
        (bits_eq pgrads grads);
      (* Pin the skip itself: every zero-adjoint lane extracts exactly
         +0.0, regardless of the poison in its value planes. *)
      List.iter
        (fun l ->
          for i = 0 to 2 do
            if not (Int64.equal (bits pgrads.((l * 3) + i)) (bits 0.0)) then
              Alcotest.failf "%s: lane %d grad %d is %h, not +0.0" label l i
                pgrads.((l * 3) + i)
          done)
        [ 1; 2; 3; 5 ])
    [ true; false ]

let test_plan_json_roundtrip () =
  let exprs =
    Expr.
      [ pow (add (var "a") (var "b")) (var "c");
        log_ (add one (mul (var "a") (exp_ (var "b"))));
        select (ge (var "c") zero) (sqrt_ (abs_ (var "a"))) (neg (var "b")) ]
  in
  let tape = Autodiff.Tape.compile ~inputs:expr_vars exprs in
  let plan = Autodiff.Tape.compile_plan tape in
  let j = Autodiff.Tape.Plan.to_json plan in
  (match Autodiff.Tape.Plan.of_json j with
  | None -> Alcotest.fail "roundtrip decode failed"
  | Some p2 ->
    Alcotest.(check bool) "roundtrip is the identity" true
      (Autodiff.Tape.Plan.to_json p2 = j);
    Alcotest.(check int) "source ops preserved"
      (Autodiff.Tape.Plan.source_ops plan)
      (Autodiff.Tape.Plan.source_ops p2);
    Alcotest.(check int) "superops preserved"
      (Autodiff.Tape.Plan.superops plan)
      (Autodiff.Tape.Plan.superops p2));
  (* Corrupt payloads decode to None, never a crash. *)
  let tamper key v =
    match j with
    | Json.Obj fields ->
      Json.Obj (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) fields)
    | _ -> Alcotest.fail "plan json is not an object"
  in
  let dead j = Option.is_none (Autodiff.Tape.Plan.of_json j) in
  Alcotest.(check bool) "garbage" true (dead (Json.Str "x"));
  Alcotest.(check bool) "bad opcode" true
    (dead (tamper "code" (Json.List (List.init 12 (fun _ -> Json.Num 255.0)))));
  Alcotest.(check bool) "truncated code" true (dead (tamper "code" (Json.List [ Json.Num 0.0 ])));
  Alcotest.(check bool) "bad const bits" true
    (dead (tamper "consts" (Json.List [ Json.Str "zz" ])));
  Alcotest.(check bool) "outputs missing" true (dead (tamper "out_vregs" (Json.List [])))

(* --- factorize ------------------------------------------------------------- *)

let test_divisors () =
  Alcotest.(check (list int)) "12" [ 1; 2; 3; 4; 6; 12 ] (Factorize.divisors 12);
  Alcotest.(check (list int)) "1" [ 1 ] (Factorize.divisors 1);
  Alcotest.(check (list int)) "prime" [ 1; 13 ] (Factorize.divisors 13)

let test_nearest_divisor () =
  (* log-space: |ln 6 - ln 5| = 0.18 < |ln 4 - ln 5| = 0.22 *)
  Alcotest.(check int) "12 near 5" 6 (Factorize.nearest_divisor 12 5.0);
  Alcotest.(check int) "12 near 100" 12 (Factorize.nearest_divisor 12 100.0);
  Alcotest.(check int) "12 near 0.3" 1 (Factorize.nearest_divisor 12 0.3)

(* The per-extent table keeps the list argmin's semantics: first minimum
   in ascending divisor order, x <= 0 -> smallest divisor, NaN (and +inf,
   whose distances are all infinite) -> first divisor. *)
let test_nearest_divisor_matches_list_argmin =
  let list_argmin n x =
    let ds = List.filter (fun d -> n mod d = 0) (List.init n (fun i -> i + 1)) in
    if x <= 0.0 then List.hd ds
    else
      let lx = log x in
      Stats.argmin (fun d -> Float.abs (log (float_of_int d) -. lx)) ds
  in
  let gen =
    QCheck2.Gen.(
      int_range 1 5000 >>= fun n ->
      let ds = Array.of_list (List.filter (fun d -> n mod d = 0) (List.init n (fun i -> i + 1))) in
      let tie =
        (* Geometric means of neighbouring divisors: exact or near ties. *)
        map
          (fun k ->
            let k = k mod Array.length ds in
            let a = float_of_int ds.(k) and b = float_of_int ds.(min (k + 1) (Array.length ds - 1)) in
            sqrt (a *. b))
          nat
      in
      let x =
        frequency
          [ (4, map (fun u -> exp (u *. 10.0)) (float_bound_inclusive 1.0));
            (3, tie);
            (1, map float_of_int (int_range 0 6000));
            (1, oneofl [ 0.0; -0.0; -1.0; nan; infinity; neg_infinity; 1e-320; 5e-324; max_float ]) ]
      in
      map (fun x -> (n, x)) x)
  in
  qtest ~count:2000 "nearest divisor = list argmin (ties, x <= 0, nan, inf)" gen (fun (n, x) ->
      Factorize.nearest_divisor n x = list_argmin n x
      && Factorize.divisors n = List.filter (fun d -> n mod d = 0) (List.init n (fun i -> i + 1)))

let test_round_log_to_divisor () =
  let y = Factorize.round_log_to_divisor 24 (log 7.0) in
  (* divisors of 24 around 7: 6 and 8; log-space rounding picks one of them *)
  let d = int_of_float (Float.round (exp y)) in
  Alcotest.(check bool) "is divisor" true (24 mod d = 0);
  Alcotest.(check bool) "close to 7" true (d = 6 || d = 8)

let test_split_product =
  qtest ~count:200 "split factors multiply back"
    QCheck2.Gen.(pair (int_range 1 5040) (int_range 1 5))
    (fun (n, k) ->
      let rng = Rng.create (n + (k * 7919)) in
      let fs = Factorize.split rng n k in
      List.length fs = k && List.fold_left ( * ) 1 fs = n)

let test_num_splits () =
  Alcotest.(check int) "n into 1" 1 (Factorize.num_splits 12 1);
  (* ordered pairs (a,b) with a*b=12: one per divisor *)
  Alcotest.(check int) "12 into 2" 6 (Factorize.num_splits 12 2)

let tests =
  [ Alcotest.test_case "const folding" `Quick test_const_folding;
    Alcotest.test_case "select folding" `Quick test_select_folding;
    Alcotest.test_case "free variables" `Quick test_vars;
    Alcotest.test_case "substitution" `Quick test_subst;
    Alcotest.test_case "size" `Quick test_size;
    Alcotest.test_case "printing" `Quick test_to_string;
    Alcotest.test_case "eval operators" `Quick test_eval_ops;
    Alcotest.test_case "eval unbound variable" `Quick test_eval_unbound;
    Alcotest.test_case "eval conditions" `Quick test_eval_cond;
    test_simplify_preserves_semantics;
    Alcotest.test_case "simplify log expansion" `Quick test_simplify_log_expand;
    Alcotest.test_case "simplify exp/log cancel" `Quick test_simplify_exp_log_cancel;
    Alcotest.test_case "simplify nested division" `Quick test_simplify_div_collapse;
    test_simplify_shrinks;
    Alcotest.test_case "rewrite fixpoint terminates" `Quick test_rewrite_fixpoint_terminates;
    Alcotest.test_case "rewrite firing counts" `Quick test_rewrite_count_firings;
    test_rewrite_indexed_matches_naive_simplify;
    test_rewrite_indexed_matches_naive_smooth;
    test_rewrite_fixpoint_idempotent;
    test_simplify_subst_fused;
    test_smooth_removes_nondiff;
    Alcotest.test_case "smooth select matches Figure 4 (left)" `Quick test_smooth_figure4_select;
    Alcotest.test_case "smooth max matches Figure 4 (right)" `Quick test_smooth_figure4_relu;
    Alcotest.test_case "phi is a monotone step in (0,1)" `Quick test_smooth_monotone_step;
    Alcotest.test_case "smooth indicator of connectives" `Quick test_smooth_indicator_connectives;
    test_smooth_close_away_from_kinks;
    Alcotest.test_case "symbolic diff basics" `Quick test_symbolic_diff_basics;
    Alcotest.test_case "symbolic gradient variables" `Quick test_symbolic_gradient_vars;
    test_tape_matches_eval;
    test_tape_gradient_fd;
    Alcotest.test_case "tape common subexpression elimination" `Quick test_tape_cse;
    Alcotest.test_case "tape multi-output VJP" `Quick test_tape_multi_output_vjp;
    Alcotest.test_case "tape jacobian" `Quick test_tape_jacobian;
    Alcotest.test_case "tape rejects unbound variables" `Quick test_tape_unbound_var;
    Alcotest.test_case "tape select subgradient follows taken branch" `Quick
      test_tape_select_subgradient;
    Alcotest.test_case "hash-consing shares identical constructions" `Quick test_hashcons_sharing;
    test_hashcons_equal_ids;
    Alcotest.test_case "expression memo table" `Quick test_expr_memo;
    test_tape_optimize_exact;
    test_tape_batch_bitwise;
    test_plan_bitwise_random;
    Alcotest.test_case "compiled backward keeps the zero-adjoint skip" `Quick
      test_plan_zero_adjoint_guard;
    Alcotest.test_case "plan json round-trips; corrupt decodes to None" `Quick
      test_plan_json_roundtrip;
    Alcotest.test_case "divisors" `Quick test_divisors;
    Alcotest.test_case "nearest divisor (log-space)" `Quick test_nearest_divisor;
    test_nearest_divisor_matches_list_argmin;
    Alcotest.test_case "round log to divisor" `Quick test_round_log_to_divisor;
    test_split_product;
    Alcotest.test_case "number of ordered factorisations" `Quick test_num_splits ]
