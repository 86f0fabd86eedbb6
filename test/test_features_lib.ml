(* Tests for lib/features: Extract and Pack. *)

open Testutil

let test_feature_count () =
  Alcotest.(check int) "82 features as in the paper" 82 Extract.num_features;
  Alcotest.(check int) "names match count" 82 (Array.length Extract.feature_names)

let test_feature_names_unique () =
  let sorted = Array.to_list Extract.feature_names |> List.sort_uniq String.compare in
  Alcotest.(check int) "unique names" 82 (List.length sorted)

let test_extract_length_and_vars () =
  List.iter
    (fun (sched, prog) ->
      let feats = Extract.extract prog in
      Alcotest.(check int) "82 formulas" 82 (Array.length feats);
      let sched_vars = Schedule.var_names sched in
      Array.iter
        (fun f ->
          List.iter
            (fun v ->
              if not (List.mem v sched_vars) then Alcotest.failf "feature uses unknown var %s" v)
            (Expr.vars f))
        feats)
    (Sketch.generate_programs (dense_sg ()))

let test_float_add_formula () =
  (* float_add of a dense matmul is schedule-independent: B*I*O adds. *)
  let sg = dense_sg () in
  List.iter
    (fun (_sched, prog) ->
      let feats = Extract.extract_named prog in
      let name, f = feats.(0) in
      Alcotest.(check string) "first feature" "float_add" name;
      match Expr.const_value f with
      | Some v -> check_close "count" (32.0 *. 128.0 *. 256.0) v
      | None -> Alcotest.fail "float_add should fold to a constant")
    (Sketch.generate_programs sg)

let test_int_ops_has_select () =
  (* Section 3.3's running example: the address-arithmetic feature contains
     a select on the unroll variable. *)
  let sg = dense_sg () in
  let found = ref false in
  List.iter
    (fun ((_ : Schedule.t), prog) ->
      let feats = Extract.extract_named prog in
      Array.iter
        (fun (name, f) ->
          if name = "int_ops" && contains ~needle:"select" (Expr.to_string f) then found := true)
        feats)
    (Sketch.generate_programs sg);
  Alcotest.(check bool) "int_ops uses select" true !found

let test_pack_features_finite =
  qtest ~count:50 "features finite on random valid points" (QCheck2.Gen.int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let sg = conv_sg () in
      List.for_all
        (fun sched ->
          let pack = Pack.prepare sg sched in
          let y = sample_valid rng pack in
          let feats = Pack.features_at pack y in
          Array.length feats = 82 && Array.for_all Float.is_finite feats)
        (Sketch.generate sg))

let test_pack_gradient_fd () =
  (* The assembled feature tape (smooth + log + exp substitution) must agree
     with finite differences. *)
  let rng = Rng.create 5 in
  let sg = dense_sg () in
  List.iter
    (fun sched ->
      let pack = Pack.prepare sg sched in
      let y = sample_valid rng pack in
      let eps = 1e-5 in
      let adj = Array.make 82 1.0 in
      let base, grad = Pack.features_vjp pack y adj in
      let sum_base = Array.fold_left ( +. ) 0.0 base in
      Array.iteri
        (fun i _ ->
          let yp = Array.copy y in
          yp.(i) <- y.(i) +. eps;
          let sp = Array.fold_left ( +. ) 0.0 (Pack.features_at pack yp) in
          let ym = Array.copy y in
          ym.(i) <- y.(i) -. eps;
          let sm = Array.fold_left ( +. ) 0.0 (Pack.features_at pack ym) in
          let fd = (sp -. sm) /. (2.0 *. eps) in
          ignore sum_base;
          let denom = max 1.0 (max (Float.abs fd) (Float.abs grad.(i))) in
          if Float.abs (fd -. grad.(i)) /. denom > 1e-2 then
            Alcotest.failf "gradient mismatch at %d: fd %.6f vs ad %.6f" i fd grad.(i))
        y)
    (Sketch.generate sg)

let test_pack_round_divisibility =
  qtest ~count:50 "rounding yields divisor-consistent tiles" (QCheck2.Gen.int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let sg = conv_sg () in
      List.for_all
        (fun sched ->
          let pack = Pack.prepare sg sched in
          let y = sample_valid rng pack in
          let assign = Pack.assignment pack y in
          List.for_all
            (fun (extent, vars) ->
              let product =
                List.fold_left (fun acc v -> acc * List.assoc v assign) 1 vars
              in
              extent mod product = 0)
            sched.Schedule.div_groups)
        (Sketch.generate sg))

let test_pack_penalty_zero_when_feasible () =
  let rng = Rng.create 17 in
  let sg = dense_sg () in
  List.iter
    (fun sched ->
      let pack = Pack.prepare sg sched in
      let y = sample_valid rng pack in
      let v, _grad = Pack.penalty_value_grad pack y in
      if v > 1e-6 then Alcotest.failf "penalty %.6f at a feasible point" v)
    (Sketch.generate sg)

let test_pack_penalty_positive_when_violated () =
  let sg = dense_sg () in
  let multi = List.nth (Sketch.generate sg) 1 in
  let pack = Pack.prepare sg multi in
  (* All variables at their upper bound violates the tile-product bounds. *)
  let y = Array.map (fun (_, hi) -> hi) (Pack.bounds_log pack) in
  let v, grad = Pack.penalty_value_grad pack y in
  Alcotest.(check bool) "penalty positive" true (v > 0.0);
  Alcotest.(check bool) "gradient nonzero" true (Array.exists (fun g -> g <> 0.0) grad)

let test_pack_round_infeasible_returns_none () =
  let sg = dense_sg () in
  let multi = List.nth (Sketch.generate sg) 1 in
  let pack = Pack.prepare sg multi in
  let y = Array.map (fun (_, hi) -> hi) (Pack.bounds_log pack) in
  Alcotest.(check bool) "upper corner infeasible" true (Pack.round_to_valid pack y = None)

let test_pack_schedule_key_stability () =
  let rng = Rng.create 3 in
  let sg = dense_sg () in
  let pack = Pack.prepare sg (List.hd (Sketch.generate sg)) in
  let y = sample_valid rng pack in
  Alcotest.(check string) "same point same key" (Pack.schedule_key pack y)
    (Pack.schedule_key pack y);
  let y2 = sample_valid rng pack in
  if Pack.schedule_key pack y = Pack.schedule_key pack y2 then ()
  (* collisions possible but assignments must then match *)
  else Alcotest.(check bool) "different points differ" true true

let test_pack_schedule_key_format () =
  (* The single-buffer construction must produce exactly the historical
     "<sketch>:v0,v1,..." string derived from [assignment]. *)
  let rng = Rng.create 29 in
  let sg = dense_sg () in
  List.iter
    (fun sched ->
      let pack = Pack.prepare sg sched in
      for _ = 1 to 5 do
        let y = sample_valid rng pack in
        let legacy =
          (Pack.schedule pack).Schedule.sched_name ^ ":"
          ^ String.concat ","
              (List.map (fun (_, v) -> string_of_int v) (Pack.assignment pack y))
        in
        Alcotest.(check string) "legacy key format" legacy (Pack.schedule_key pack y)
      done)
    (Sketch.generate sg)

let test_pack_unoptimized_tapes_bitwise () =
  (* prepare ~optimize:false must reproduce the optimised pack's features,
     penalties and VJPs bitwise — the tape optimiser is exact. *)
  let rng = Rng.create 31 in
  let sg = dense_sg () in
  let bits_eq a b =
    Array.for_all2
      (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
      a b
  in
  List.iter
    (fun sched ->
      let p_opt = Pack.prepare sg sched in
      let p_raw = Pack.prepare ~optimize:false sg sched in
      for _ = 1 to 3 do
        let y = sample_valid rng p_opt in
        Alcotest.(check bool) "features bitwise" true
          (bits_eq (Pack.features_at p_opt y) (Pack.features_at p_raw y));
        let adj = Array.init 82 (fun i -> float_of_int (i - 41) /. 10.0) in
        let f1, g1 = Pack.features_vjp p_opt y adj in
        let f2, g2 = Pack.features_vjp p_raw y adj in
        Alcotest.(check bool) "vjp bitwise" true (bits_eq f1 f2 && bits_eq g1 g2);
        let v1, pg1 = Pack.penalty_value_grad p_opt y in
        let v2, pg2 = Pack.penalty_value_grad p_raw y in
        Alcotest.(check bool) "penalty bitwise" true
          (Int64.equal (Int64.bits_of_float v1) (Int64.bits_of_float v2) && bits_eq pg1 pg2)
      done)
    (Sketch.generate sg)

(* Lane [l] of a batch sweep against the scalar interpreter on point
   [y] alone: features, feature gradient for adjoint row [adj], penalty
   value and gradient. *)
let check_lane ~label pack y ~adj ~feats ~grads ~pgrads ~pvals l =
  let n = Pack.num_vars pack in
  let bits = Int64.bits_of_float in
  let bits_eq a b = Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) a b in
  let check what ok =
    Alcotest.(check bool) (Printf.sprintf "%s lane %d: %s" label l what) true ok
  in
  check "features" (bits_eq (Pack.features_at pack y) (Array.sub feats (l * 82) 82));
  let _, dy = Pack.features_vjp pack y (Array.sub adj (l * 82) 82) in
  check "feature gradient" (bits_eq dy (Array.sub grads (l * n) n));
  let v, pg = Pack.penalty_value_grad pack y in
  check "penalty value" (Int64.equal (bits v) (bits pvals.(l)));
  check "penalty gradient" (bits_eq pg (Array.sub pgrads (l * n) n))

(* One batch sweep of [points] through [bws]; returns copies of the
   feature matrix, feature gradients, penalty gradients and values. *)
let batch_sweep pack bws points adj =
  let n = Pack.num_vars pack in
  let batch = Array.length points in
  let ys = Array.make (batch * n) 0.0 in
  Array.iteri (fun l y -> Array.blit y 0 ys (l * n) n) points;
  let feats = Array.sub (Pack.features_forward_batch pack bws ~batch ys) 0 (batch * 82) in
  let grads = Array.make (batch * n) nan in
  Pack.features_backward_batch pack bws ~batch adj grads;
  let pgrads = Array.make (batch * n) nan in
  let pvals = Array.make batch nan in
  Pack.penalty_value_grad_batch_into pack bws ~batch ys ~grads:pgrads ~values:pvals;
  (feats, grads, pgrads, pvals)

let test_pack_workspace_bitwise () =
  (* One workspace reused across calls at widths up to its capacity: no
     sweep may see a previous one's leftovers. *)
  let rng = Rng.create 37 in
  let sg = conv_sg () in
  let pack = Pack.prepare sg (List.nth (Sketch.generate sg) 1) in
  let bws = Pack.batch_workspace pack ~batch:8 in
  List.iter
    (fun batch ->
      let points = Array.init batch (fun _ -> sample_valid rng pack) in
      let adj = Array.init (batch * 82) (fun j -> sin (float_of_int (j + batch))) in
      let feats, grads, pgrads, pvals = batch_sweep pack bws points adj in
      Array.iteri
        (fun l y ->
          check_lane ~label:(Printf.sprintf "width %d" batch) pack y ~adj ~feats ~grads
            ~pgrads ~pvals l)
        points)
    [ 8; 3; 1; 8; 5 ]

let test_pack_batch_bitwise () =
  (* The compiled-plan sweeps must reproduce the scalar interpreter
     bitwise on every lane, at any batch size, on both kernel sets. *)
  let rng = Rng.create 41 in
  let sg = conv_sg () in
  let pack = Pack.prepare sg (List.nth (Sketch.generate sg) 1) in
  let was = Autodiff.Tape.using_vector_kernels () in
  Fun.protect ~finally:(fun () -> Autodiff.Tape.set_vector_kernels was) @@ fun () ->
  List.iter
    (fun batch ->
      let points = Array.init batch (fun _ -> sample_valid rng pack) in
      let adj = Array.init (batch * 82) (fun j -> sin (float_of_int j)) in
      List.iter
        (fun vec ->
          Autodiff.Tape.set_vector_kernels vec;
          let feats, grads, pgrads, pvals =
            batch_sweep pack (Pack.batch_workspace pack ~batch) points adj
          in
          let label = Printf.sprintf "%s B=%d" (if vec then "simd" else "portable") batch in
          Array.iteri
            (fun l y -> check_lane ~label pack y ~adj ~feats ~grads ~pgrads ~pvals l)
            points)
        [ true; false ])
    [ 1; 4; 13; 32 ]

let test_pack_cache_stats () =
  let get k stats = List.assoc k stats in
  let sg = dense_sg () in
  let sched = List.hd (Sketch.generate sg) in
  let before = Pack.cache_stats () in
  (* An unseen (or evicted) schedule is one miss; repeating it is a hit. *)
  let p1 = Pack.prepare_cached sg sched in
  let mid = Pack.cache_stats () in
  let p2 = Pack.prepare_cached sg sched in
  let after = Pack.cache_stats () in
  Alcotest.(check bool) "same pack returned" true (p1 == p2);
  Alcotest.(check bool) "first lookup counted" true
    (get "hits" mid + get "misses" mid = get "hits" before + get "misses" before + 1);
  Alcotest.(check int) "repeat is a hit" (get "hits" mid + 1) (get "hits" after);
  Alcotest.(check bool) "entries positive" true (get "entries" after >= 1);
  Alcotest.(check bool) "evictions monotone" true
    (get "evictions" after >= get "evictions" before)

(* --- persistent disk cache -------------------------------------------------- *)

let fresh_cache_dir () =
  let path = Filename.temp_file "felix_pack_cache" "" in
  Sys.remove path;
  path

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let counters () = Pack.disk_counters ()
let get k l = List.assoc k l

let test_pack_disk_cache_bitwise () =
  let dir = fresh_cache_dir () in
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let sg = dense_sg () in
  let sched = List.hd (Sketch.generate sg) in
  let cold = Pack.prepare sg sched in
  let before = counters () in
  let miss = Pack.prepare ~cache_dir:dir sg sched in
  let mid = counters () in
  let warm = Pack.prepare ~cache_dir:dir sg sched in
  let after = counters () in
  Alcotest.(check string) "cold = miss-path" (Pack.digest cold) (Pack.digest miss);
  Alcotest.(check string) "cold = disk-warm" (Pack.digest cold) (Pack.digest warm);
  Alcotest.(check int) "first touch missed" (get "disk_misses" before + 1)
    (get "disk_misses" mid);
  Alcotest.(check int) "first touch wrote" (get "disk_writes" before + 1)
    (get "disk_writes" mid);
  Alcotest.(check int) "second touch hit" (get "disk_hits" mid + 1)
    (get "disk_hits" after);
  let st = Pack.disk_cache_stats dir in
  Alcotest.(check int) "one entry" 1 (get "entries" st);
  Alcotest.(check bool) "entry has bytes" true (get "bytes" st > 0);
  Alcotest.(check int) "clear removes it" 1 (Pack.clear_disk_cache dir);
  Alcotest.(check int) "empty after clear" 0 (get "entries" (Pack.disk_cache_stats dir))

let test_pack_disk_cache_corruption () =
  let dir = fresh_cache_dir () in
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let sg = dense_sg () in
  let sched = List.hd (Sketch.generate sg) in
  let cold = Pack.prepare ~cache_dir:dir sg sched in
  (* Truncate every entry to garbage: a corrupt cache must fall back to a
     recompile (bitwise-identical result), never crash. *)
  Array.iter
    (fun f ->
      let oc = open_out (Filename.concat dir f) in
      output_string oc "{not json";
      close_out oc)
    (Sys.readdir dir);
  let before = counters () in
  let recompiled = Pack.prepare ~cache_dir:dir sg sched in
  let after = counters () in
  Alcotest.(check string) "recompile matches" (Pack.digest cold)
    (Pack.digest recompiled);
  Alcotest.(check bool) "corruption counted" true
    (get "disk_errors" after > get "disk_errors" before);
  (* The poisoned entry was rewritten: the next load is a clean hit. *)
  let mid = counters () in
  let warm = Pack.prepare ~cache_dir:dir sg sched in
  Alcotest.(check string) "rewritten entry hits" (Pack.digest cold) (Pack.digest warm);
  Alcotest.(check int) "hit counted" (get "disk_hits" mid + 1)
    (get "disk_hits" (counters ()))

let test_pack_disk_warm_skips_plan_compile () =
  (* Plans travel with the tapes through the disk cache: a warm hit must
     not invoke the plan compiler at all. *)
  let dir = fresh_cache_dir () in
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let sg = dense_sg () in
  let sched = List.hd (Sketch.generate sg) in
  let cold = Pack.prepare ~cache_dir:dir sg sched in
  let before = Autodiff.Tape.plan_compiles () in
  let warm = Pack.prepare ~cache_dir:dir sg sched in
  Alcotest.(check int) "warm hit compiles no plans" before
    (Autodiff.Tape.plan_compiles ());
  Alcotest.(check string) "warm pack identical" (Pack.digest cold) (Pack.digest warm);
  (* ... and the decoded plans execute identically to the cold pack's. *)
  let n = Pack.num_vars cold in
  let rng = Rng.create 47 in
  let batch = 7 in
  let ys = Array.make (batch * n) 0.0 in
  Array.iteri
    (fun l y -> Array.blit y 0 ys (l * n) n)
    (Array.init batch (fun _ -> sample_valid rng cold));
  let run pack =
    let bws = Pack.batch_workspace pack ~batch in
    Array.sub (Pack.features_forward_batch pack bws ~batch ys) 0 (batch * 82)
  in
  Alcotest.(check bool) "decoded plan bitwise" true
    (Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       (run cold) (run warm))

let test_prepare_all_parallel_identity () =
  let dir = fresh_cache_dir () in
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let pairs =
    List.concat_map
      (fun sg -> List.map (fun s -> (sg, s)) (Sketch.generate sg))
      [ dense_sg (); conv_sg () ]
  in
  Pack.clear_memory_cache ();
  let serial = List.map Pack.digest (Pack.prepare_all pairs) in
  Pack.clear_memory_cache ();
  let parallel =
    Runtime.with_runtime ~domains:4 (fun rt ->
        List.map Pack.digest (Pack.prepare_all ~runtime:rt pairs))
  in
  Pack.clear_memory_cache ();
  let parallel_disk_cold =
    Runtime.with_runtime ~domains:4 (fun rt ->
        List.map Pack.digest (Pack.prepare_all ~runtime:rt ~cache_dir:dir pairs))
  in
  Pack.clear_memory_cache ();
  let disk_warm = List.map Pack.digest (Pack.prepare_all ~cache_dir:dir pairs) in
  Alcotest.(check (list string)) "4 domains = serial" serial parallel;
  Alcotest.(check (list string)) "4 domains + cold disk = serial" serial
    parallel_disk_cold;
  Alcotest.(check (list string)) "1 domain + warm disk = serial" serial disk_warm

let test_prepare_cached_optimize_key () =
  Pack.clear_memory_cache ();
  let sg = dense_sg () in
  let sched = List.hd (Sketch.generate sg) in
  let opt = Pack.prepare_cached sg sched in
  let raw = Pack.prepare_cached ~optimize:false sg sched in
  let opt' = Pack.prepare_cached sg sched in
  let raw' = Pack.prepare_cached ~optimize:false sg sched in
  Alcotest.(check bool) "optimize=true memoised" true (opt == opt');
  Alcotest.(check bool) "optimize=false memoised" true (raw == raw');
  (* The flag is part of the key: the two entries never alias. *)
  Alcotest.(check bool) "flags do not collide" true (not (opt == raw))

let test_pack_env_matches_assignment () =
  let rng = Rng.create 23 in
  let sg = dense_sg () in
  let pack = Pack.prepare sg (List.hd (Sketch.generate sg)) in
  let y = sample_valid rng pack in
  let env = Pack.env_of pack y in
  List.iter
    (fun (name, v) -> check_close name (float_of_int v) (env name))
    (Pack.assignment pack y)

(* --- compiled feasibility check vs the interpreted oracle ------------------

   The reference composition [Pack.round_to_valid] replaced: divisors as a
   list and a first-minimum list argmin in log space, a string-keyed
   Hashtbl environment, and the raw constraints interpreted through
   [Eval.eval_cond]. Everything is rebuilt here from the pack's public
   view, so no production table or compiled closure is reused. *)

let oracle_divisors =
  let memo = Hashtbl.create 64 in
  fun n ->
    match Hashtbl.find_opt memo n with
    | Some ds -> ds
    | None ->
      let ds = ref [] in
      for d = n downto 1 do
        if n mod d = 0 then ds := d :: !ds
      done;
      Hashtbl.replace memo n !ds;
      !ds

let oracle_nearest_divisor n x =
  if x <= 0.0 then List.hd (oracle_divisors n)
  else
    let lx = log x in
    Stats.argmin (fun d -> Float.abs (log (float_of_int d) -. lx)) (oracle_divisors n)

let oracle_round_to_valid pack y =
  let names = Pack.var_names pack in
  let sched = Pack.schedule pack in
  let n = Array.length names in
  let index_of name =
    let rec go i = if names.(i) = name then i else go (i + 1) in
    go 0
  in
  let rounded = Array.make n nan in
  List.iter
    (fun (extent, vars) ->
      let remaining = ref extent in
      List.iter
        (fun v ->
          let i = index_of v in
          let d = oracle_nearest_divisor !remaining (exp y.(i)) in
          rounded.(i) <- log (float_of_int d);
          remaining := !remaining / d)
        vars)
    sched.Schedule.div_groups;
  let bounds = Pack.bounds_log pack in
  Array.iteri
    (fun i v ->
      if Float.is_nan v then begin
        let lo, hi = bounds.(i) in
        let x = Float.round (exp (Stats.clamp ~lo ~hi y.(i))) in
        rounded.(i) <- log (max 1.0 x)
      end)
    rounded;
  let tbl = Hashtbl.create n in
  Array.iteri (fun i name -> Hashtbl.replace tbl name (Float.round (exp rounded.(i)))) names;
  let env v =
    match Hashtbl.find_opt tbl v with Some x -> x | None -> raise (Eval.Unbound_variable v)
  in
  if List.for_all (Eval.eval_cond env) sched.Schedule.constraints then Some rounded
  else None

let same_rounding a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    Array.length a = Array.length b
    && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b
  | _ -> false

(* Every sketch of a spread of dataset tasks (dense, conv, pooling and
   elementwise subgraphs of several networks). *)
let oracle_packs =
  lazy
    (let tasks = Array.of_list (Dataset.collect_tasks ()) in
     let n = Array.length tasks in
     List.concat_map
       (fun k ->
         let sg = tasks.(k * (n - 1) / 7) in
         List.map (fun sched -> Pack.prepare sg sched) (Sketch.generate sg))
       [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* Random points in the box and around it, plus the adversarial ones:
   +-inf, NaN, and log-values whose exp overflows or underflows to 0. *)
let gen_point bounds : float array QCheck2.Gen.t =
  let open QCheck2.Gen in
  let coord (lo, hi) =
    frequency
      [ (6, map (fun u -> lo +. (u *. (hi -. lo))) (float_bound_inclusive 1.0));
        (2, map (fun u -> lo -. 3.0 +. (u *. (hi -. lo +. 6.0))) (float_bound_inclusive 1.0));
        (1, oneofl [ infinity; neg_infinity; nan; -1000.0; -745.2; 710.0; 1000.0; 0.0; -0.0 ]) ]
  in
  let rec go i acc =
    if i < 0 then return (Array.of_list acc) else coord bounds.(i) >>= fun c -> go (i - 1) (c :: acc)
  in
  go (Array.length bounds - 1) []

let test_round_to_valid_matches_oracle =
  let packs = lazy (Array.of_list (Lazy.force oracle_packs)) in
  let gen =
    QCheck2.Gen.(
      int_range 0 1_000_000 >>= fun k ->
      let packs = Lazy.force packs in
      let pack = packs.(k mod Array.length packs) in
      map (fun y -> (pack, y)) (gen_point (Pack.bounds_log pack)))
  in
  qtest ~count:3000 "round_to_valid = Hashtbl/Eval/list-argmin oracle" gen (fun (pack, y) ->
      same_rounding (oracle_round_to_valid pack y) (Pack.round_to_valid pack y))

let test_round_to_valid_every_sketch () =
  (* Each pack at its box corners and centre, and a few hundred random
     in-box points, so every sketch's constraints see feasible and
     infeasible points. *)
  let rng = Rng.create 31 in
  List.iter
    (fun pack ->
      let bounds = Pack.bounds_log pack in
      let points =
        [ Array.map fst bounds; Array.map snd bounds;
          Array.map (fun (lo, hi) -> 0.5 *. (lo +. hi)) bounds ]
        @ List.init 300 (fun _ -> Array.map (fun (lo, hi) -> Rng.range rng lo hi) bounds)
      in
      List.iter
        (fun y ->
          if not (same_rounding (oracle_round_to_valid pack y) (Pack.round_to_valid pack y))
          then
            Alcotest.failf "%s: rounding diverged from the oracle"
              (Pack.schedule pack).Schedule.sched_name)
        points)
    (Lazy.force oracle_packs)

let test_sample_valid_point_matches_oracle () =
  (* Same points and the same RNG state afterwards: the compiled check
     draws exactly what the oracle composition draws. *)
  List.iteri
    (fun k pack ->
      List.iter
        (fun seed ->
          let r1 = Rng.create seed and r2 = Rng.create seed in
          let bounds = Pack.bounds_log pack in
          let rec oracle n =
            if n = 0 then None
            else begin
              let y = Array.map (fun (lo, hi) -> Rng.range r2 lo hi) bounds in
              match oracle_round_to_valid pack y with
              | Some r -> Some r
              | None -> oracle (n - 1)
            end
          in
          for _ = 1 to 20 do
            let got = Dataset.sample_valid_point r1 pack 50 in
            let want = oracle 50 in
            if not (same_rounding want got) then
              Alcotest.failf "pack %d seed %d: sampled point diverged" k seed;
            if not (Int64.equal (Rng.state_bits r1) (Rng.state_bits r2)) then
              Alcotest.failf "pack %d seed %d: RNG state diverged" k seed
          done)
        [ 1; 2; 1234 ])
    (Lazy.force oracle_packs)

let test_compiled_cond_unbound_variable () =
  (* A name outside the index raises Unbound_variable when evaluation
     reaches it, and not when a short-circuit skips it, as in eval_cond. *)
  let index = function "a" -> Some 0 | "b" -> Some 1 | _ -> None in
  let vals = [| 2.0; 3.0 |] in
  let env v = match index v with Some i -> vals.(i) | None -> raise (Eval.Unbound_variable v) in
  let open Expr in
  let unbound = le (var "zz") (const 1.0) in
  let conds =
    [ ("reached", and_ (le (var "a") (var "b")) unbound);
      ("skipped by and", and_ (ge (var "a") (var "b")) unbound);
      ("skipped by or", or_ (le (var "a") (var "b")) unbound);
      ("under select", le (select (gt (var "a") zero) (var "q") (var "b")) (const 9.0));
      ("right operand first", lt (var "x1") (var "x2")) ]
  in
  List.iter
    (fun (what, c) ->
      let run f = match f () with b -> Ok b | exception Eval.Unbound_variable v -> Error v in
      let want = run (fun () -> Eval.eval_cond env c) in
      let got = run (fun () -> Eval.compile_cond index c vals) in
      if want <> got then Alcotest.failf "%s: compiled condition diverged" what)
    conds

let test_compiled_expr_matches_eval =
  let names = Array.of_list expr_vars in
  let index v =
    let rec go i = if i = Array.length names then None else if names.(i) = v then Some i else go (i + 1) in
    go 0
  in
  qtest ~count:300 "compiled expression = eval" QCheck2.Gen.(pair gen_expr gen_env)
    (fun (e, bindings) ->
      let vals = Array.map (fun v -> List.assoc v bindings) names in
      let want = eval_at bindings e and got = Eval.compile index e vals in
      Int64.equal (Int64.bits_of_float want) (Int64.bits_of_float got))

let tests =
  [ Alcotest.test_case "feature count is 82" `Quick test_feature_count;
    Alcotest.test_case "feature names unique" `Quick test_feature_names_unique;
    Alcotest.test_case "extract length and variable scoping" `Quick test_extract_length_and_vars;
    Alcotest.test_case "float_add formula (paper table)" `Quick test_float_add_formula;
    Alcotest.test_case "int_ops contains select (paper 3.3)" `Quick test_int_ops_has_select;
    test_pack_features_finite;
    Alcotest.test_case "pack gradient vs finite differences" `Quick test_pack_gradient_fd;
    test_pack_round_divisibility;
    Alcotest.test_case "penalty zero at feasible points" `Quick test_pack_penalty_zero_when_feasible;
    Alcotest.test_case "penalty positive when violated" `Quick test_pack_penalty_positive_when_violated;
    Alcotest.test_case "rounding rejects infeasible corner" `Quick test_pack_round_infeasible_returns_none;
    Alcotest.test_case "schedule key stability" `Quick test_pack_schedule_key_stability;
    Alcotest.test_case "schedule key matches legacy format" `Quick test_pack_schedule_key_format;
    Alcotest.test_case "tape optimiser exact on pack tapes" `Quick
      test_pack_unoptimized_tapes_bitwise;
    Alcotest.test_case "pack workspace sweeps bitwise-equal" `Quick test_pack_workspace_bitwise;
    Alcotest.test_case "pack batched sweeps bitwise-equal scalar" `Quick
      test_pack_batch_bitwise;
    Alcotest.test_case "warm disk hit skips plan compilation" `Quick
      test_pack_disk_warm_skips_plan_compile;
    Alcotest.test_case "prepare_cached exposes LRU counters" `Quick test_pack_cache_stats;
    Alcotest.test_case "disk cache round-trips bitwise" `Quick test_pack_disk_cache_bitwise;
    Alcotest.test_case "disk cache survives corruption" `Quick test_pack_disk_cache_corruption;
    Alcotest.test_case "prepare_all identical at 1/4 domains, cold/warm disk" `Quick
      test_prepare_all_parallel_identity;
    Alcotest.test_case "prepare_cached keys include optimize" `Quick
      test_prepare_cached_optimize_key;
    Alcotest.test_case "env matches integer assignment" `Quick test_pack_env_matches_assignment;
    test_round_to_valid_matches_oracle;
    Alcotest.test_case "round_to_valid = oracle on every sketch" `Quick
      test_round_to_valid_every_sketch;
    Alcotest.test_case "sample_valid_point = oracle, same RNG state" `Quick
      test_sample_valid_point_matches_oracle;
    Alcotest.test_case "compiled condition raises like eval_cond" `Quick
      test_compiled_cond_unbound_variable;
    test_compiled_expr_matches_eval ]
