(* Tests for lib/optim: Gradient_tuner, Evolutionary, Tuner, Tuning_config. *)

open Testutil

let quick = Tuning_config.quick

(* A lightweight cost model trained on a tiny dataset, shared across tests. *)
let shared_model =
  lazy
    (let rng = Rng.create 100 in
     let samples =
       Dataset.generate rng Device.rtx_a5000 ~schedules_per_task:60
         [ dense_sg (); conv_sg () ]
     in
     let ds = Dataset.split rng samples in
     let model, _ = Train.pretrain rng ~epochs:5 ~hidden:[ 64; 64 ] ds in
     model)

let test_clock () =
  let c = Tuning_config.Clock.create () in
  check_close "zero" 0.0 (Tuning_config.Clock.now c);
  Tuning_config.Clock.advance c 1.5;
  Tuning_config.Clock.advance c 2.0;
  check_close "accumulates" 3.5 (Tuning_config.Clock.now c)

let test_config_defaults_match_paper () =
  let d = Tuning_config.default in
  Alcotest.(check int) "nSeeds = 8" 8 d.Tuning_config.nseeds;
  Alcotest.(check int) "nSteps = 200" 200 d.Tuning_config.nsteps;
  Alcotest.(check int) "nMeasure = 16" 16 d.Tuning_config.nmeasure_felix;
  Alcotest.(check int) "Ansor measures 64" 64 d.Tuning_config.nmeasure_ansor;
  Alcotest.(check int) "4 generations" 4 d.Tuning_config.generations

let test_descend_reduces_objective () =
  let model = Lazy.force shared_model in
  let rng = Rng.create 11 in
  let sg = dense_sg () in
  let sched = List.nth (Sketch.generate sg) 1 in
  let pack = Pack.prepare sg sched in
  let improved = ref 0 in
  let cfg = { quick with Tuning_config.nsteps = 80 } in
  let seeds = Array.init 5 (fun _ -> sample_valid rng pack) in
  Array.iter
    (fun hist ->
      let first = snd (List.hd hist) in
      let best = List.fold_left (fun acc (_, o) -> min acc o) infinity hist in
      if best < first then incr improved)
    (Gradient_tuner.descend_batch cfg model pack seeds);
  Alcotest.(check bool) "objective improves for most seeds" true (!improved >= 4)

let test_search_round_respects_budget () =
  let model = Lazy.force shared_model in
  let rng = Rng.create 12 in
  let sg = dense_sg () in
  let packs = List.map (Pack.prepare sg) (Sketch.generate sg) in
  let cands, trace =
    Gradient_tuner.search_round quick rng model packs ~already_measured:(fun _ -> false)
  in
  Alcotest.(check bool) "at most nmeasure" true
    (List.length cands <= quick.Tuning_config.nmeasure_felix);
  Alcotest.(check bool) "trace has predictions" true
    (List.length trace.Gradient_tuner.predictions > 0);
  (* keys unique *)
  let keys = List.map (fun (c : Gradient_tuner.candidate) -> c.key) cands in
  Alcotest.(check int) "unique keys" (List.length keys)
    (List.length (List.sort_uniq String.compare keys));
  (* candidates sorted by predicted, best first *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      (a : Gradient_tuner.candidate).predicted >= b.predicted && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted cands)

let test_search_round_excludes_measured () =
  let model = Lazy.force shared_model in
  let rng = Rng.create 13 in
  let sg = dense_sg () in
  let packs = List.map (Pack.prepare sg) (Sketch.generate sg) in
  let first, _ =
    Gradient_tuner.search_round quick rng model packs ~already_measured:(fun _ -> false)
  in
  let measured = List.map (fun (c : Gradient_tuner.candidate) -> c.key) first in
  let second, _ =
    Gradient_tuner.search_round quick (Rng.create 13) model packs
      ~already_measured:(fun k -> List.mem k measured)
  in
  List.iter
    (fun (c : Gradient_tuner.candidate) ->
      if List.mem c.key measured then Alcotest.fail "returned an already-measured schedule")
    second

let test_candidates_are_valid () =
  let model = Lazy.force shared_model in
  let rng = Rng.create 14 in
  let sg = conv_sg () in
  let packs = List.map (Pack.prepare sg) (Sketch.generate sg) in
  let cands, _ =
    Gradient_tuner.search_round quick rng model packs ~already_measured:(fun _ -> false)
  in
  Alcotest.(check bool) "found candidates" true (List.length cands > 0);
  List.iter
    (fun (c : Gradient_tuner.candidate) ->
      match Pack.round_to_valid c.pack c.y with
      | Some r -> Alcotest.(check string) "round idempotent" c.key (Pack.schedule_key c.pack r)
      | None -> Alcotest.fail "candidate is not a valid schedule")
    cands

let test_mutate_validity () =
  let rng = Rng.create 15 in
  let sg = dense_sg () in
  let pack = Pack.prepare sg (List.nth (Sketch.generate sg) 1) in
  let y = sample_valid rng pack in
  let ok = ref 0 in
  for _ = 1 to 30 do
    match Evolutionary.mutate rng pack y with
    | Some y' -> (
      incr ok;
      match Pack.round_to_valid pack y' with
      | Some _ -> ()
      | None -> Alcotest.fail "mutate returned invalid point")
    | None -> ()
  done;
  Alcotest.(check bool) "mutations mostly succeed" true (!ok > 15)

let test_crossover_validity () =
  let rng = Rng.create 16 in
  let sg = dense_sg () in
  let pack = Pack.prepare sg (List.nth (Sketch.generate sg) 1) in
  let a = sample_valid rng pack and b = sample_valid rng pack in
  for _ = 1 to 20 do
    match Evolutionary.crossover rng pack a b with
    | Some y -> (
      match Pack.round_to_valid pack y with
      | Some _ -> ()
      | None -> Alcotest.fail "crossover returned invalid point")
    | None -> ()
  done

let test_evolutionary_round () =
  let model = Lazy.force shared_model in
  let rng = Rng.create 17 in
  let sg = dense_sg () in
  let packs = List.map (Pack.prepare sg) (Sketch.generate sg) in
  let inds, trace =
    Evolutionary.search_round quick rng model packs ~elites:[] ~already_measured:(fun _ -> false)
  in
  Alcotest.(check bool) "bounded by nmeasure" true
    (List.length inds <= quick.Tuning_config.nmeasure_ansor);
  Alcotest.(check bool) "evaluated plenty" true (trace.Evolutionary.evaluated > 50);
  let keys = List.map (fun (i : Evolutionary.individual) -> i.key) inds in
  Alcotest.(check int) "unique" (List.length keys)
    (List.length (List.sort_uniq String.compare keys))

let test_tune_single_improves () =
  let model = Lazy.force shared_model in
  List.iter
    (fun engine ->
      let r =
        run_tuner_single
          (with_test_runtime Tuning_config.(builder |> with_search quick |> with_seed 4))
          ~rounds:4 Device.rtx_a5000 model (dense_sg ()) engine
      in
      let first = (List.hd r.Tuner.curve).Tuner.latency_ms in
      Alcotest.(check bool)
        (Tuner.engine_name engine ^ " improves")
        true
        (r.Tuner.best.Tuner.latency_ms < first);
      (* curve is monotone non-increasing *)
      let rec mono = function
        | (a : Tuner.progress_point) :: (b :: _ as rest) ->
          a.latency_ms >= b.latency_ms -. 1e-9 && mono rest
        | _ -> true
      in
      Alcotest.(check bool) "monotone curve" true (mono r.Tuner.curve))
    [ Tuner.Felix; Tuner.Ansor ]

let test_tune_single_deterministic () =
  let model = Lazy.force shared_model in
  let run () =
    run_tuner_single
      Tuning_config.(builder |> with_search quick |> with_seed 7)
      ~rounds:2 Device.rtx_a5000 model (dense_sg ()) Tuner.Felix
  in
  let a = run () and b = run () in
  check_close "same final" a.Tuner.best.Tuner.latency_ms b.Tuner.best.Tuner.latency_ms

let test_tune_network () =
  let model = Lazy.force shared_model in
  let g = Workload.graph Workload.Dcgan in
  let cfg = { quick with Tuning_config.max_rounds = 10 } in
  let r =
    run_tuner
      (with_test_runtime Tuning_config.(builder |> with_search cfg |> with_seed 5))
      Device.rtx_a5000 model g Tuner.Felix
  in
  Alcotest.(check bool) "finite latency" true (Float.is_finite r.Tuner.final_latency_ms);
  Alcotest.(check bool) "tasks reported" true (List.length r.Tuner.tasks = 5);
  Alcotest.(check bool) "clock advanced" true
    ((List.hd (List.rev r.Tuner.curve)).Tuner.time_s > 0.0);
  Alcotest.(check bool) "measured something" true (r.Tuner.total_measurements > 5);
  (* every tuned task reports a valid assignment *)
  List.iter
    (fun (tr : Tuner.task_result) ->
      if Float.is_finite tr.best.Tuner.latency_ms && tr.best.Tuner.latency_ms > 0.0 then ()
      else Alcotest.failf "task %s has no result" tr.task.Partition.subgraph.Compute.sg_name)
    r.Tuner.tasks

let test_scheduler_prefers_heavy_tasks () =
  let model = Lazy.force shared_model in
  let g = Workload.graph Workload.Dcgan in
  let cfg = { quick with Tuning_config.max_rounds = 10 } in
  let r =
    run_tuner
      Tuning_config.(builder |> with_search cfg |> with_seed 6)
      Device.rtx_a5000 model g Tuner.Felix
  in
  (* the most expensive task must have received at least one round *)
  let heaviest =
    Stats.argmax
      (fun (tr : Tuner.task_result) ->
        float_of_int tr.task.Partition.weight *. Partition.task_flops tr.task)
      r.Tuner.tasks
  in
  Alcotest.(check bool) "heaviest task tuned" true (heaviest.rounds_spent >= 1)

(* --- batched objective kernel ---------------------------------------------- *)

let bits_eq a b =
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    a b

let float_bits_eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* The scalar reference composition of Equation 4's objective and its
   gradient: one point at a time through the interpreter oracles
   (features_at, input_gradient, features_vjp, penalty_value_grad). Every
   batched lane must reproduce it bit for bit. *)
let reference_value_grad ~lambda model pack y =
  let feats = Pack.features_at pack y in
  let score, dscore_dfeat = Mlp.input_gradient model feats in
  let adj = Array.map (fun d -> -.d) dscore_dfeat in
  let _, dy_model = Pack.features_vjp pack y adj in
  let pval, pgrad = Pack.penalty_value_grad pack y in
  let obj = -.score +. (lambda *. pval) in
  let grad = Array.mapi (fun i g -> g +. (lambda *. pgrad.(i))) dy_model in
  (obj, grad)

let lane_major n points =
  let ys = Array.make (Array.length points * n) 0.0 in
  Array.iteri (fun l y -> Array.blit y 0 ys (l * n) n) points;
  ys

(* One tile's value/gradient/prediction through [obj]. *)
let eval_tile ~lambda obj points =
  let pack = Objective.pack obj in
  let batch = Array.length points and n = Pack.num_vars pack in
  let ys = lane_major n points in
  let grads = Array.make (batch * n) nan and objs = Array.make batch nan in
  Objective.value_grad_batch obj ~lambda ~batch ys ~grads ~objs;
  let scores = Array.make batch nan in
  Objective.predict_batch obj ~batch ys ~scores;
  Array.init batch (fun l -> (objs.(l), Array.sub grads (l * n) n, scores.(l)))

let test_objective_parallel_bitwise () =
  (* One model and pack shared by chunks on 4 domains, each chunk with its
     own workspace: results equal the 1-domain run (one workspace reused
     for two tiles of 32) and the reference. *)
  let model = Lazy.force shared_model in
  let rng = Rng.create 43 in
  let sg = dense_sg () in
  let pack = Pack.prepare sg (List.nth (Sketch.generate sg) 1) in
  let points = Array.init 64 (fun _ -> sample_valid rng pack) in
  let run ?runtime () =
    Objective.map_tiles ?runtime model (fun _ -> pack) points (eval_tile ~lambda:10.0)
  in
  let seq = run () in
  Runtime.with_runtime ~domains:4 (fun rt ->
      let par = run ~runtime:rt () in
      Array.iteri
        (fun i (o_s, g_s, p_s) ->
          let o_p, g_p, p_p = par.(i) in
          let o_r, g_r = reference_value_grad ~lambda:10.0 model pack points.(i) in
          if not (float_bits_eq o_s o_p && float_bits_eq o_s o_r) then
            Alcotest.failf "point %d: parallel objective diverged" i;
          if not (float_bits_eq p_s p_p) then
            Alcotest.failf "point %d: parallel prediction diverged" i;
          Alcotest.(check bool) "parallel gradient bitwise" true
            (bits_eq g_s g_p && bits_eq g_s g_r))
        seq)

let test_descend_matches_manual_legacy_loop () =
  (* Lockstep descent must retrace the manual Adam loop over the scalar
     reference objective, lane for lane, bit for bit. *)
  let model = Lazy.force shared_model in
  let rng = Rng.create 47 in
  let sg = dense_sg () in
  let pack = Pack.prepare sg (List.nth (Sketch.generate sg) 1) in
  let cfg = { quick with Tuning_config.nsteps = 40 } in
  let lambda = cfg.Tuning_config.lambda in
  let seeds = Array.init 3 (fun _ -> sample_valid rng pack) in
  let manual y0 =
    let y = Array.copy y0 in
    let adam = Adam.create ~lr:cfg.Tuning_config.gd_lr (Array.length y) in
    let bounds = Pack.bounds_log pack in
    let history = ref [] in
    for _ = 1 to cfg.Tuning_config.nsteps do
      let obj, grad = reference_value_grad ~lambda model pack y in
      history := (Array.copy y, obj) :: !history;
      Adam.step adam ~params:y ~grads:grad;
      Array.iteri
        (fun i (lo, hi) -> y.(i) <- Stats.clamp ~lo:(lo -. 0.7) ~hi:(hi +. 0.7) y.(i))
        bounds
    done;
    let obj, _ = reference_value_grad ~lambda model pack y in
    history := (Array.copy y, obj) :: !history;
    List.rev !history
  in
  let batched = Gradient_tuner.descend_batch cfg model pack seeds in
  Array.iteri
    (fun l y0 ->
      let reference = manual y0 and traj = batched.(l) in
      Alcotest.(check int) "trajectory length" (List.length reference) (List.length traj);
      List.iteri
        (fun i ((y_m, o_m), (y_f, o_f)) ->
          if not (float_bits_eq o_m o_f) then
            Alcotest.failf "seed %d step %d: objective diverged (%h vs %h)" l i o_m o_f;
          Alcotest.(check bool) "iterate bitwise" true (bits_eq y_m y_f))
        (List.combine reference traj))
    seeds

let test_objective_batch_bitwise () =
  (* Lane l of the batched evaluation must be bitwise the scalar reference
     on that candidate alone, at any batch size, on every sketch. *)
  let model = Lazy.force shared_model in
  let rng = Rng.create 59 in
  let lambda = quick.Tuning_config.lambda in
  List.iter
    (fun sg ->
      List.iter
        (fun sched ->
          let pack = Pack.prepare sg sched in
          List.iter
            (fun batch ->
              let points = Array.init batch (fun _ -> sample_valid rng pack) in
              Array.iteri
                (fun l (o, g, p) ->
                  let y = points.(l) in
                  let o_r, g_r = reference_value_grad ~lambda model pack y in
                  if not (float_bits_eq o_r o) then
                    Alcotest.failf "batch %d lane %d: objective diverged" batch l;
                  Alcotest.(check bool) "gradient bitwise" true (bits_eq g_r g);
                  if not (float_bits_eq (Mlp.forward model (Pack.features_at pack y)) p) then
                    Alcotest.failf "batch %d lane %d: prediction diverged" batch l)
                (eval_tile ~lambda (Objective.create ~batch model pack) points))
            [ 1; 5; 32 ])
        (Sketch.generate sg))
    [ dense_sg (); conv_sg () ]

let check_trajectories label reference batched =
  Array.iteri
    (fun l traj ->
      let traj' = batched.(l) in
      Alcotest.(check int) "trajectory length" (List.length traj) (List.length traj');
      List.iteri
        (fun i ((y_s, o_s), (y_b, o_b)) ->
          if not (float_bits_eq o_s o_b) then
            Alcotest.failf "%s seed %d step %d: objective diverged" label l i;
          Alcotest.(check bool) "iterate bitwise" true (bits_eq y_s y_b))
        (List.combine traj traj'))
    reference

let test_descend_batch_bitwise () =
  (* Every lane of the lockstep descent must retrace the lone descent of
     its seed, whatever the tile split: 5 seeds run as one tile at 1
     domain, as tiles of 2 and 3 at 2 domains and of 1/1/1/2 at 4. *)
  let model = Lazy.force shared_model in
  let rng = Rng.create 61 in
  let sg = dense_sg () in
  let pack = Pack.prepare sg (List.nth (Sketch.generate sg) 1) in
  let cfg = { quick with Tuning_config.nsteps = 25 } in
  let seeds = Array.init 5 (fun _ -> sample_valid rng pack) in
  let alone =
    Array.map (fun y0 -> (Gradient_tuner.descend_batch cfg model pack [| y0 |]).(0)) seeds
  in
  check_trajectories "1 domain" alone (Gradient_tuner.descend_batch cfg model pack seeds);
  List.iter
    (fun domains ->
      Runtime.with_runtime ~domains (fun rt ->
          check_trajectories
            (Printf.sprintf "%d domains" domains)
            alone
            (Gradient_tuner.descend_batch cfg ~runtime:rt model pack seeds)))
    [ 2; 4 ]

let test_search_round_batch_bitwise () =
  (* search_round at 1, 2 and 4 domains (so different tile splits) must
     return the same candidates, bit for bit. *)
  let model = Lazy.force shared_model in
  let packs = List.map (Pack.prepare (dense_sg ())) (Sketch.generate (dense_sg ())) in
  let run ?runtime () =
    Gradient_tuner.search_round quick (Rng.create 17) ?runtime model packs
      ~already_measured:(fun _ -> false)
  in
  let reference, ref_trace = run () in
  let check label (cands, (trace : Gradient_tuner.trace)) =
    Alcotest.(check int)
      (label ^ ": candidate count")
      (List.length reference) (List.length cands);
    List.iteri
      (fun i ((a : Gradient_tuner.candidate), (b : Gradient_tuner.candidate)) ->
        Alcotest.(check string) (Printf.sprintf "%s: key %d" label i) a.key b.key;
        if not (float_bits_eq a.predicted b.predicted) then
          Alcotest.failf "%s: prediction %d diverged" label i;
        Alcotest.(check bool) "rounded point bitwise" true (bits_eq a.y b.y))
      (List.combine reference cands);
    Alcotest.(check int)
      (label ^ ": steps done")
      ref_trace.Gradient_tuner.steps_done trace.Gradient_tuner.steps_done;
    Alcotest.(check bool)
      (label ^ ": predictions bitwise")
      true
      (bits_eq
         (Array.of_list ref_trace.Gradient_tuner.predictions)
         (Array.of_list trace.Gradient_tuner.predictions))
  in
  List.iter
    (fun domains ->
      Runtime.with_runtime ~domains (fun rt ->
          check (Printf.sprintf "%d domains" domains) (run ~runtime:rt ())))
    [ 2; 4 ]

let test_evolutionary_batch_bitwise () =
  let model = Lazy.force shared_model in
  let packs = List.map (Pack.prepare (dense_sg ())) (Sketch.generate (dense_sg ())) in
  let run ?runtime () =
    Evolutionary.search_round quick (Rng.create 19) ?runtime model packs ~elites:[]
      ~already_measured:(fun _ -> false)
  in
  let reference, ref_trace = run () in
  List.iter
    (fun domains ->
      Runtime.with_runtime ~domains (fun rt ->
          let scored, trace = run ~runtime:rt () in
          Alcotest.(check int) "population size" (List.length reference) (List.length scored);
          List.iteri
            (fun i ((a : Evolutionary.individual), (b : Evolutionary.individual)) ->
              Alcotest.(check string) (Printf.sprintf "key %d" i) a.Evolutionary.key
                b.Evolutionary.key;
              if not (float_bits_eq a.Evolutionary.predicted b.Evolutionary.predicted) then
                Alcotest.failf "%d domains: individual %d prediction diverged" domains i)
            (List.combine reference scored);
          Alcotest.(check bool)
            (Printf.sprintf "%d domains: predictions bitwise" domains)
            true
            (bits_eq
               (Array.of_list ref_trace.Evolutionary.predictions)
               (Array.of_list trace.Evolutionary.predictions))))
    [ 2; 4 ]

let tests =
  [ Alcotest.test_case "clock" `Quick test_clock;
    Alcotest.test_case "defaults match the paper" `Quick test_config_defaults_match_paper;
    Alcotest.test_case "gradient descent reduces the objective" `Slow test_descend_reduces_objective;
    Alcotest.test_case "shared objective is parallel-deterministic" `Slow
      test_objective_parallel_bitwise;
    Alcotest.test_case "descend retraces the legacy Adam loop" `Slow
      test_descend_matches_manual_legacy_loop;
    Alcotest.test_case "batched objective bitwise-equals scalar" `Slow
      test_objective_batch_bitwise;
    Alcotest.test_case "lockstep descent retraces scalar descents" `Slow
      test_descend_batch_bitwise;
    Alcotest.test_case "batched search round is bit-identical" `Slow
      test_search_round_batch_bitwise;
    Alcotest.test_case "batched evolutionary scoring is bit-identical" `Slow
      test_evolutionary_batch_bitwise;
    Alcotest.test_case "felix round respects measurement budget" `Slow
      test_search_round_respects_budget;
    Alcotest.test_case "felix round excludes measured schedules" `Slow
      test_search_round_excludes_measured;
    Alcotest.test_case "felix candidates are valid schedules" `Slow test_candidates_are_valid;
    Alcotest.test_case "evolutionary mutation validity" `Slow test_mutate_validity;
    Alcotest.test_case "evolutionary crossover validity" `Slow test_crossover_validity;
    Alcotest.test_case "evolutionary round" `Slow test_evolutionary_round;
    Alcotest.test_case "single-task tuning improves (both engines)" `Slow
      test_tune_single_improves;
    Alcotest.test_case "tuning is deterministic under a seed" `Slow test_tune_single_deterministic;
    Alcotest.test_case "full-network tuning (DCGAN)" `Slow test_tune_network;
    Alcotest.test_case "task scheduler reaches heavy tasks" `Slow test_scheduler_prefers_heavy_tasks ]

(* --- export ----------------------------------------------------------------- *)

let test_json_writer () =
  let open Export.Json in
  Alcotest.(check string) "null" "null" (to_string Null);
  Alcotest.(check string) "bool" "true" (to_string (Bool true));
  Alcotest.(check string) "int-like" "42" (to_string (Num 42.0));
  Alcotest.(check string) "escape" "\"a\\\"b\\n\"" (to_string (Str "a\"b\n"));
  Alcotest.(check string) "empty obj" "{}" (to_string (Obj []));
  Alcotest.(check string) "infinity becomes null" "null" (to_string (Num infinity));
  let s = to_string (Obj [ ("xs", List [ Num 1.0; Num 2.0 ]) ]) in
  Alcotest.(check bool) "nested render" true
    (Testutil.contains ~needle:"\"xs\"" s && Testutil.contains ~needle:"1" s)

let test_export_roundtrip () =
  let model = Lazy.force shared_model in
  let g = Workload.graph Workload.Dcgan in
  let cfg = { quick with Tuning_config.max_rounds = 4 } in
  let r =
    run_tuner
      Tuning_config.(builder |> with_search cfg |> with_seed 8)
      Device.rtx_a5000 model g Tuner.Felix
  in
  let csv = Export.curve_to_csv r in
  Alcotest.(check bool) "csv header" true
    (Testutil.contains ~needle:"time_s,latency_ms" csv);
  Alcotest.(check int) "csv rows = curve points + header"
    (List.length r.Tuner.curve + 1)
    (List.length (String.split_on_char '\n' (String.trim csv)));
  let json = Export.result_to_json r in
  Alcotest.(check bool) "json has network" true
    (Testutil.contains ~needle:"\"network\"" json);
  Alcotest.(check bool) "json has tasks" true (Testutil.contains ~needle:"\"tasks\"" json);
  Alcotest.(check bool) "json has engine" true (Testutil.contains ~needle:"Felix" json);
  (* files: CSV plus the versioned result artifact, reloaded bit-exactly *)
  let p1 = Filename.temp_file "felix_curve" ".csv" in
  let p2 = Filename.temp_file "felix_res" ".json" in
  (match Export.write_curve_csv r p1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write_curve_csv: %s" (Store.error_message e));
  (match Export.save_result r p2 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save_result: %s" (Store.error_message e));
  (match Export.load_result p2 with
  | Error e -> Alcotest.failf "load_result: %s" (Store.error_message e)
  | Ok s ->
    Alcotest.(check string) "network round-trips" r.Tuner.network s.Export.sr_network;
    Alcotest.(check int) "tasks round-trip"
      (List.length r.Tuner.tasks)
      (List.length s.Export.sr_tasks);
    Alcotest.(check bool) "final latency bit-exact" true
      (Int64.bits_of_float r.Tuner.final_latency_ms
      = Int64.bits_of_float s.Export.sr_final_latency_ms);
    Alcotest.(check bool) "curve bit-exact" true
      (List.for_all2
         (fun (p : Tuner.progress_point) (t, l) ->
           Int64.bits_of_float p.Tuner.time_s = Int64.bits_of_float t
           && Int64.bits_of_float p.Tuner.latency_ms = Int64.bits_of_float l)
         r.Tuner.curve s.Export.sr_curve));
  (* a foreign artifact is refused with a typed error *)
  (match Mlp.save_file (Lazy.force shared_model) p2 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mlp save: %s" (Store.error_message e));
  (match Export.load_result p2 with
  | Error (Store.Kind_mismatch _) -> ()
  | Error e -> Alcotest.failf "expected kind mismatch, got %s" (Store.error_message e)
  | Ok _ -> Alcotest.fail "loaded an MLP artifact as a result");
  Sys.remove p1;
  Sys.remove p2

let export_tests =
  [ Alcotest.test_case "json writer" `Quick test_json_writer;
    Alcotest.test_case "export csv/json roundtrip" `Slow test_export_roundtrip ]

let tests = tests @ export_tests

let test_random_engine () =
  let model = Lazy.force shared_model in
  let r =
    run_tuner_single
      Tuning_config.(builder |> with_search quick |> with_seed 9)
      ~rounds:3 Device.rtx_a5000 model (dense_sg ()) Tuner.Random
  in
  Alcotest.(check bool) "random search improves over initial" true
    (r.Tuner.best.Tuner.latency_ms < (List.hd r.Tuner.curve).Tuner.latency_ms);
  Alcotest.(check bool) "no cost-model predictions" true (r.Tuner.predictions = [])

let tests = tests @ [ Alcotest.test_case "random-search engine" `Slow test_random_engine ]

let test_headline_felix_faster_than_ansor () =
  (* The paper's headline claim as a regression test: on a matmul subgraph,
     Felix reaches 90% of Ansor's best performance in less simulated tuning
     time (Table 2). Deterministic under the fixed seeds. *)
  let model = Lazy.force shared_model in
  let cfg = { quick with Tuning_config.max_rounds = 6 } in
  let run engine =
    run_tuner_single
      Tuning_config.(builder |> with_search cfg |> with_seed 21)
      ~rounds:6 Device.rtx_a5000 model (dense_sg ()) engine
  in
  let felix = run Tuner.Felix and ansor = run Tuner.Ansor in
  let target = ansor.Tuner.best.Tuner.latency_ms /. 0.90 in
  let time_to curve =
    List.find_map
      (fun (p : Tuner.progress_point) -> if p.latency_ms <= target then Some p.time_s else None)
      curve
  in
  match (time_to felix.Tuner.curve, time_to ansor.Tuner.curve) with
  | Some tf, Some ta ->
    Alcotest.(check bool)
      (Printf.sprintf "felix %.0fs <= ansor %.0fs to the 90%% milestone" tf ta)
      true (tf <= ta)
  | None, _ -> Alcotest.fail "felix never reached the 90% milestone"
  | _, None -> Alcotest.fail "ansor never reached its own 90% milestone"

let tests =
  tests
  @ [ Alcotest.test_case "headline: felix reaches 90% milestone before ansor" `Slow
        test_headline_felix_faster_than_ansor ]

(* --- tuning events ---------------------------------------------------------- *)

let run_with_events ?(seed = 31) ~max_rounds () =
  let model = Lazy.force shared_model in
  let g = Workload.graph Workload.Dcgan in
  let cfg = { quick with Tuning_config.max_rounds } in
  let events = ref [] in
  let r =
    run_tuner
      Tuning_config.(
        builder |> with_search cfg |> with_seed seed
        |> with_on_event (fun e -> events := e :: !events))
      Device.rtx_a5000 model g Tuner.Felix
  in
  (r, List.rev !events)

let test_event_sequence_well_formed () =
  let _, events = run_with_events ~max_rounds:2 () in
  (* Bracketing: one Tuning_started first, one Tuning_finished last. *)
  (match events with
  | Tuner.Tuning_started { n_tasks; _ } :: _ ->
    Alcotest.(check bool) "tasks announced" true (n_tasks > 0)
  | _ -> Alcotest.fail "first event is not Tuning_started");
  (match List.rev events with
  | Tuner.Tuning_finished _ :: Tuner.Budget_exhausted { reason; _ } :: _ ->
    Alcotest.(check string) "stopped on round budget" "rounds"
      (Tuner.budget_reason_name reason)
  | _ -> Alcotest.fail "run does not end with Budget_exhausted; Tuning_finished");
  (* Starts/finishes are paired per round, in order, covering every round. *)
  let starts =
    List.filter_map (function Tuner.Round_started { round; _ } -> Some round | _ -> None) events
  in
  let finishes =
    List.filter_map
      (function Tuner.Round_finished { round; _ } -> Some round | _ -> None)
      events
  in
  Alcotest.(check (list int)) "every round started in order" [ 1; 2 ] starts;
  Alcotest.(check (list int)) "every round finished in order" [ 1; 2 ] finishes;
  (* Each round's interior events sit between its start and finish, and every
     round reports one Candidates_measured. *)
  let rec well_nested current = function
    | [] -> Alcotest.(check (option int)) "all rounds closed" None current
    | e :: rest -> (
      match e with
      | Tuner.Round_started { round; _ } ->
        Alcotest.(check (option int)) "no nested round" None current;
        well_nested (Some round) rest
      | Tuner.Round_finished { round; _ } ->
        Alcotest.(check (option int)) "finish matches open round" (Some round) current;
        well_nested None rest
      | Tuner.Candidates_measured { round; _ }
      | Tuner.Task_improved { round; _ }
      | Tuner.Model_updated { round; _ } ->
        Alcotest.(check (option int)) "round event inside its round" (Some round) current;
        well_nested current rest
      | Tuner.Tuning_started _ | Tuner.Budget_exhausted _ | Tuner.Tuning_finished _ ->
        well_nested current rest)
  in
  well_nested None events;
  let measured_events =
    List.filter (function Tuner.Candidates_measured _ -> true | _ -> false) events
  in
  Alcotest.(check int) "one measurement event per round" 2 (List.length measured_events)

let test_event_clock_monotone () =
  let _, events = run_with_events ~max_rounds:3 () in
  let clocks =
    List.filter_map
      (function
        | Tuner.Round_started { sim_clock_s; _ }
        | Tuner.Candidates_measured { sim_clock_s; _ }
        | Tuner.Round_finished { sim_clock_s; _ }
        | Tuner.Budget_exhausted { sim_clock_s; _ }
        | Tuner.Tuning_finished { sim_clock_s; _ } -> Some sim_clock_s
        | _ -> None)
      events
  in
  Alcotest.(check bool) "clock readings present" true (List.length clocks > 6);
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "simulated clock is monotone across events" true (mono clocks)

let test_events_do_not_change_result () =
  let plain, _ = run_with_events ~max_rounds:2 () in
  let model = Lazy.force shared_model in
  let g = Workload.graph Workload.Dcgan in
  let cfg = { quick with Tuning_config.max_rounds = 2 } in
  (* Same seed, no callback, private telemetry registry: identical result. *)
  let bare =
    run_tuner
      Tuning_config.(
        builder |> with_search cfg |> with_seed 31
        |> with_telemetry (Telemetry.create ()))
      Device.rtx_a5000 model g Tuner.Felix
  in
  check_close "same final latency" plain.Tuner.final_latency_ms bare.Tuner.final_latency_ms;
  Alcotest.(check int) "same measurement count" plain.Tuner.total_measurements
    bare.Tuner.total_measurements;
  Alcotest.(check int) "same curve length" (List.length plain.Tuner.curve)
    (List.length bare.Tuner.curve)

let test_round_spans_recorded () =
  let model = Lazy.force shared_model in
  let reg = Telemetry.create () in
  let spans = ref [] in
  Telemetry.add_sink reg (fun r ->
      if r.Telemetry.r_kind = Telemetry.Span then spans := r :: !spans);
  let _ =
    run_tuner_single
      Tuning_config.(
        builder |> with_search quick |> with_seed 12 |> with_telemetry reg)
      ~rounds:2 Device.rtx_a5000 model (dense_sg ()) Tuner.Felix
  in
  let rounds = List.filter (fun r -> r.Telemetry.r_name = "tuner.round") !spans in
  Alcotest.(check int) "one span per round" 2 (List.length rounds);
  List.iter
    (fun r ->
      let has k = List.mem_assoc k r.Telemetry.r_attrs in
      Alcotest.(check bool) "span carries engine/task/counts/best" true
        (has "engine" && has "task" && has "proposed" && has "measured" && has "best_ms"))
    rounds

(* Pack's prepare-time instruments live on Telemetry.global (like its LRU
   counters), so this test enables the global registry around a full run
   and checks deltas; disabled again afterwards so other tests see the
   default-inert registry. *)
let test_prepare_telemetry_through_run () =
  let model = Lazy.force shared_model in
  let dir = Filename.temp_file "felix_pack_cache" "" in
  Sys.remove dir;
  let reg = Telemetry.global in
  let h = Telemetry.histogram reg "felix.prepare_ms" in
  let c_hits = Telemetry.counter reg "features.pack_cache_disk_hits" in
  let c_misses = Telemetry.counter reg "features.pack_cache_disk_misses" in
  Telemetry.enable reg;
  let finally () =
    Telemetry.disable reg;
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  Fun.protect ~finally @@ fun () ->
  let observations_before = Telemetry.Histogram.count h in
  let misses_before = Telemetry.Counter.value c_misses in
  let hits_before = Telemetry.Counter.value c_hits in
  let run () =
    Pack.clear_memory_cache ();
    run_tuner_single
      Tuning_config.(
        builder |> with_search quick |> with_seed 12 |> with_pack_cache dir)
      ~rounds:1 Device.rtx_a5000 model (dense_sg ()) Tuner.Felix
  in
  let _ = run () in
  Alcotest.(check bool) "prepare_ms histogram observed" true
    (Telemetry.Histogram.count h > observations_before);
  Alcotest.(check bool) "cold run missed the disk cache" true
    (Telemetry.Counter.value c_misses > misses_before);
  let hits_mid = Telemetry.Counter.value c_hits in
  let _ = run () in
  Alcotest.(check bool) "second run hit the disk cache" true
    (Telemetry.Counter.value c_hits > hits_mid);
  Alcotest.(check bool) "no hits before the cache was warm" true
    (hits_mid = hits_before)

let tests =
  tests
  @ [ Alcotest.test_case "event sequence is well-formed" `Slow test_event_sequence_well_formed;
      Alcotest.test_case "event clock is monotone" `Slow test_event_clock_monotone;
      Alcotest.test_case "events/telemetry leave the result unchanged" `Slow
        test_events_do_not_change_result;
      Alcotest.test_case "per-round telemetry spans" `Slow test_round_spans_recorded;
      Alcotest.test_case "prepare telemetry and disk counters through a run" `Slow
        test_prepare_telemetry_through_run ]
