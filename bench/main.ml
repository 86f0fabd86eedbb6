(* Benchmark harness: reproduces every table and figure of the paper's
   evaluation (Section 6) and runs Bechamel micro-benchmarks of the
   components each experiment exercises.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe fig7 tab1  # selected experiments
     dune exec bench/main.exe micro      # Bechamel micro-benchmarks only
   Scale is controlled with FELIX_BENCH_SCALE=quick|standard. *)

let experiments =
  [ ("fig4", "smoothing of non-differentiable operators", Experiments.fig4);
    ("fig6", "DNN performance vs PyTorch/TensorFlow/TensorRT", Experiments.fig6);
    ("tab1", "tuning time to exceed the best library", Experiments.tab1);
    ("fig7", "latency vs tuning time, Felix vs Ansor (3 devices)", Experiments.fig7);
    ("tab2a", "milestone speedups, batch 1", Experiments.tab2a);
    ("fig8", "predicted performance of searched population", Experiments.fig8);
    ("fig9", "single-operator performance", Experiments.fig9);
    ("fig10", "latency vs tuning time, batch 16", Experiments.fig10);
    ("tab2b", "milestone speedups, batch 16", Experiments.tab2b);
    ("ablation", "design-choice ablations (width, lambda, budget, lr)", Ablation.run);
    ("par", "sequential vs multi-domain tuning rounds", Parallel.run);
    ("tape", "scalar interpreter vs compiled superop tape sweeps", Tape.run);
    ("warmstart", "time-to-target with and without a warm tuning store", Warmstart.run);
    ("prepare", "cold-parallel and warm-disk pack compilation", Prepare.run);
    ("measure", "measurement seam overhead and fault-injection grid", Measure_bench.run) ]

(* --- bechamel micro-benchmarks: one per table/figure harness ----------------- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  (* Fixtures shared by the micro-benchmarks. *)
  let sg = Compute.lower ~name:"dense" (Op.Dense { batch = 50; in_dim = 768; out_dim = 3072 }) in
  let sched = List.nth (Sketch.generate sg) 1 in
  let pack = Pack.prepare sg sched in
  let prog = Pack.program pack in
  let rng = Rng.create 1 in
  let y =
    match Dataset.sample_valid_point rng pack 200 with
    | Some y -> y
    | None -> failwith "no valid point"
  in
  let env = Pack.env_of pack y in
  let model = Mlp.create rng ~hidden:[ 192; 192; 192 ] ~n_inputs:82 () in
  let feats = Pack.features_at pack y in
  let adj = Array.make 82 1.0 in
  let sel = Expr.(select (gt (var "x") zero) (const 5.0) (const 2.0)) in
  let cfg_quick = Tuning_config.quick in
  let tests =
    Test.make_grouped ~name:"felix"
      [ Test.make ~name:"fig4_smooth_rewrite" (Staged.stage (fun () -> Smooth.smooth sel));
        Test.make ~name:"fig6_sim_measure"
          (Staged.stage (fun () -> Gpu_model.program_latency_ms Device.rtx_a5000 prog env));
        Test.make ~name:"tab1_feature_eval" (Staged.stage (fun () -> Pack.features_at pack y));
        Test.make ~name:"fig7_gd_objective_step"
          (Staged.stage (fun () ->
               let f = Pack.features_at pack y in
               let _, g = Mlp.input_gradient model f in
               let _, dy = Pack.features_vjp pack y g in
               let _, pg = Pack.penalty_value_grad pack y in
               (dy, pg)));
        Test.make ~name:"tab2_round_to_valid" (Staged.stage (fun () -> Pack.round_to_valid pack y));
        Test.make ~name:"fig8_mlp_forward" (Staged.stage (fun () -> Mlp.forward model feats));
        Test.make ~name:"fig9_mlp_input_grad"
          (Staged.stage (fun () -> Mlp.input_gradient model feats));
        Test.make ~name:"fig10_evolution_mutation"
          (Staged.stage (fun () -> Evolutionary.mutate rng pack y));
        Test.make ~name:"tab2b_tape_vjp" (Staged.stage (fun () -> Pack.features_vjp pack y adj));
        Test.make ~name:"setup_pack_prepare" (Staged.stage (fun () -> Pack.prepare sg sched)) ]
  in
  ignore cfg_quick;
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let results = Analyze.merge ols instances results in
  let table =
    Table.create ~title:"Bechamel micro-benchmarks (per-call monotonic clock)"
      ~header:[ "component"; "ns/run" ]
  in
  Hashtbl.iter
    (fun _measure per_test ->
      let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) per_test [] in
      List.iter
        (fun (name, ols_result) ->
          let est =
            match Analyze.OLS.estimates ols_result with
            | Some (v :: _) -> Printf.sprintf "%.1f" v
            | Some [] | None -> "-"
          in
          Table.add_row table [ name; est ])
        (List.sort (fun (a, _) (b, _) -> String.compare a b) rows))
    results;
  Table.print table

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* --smoke shrinks the gated experiments to CI-sized runs. *)
  let args =
    List.filter
      (fun a ->
        if a = "--smoke" then begin
          Tape.smoke := true;
          Warmstart.smoke := true;
          Prepare.smoke := true;
          Measure_bench.smoke := true;
          false
        end
        else true)
      args
  in
  let run_one (id, desc, f) =
    Printf.printf "\n### %s — %s\n\n%!" id desc;
    let t0 = Unix.gettimeofday () in
    f ();
    Printf.printf "[%s done in %.1fs cpu]\n%!" id (Unix.gettimeofday () -. t0)
  in
  match args with
  | [] ->
    print_endline "Felix benchmark harness: reproducing all paper tables and figures.";
    List.iter run_one experiments;
    Printf.printf "\n### micro — component micro-benchmarks\n\n%!";
    micro ()
  | [ "micro" ] -> micro ()
  | ids ->
    List.iter
      (fun id ->
        if id = "micro" then micro ()
        else
          match List.find_opt (fun (i, _, _) -> i = id) experiments with
          | Some exp -> run_one exp
          | None ->
            Printf.eprintf "unknown experiment %S; known: %s micro\n" id
              (String.concat " " (List.map (fun (i, _, _) -> i) experiments));
            exit 1)
      ids
