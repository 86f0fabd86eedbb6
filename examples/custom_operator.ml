(* A tour of the compiler internals on a custom operator — the Dense-Add
   subgraph of the paper's Figure 3:

   1. lower the operator to its naive loop-nest program p0;
   2. generate the two symbolic schedules (simple and multi-level tiling)
      with their transformation steps and legality constraints;
   3. show extracted feature formulas before and after smoothing;
   4. run one seed of gradient descent by hand and watch the objective.

   Run with:  dune exec examples/custom_operator.exe *)

let () =
  (* E[i,j] = sum_k A[i,k] * B[k,j] + C[j] — Dense followed by a bias Add. *)
  let dense = Op.Dense { batch = 64; in_dim = 512; out_dim = 1024 } in
  let sg = Compute.lower ~name:"dense" dense in
  let sg = Compute.fuse_elemwise sg ~name:"add" (Op.Binary (Op.Add, 64 * 1024)) in
  Printf.printf "subgraph: %s, %.1f MFLOPs, %d stages\n\n" sg.Compute.sg_name
    (Compute.subgraph_flops sg /. 1e6)
    (List.length sg.Compute.stages);

  (* Symbolic schedules (Figure 3, middle column). *)
  List.iter
    (fun sched ->
      Printf.printf "=== symbolic schedule %s (%d variables, %d constraints) ===\n"
        sched.Schedule.sched_name (Schedule.num_vars sched)
        (List.length sched.Schedule.constraints);
      List.iter
        (fun step -> Printf.printf "  %s\n" (Schedule.step_to_string step))
        (Schedule.steps sg sched);
      Printf.printf "constraints:\n";
      List.iteri
        (fun i c -> if i < 6 then Printf.printf "  %s\n" (Expr.cond_to_string c))
        sched.Schedule.constraints;
      (* Symbolic program (Figure 3, right column). *)
      let prog = Loop_ir.apply sg sched in
      Printf.printf "symbolic program p*:\n%s\n" (Loop_ir.to_loop_tree_string prog);
      Printf.printf "generated CUDA-like source:\n%s\n" (Codegen.program_source prog))
    (Sketch.generate sg);

  (* Feature formulas (Section 3.3). *)
  let sched = List.nth (Sketch.generate sg) 1 in
  let prog = Loop_ir.apply sg sched in
  let feats = Extract.extract_named prog in
  Printf.printf "=== a few extracted feature formulas ===\n";
  List.iter
    (fun name ->
      match Array.find_opt (fun (n, _) -> n = name) feats with
      | Some (_, f) ->
        Printf.printf "  %-16s = %s\n" name (Expr.to_string f);
        if Expr.contains_nondiff f then
          Printf.printf "  %-16s   (smoothed: %s)\n" ""
            (Expr.to_string (Simplify.simplify (Smooth.smooth f)))
      | None -> ())
    [ "float_add"; "grid_size"; "int_ops"; "shared_bytes" ];

  (* Gradient descent on the differentiable objective (Algorithm 1). *)
  Printf.printf "\n=== one seed of gradient descent ===\n";
  let pack = Pack.prepare sg sched in
  let rng = Rng.create 0 in
  let model = Felix.pretrained_cost_model (Felix.cuda "rtx-a5000") in
  (match Dataset.sample_valid_point rng pack 200 with
  | None -> print_endline "no feasible start found"
  | Some y0 ->
    let cfg = { Tuning_config.default with Tuning_config.nsteps = 100 } in
    let history = (Gradient_tuner.descend_batch cfg model pack [| y0 |]).(0) in
    List.iteri
      (fun i (y, obj) ->
        if i mod 20 = 0 then begin
          let status =
            match Pack.round_to_valid pack y with
            | Some r ->
              let lat =
                Gpu_model.program_latency_ms Device.rtx_a5000 (Pack.program pack)
                  (Pack.env_of pack r)
              in
              Printf.sprintf "rounds to a valid schedule, measured %.3f ms" lat
            | None -> "rounding infeasible here"
          in
          Printf.printf "  step %3d: objective %8.3f  (%s)\n" i obj status
        end)
      history)
