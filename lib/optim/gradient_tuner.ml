type candidate = { pack : Pack.t; y : float array; key : string; predicted : float }

type trace = { steps_done : int; predictions : float list }

let h_gd_step = Telemetry.histogram Telemetry.global "felix.gd_step_ms"

(* Lockstep Adam descent of one tile of seeds of one pack. Lane [l] is
   the scalar Adam loop on seed [l] exactly: the batched value/gradient,
   Adam sweep and clamp are all elementwise per lane in the scalar order,
   so each trajectory (points and objectives) is bitwise-identical to a
   lone descent of that seed, at any tile width. *)
let descend_tile (cfg : Tuning_config.t) obj y0s =
  let b = Array.length y0s in
  let pack = Objective.pack obj in
  let n = Pack.num_vars pack in
  let ys = Array.make (b * n) 0.0 in
  Array.iteri
    (fun l y0 ->
      if Array.length y0 <> n then
        invalid_arg "Gradient_tuner.descend_batch: seed arity mismatch";
      Array.blit y0 0 ys (l * n) n)
    y0s;
  let adam = Adam.create_batch ~lr:cfg.gd_lr ~batch:b n in
  let bounds = Pack.bounds_log pack in
  let grads = Array.make (b * n) 0.0 in
  let objs = Array.make b 0.0 in
  let hist = Array.make b [] in
  let timed = Telemetry.enabled Telemetry.global in
  let eval_and_snapshot () =
    Objective.value_grad_batch obj ~lambda:cfg.lambda ~batch:b ys ~grads ~objs;
    for l = 0 to b - 1 do
      hist.(l) <- (Array.sub ys (l * n) n, objs.(l)) :: hist.(l)
    done
  in
  for _ = 1 to cfg.nsteps do
    let t0 = if timed then Telemetry.now_s Telemetry.global else 0.0 in
    eval_and_snapshot ();
    Adam.step_batch adam ~batch:b ~params:ys ~grads;
    (* Keep iterates near the relaxed box; the penalties do the fine
       enforcement, the clamp prevents numeric runaway. *)
    for l = 0 to b - 1 do
      let base = l * n in
      Array.iteri
        (fun i (lo, hi) ->
          ys.(base + i) <- Stats.clamp ~lo:(lo -. 0.7) ~hi:(hi +. 0.7) ys.(base + i))
        bounds
    done;
    (* Amortised per-lane step time, so the histogram reads per seed. *)
    if timed then
      Telemetry.Histogram.observe h_gd_step
        ((Telemetry.now_s Telemetry.global -. t0) *. 1000.0 /. float_of_int b)
  done;
  eval_and_snapshot ();
  Array.map List.rev hist

let descend_batch (cfg : Tuning_config.t) ?runtime model pack y0s =
  Objective.map_tiles ?runtime model (fun _ -> pack) y0s (descend_tile cfg)

(* The round is staged so a runtime can fan out the pure phases without
   perturbing the RNG stream: start points are sampled sequentially in the
   exact order of the sequential loop (descents draw nothing from the RNG),
   then descents + factor rounding run on any domain, then deduplication and
   prediction happen in discovery order. Results are bit-identical to the
   sequential implementation at any domain count. *)
let search_round (cfg : Tuning_config.t) rng ?runtime model packs ~already_measured =
  Telemetry.with_span Telemetry.global "felix.search_round"
    ~attrs:[ ("packs", Telemetry.Int (List.length packs)) ]
  @@ fun () ->
  let npacks = max 1 (List.length packs) in
  let seeds_per_pack = max 1 (cfg.nseeds / npacks) in
  (* Phase 1 (sequential): consume the RNG in legacy order. *)
  let starts =
    List.concat_map
      (fun pack ->
        List.filter_map
          (fun _ -> Option.map (fun y0 -> (pack, y0)) (Dataset.sample_valid_point rng pack 100))
          (List.init seeds_per_pack Fun.id))
      packs
    |> Array.of_list
  in
  (* Phase 2 (parallel): lockstep descents in same-pack tiles, plus factor
     rounding. Each lane is bitwise a lone descent and results come back
     in seed order, so the round does not depend on the tiling. *)
  let per_start =
    Objective.map_tiles ?runtime model fst starts (fun obj tile ->
        let pack = Objective.pack obj in
        descend_tile cfg obj (Array.map snd tile)
        |> Array.map (fun trajectory ->
               let rounded =
                 List.filter_map
                   (fun (y, _obj) ->
                     Option.map
                       (fun r -> (r, Pack.schedule_key pack r))
                       (Pack.round_to_valid pack y))
                   trajectory
               in
               (pack, List.length trajectory, rounded)))
  in
  (* Phase 3 (sequential): dedup trajectory points in discovery order. *)
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let uniques = ref [] in
  let steps = ref 0 in
  Array.iter
    (fun (pack, n_steps, rounded) ->
      steps := !steps + n_steps;
      List.iter
        (fun (r, key) ->
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            uniques := (pack, r, key) :: !uniques
          end)
        rounded)
    per_start;
  let uniques = Array.of_list (List.rev !uniques) in
  (* Phase 4 (parallel): predict each unique point once, in same-pack
     tiles (bitwise-equal to Mlp.forward over Pack.features_at). *)
  let preds = Objective.predict_all ?runtime model (fun (pack, r, _) -> (pack, r)) uniques in
  let candidates = ref [] in
  let predictions = ref [] in
  Array.iteri
    (fun i (pack, r, key) ->
      let predicted = preds.(i) in
      predictions := predicted :: !predictions;
      if not (already_measured key) then
        candidates := { pack; y = r; key; predicted } :: !candidates)
    uniques;
  let sorted =
    List.sort (fun a b -> compare b.predicted a.predicted) !candidates
  in
  let top = List.filteri (fun i _ -> i < cfg.nmeasure_felix) sorted in
  Telemetry.Counter.incr ~by:!steps (Telemetry.counter Telemetry.global "felix.gd_steps");
  Telemetry.Counter.incr ~by:(List.length top)
    (Telemetry.counter Telemetry.global "felix.candidates");
  (top, { steps_done = !steps; predictions = List.rev !predictions })
