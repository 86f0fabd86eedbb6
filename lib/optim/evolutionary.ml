type individual = { pack : Pack.t; y : float array; key : string; predicted : float }

type trace = { evaluated : int; predictions : float list }

(* Variable groups of a pack: divisor groups from the schedule plus each
   free variable as a singleton; crossover and mutation act on whole groups
   so tile products stay divisor-consistent. *)
let groups_of pack =
  let sched = Pack.schedule pack in
  let names = Pack.var_names pack in
  let index_of n =
    let rec go i = if names.(i) = n then i else go (i + 1) in
    go 0
  in
  let div_groups =
    List.map
      (fun (extent, vars) -> (Some extent, List.map index_of vars))
      sched.Schedule.div_groups
  in
  let grouped = List.concat_map snd div_groups in
  let free =
    Array.to_list (Array.mapi (fun i _ -> i) names)
    |> List.filter (fun i -> not (List.mem i grouped))
    |> List.map (fun i -> (None, [ i ]))
  in
  div_groups @ free

let resample_group rng pack y (extent, idxs) =
  let y = Array.copy y in
  (match extent with
  | Some n ->
    let factors = Factorize.split rng n (List.length idxs + 1) in
    List.iteri (fun k i -> y.(i) <- log (float_of_int (List.nth factors k))) idxs
  | None ->
    List.iter
      (fun i ->
        let lo, hi = (Pack.bounds_log pack).(i) in
        y.(i) <- Rng.range rng lo hi)
      idxs);
  y

let mutate rng pack y =
  let groups = Array.of_list (groups_of pack) in
  if Array.length groups = 0 then None
  else begin
    let g = Rng.choose rng groups in
    let y' = resample_group rng pack y g in
    Pack.round_to_valid pack y'
  end

let crossover rng pack ya yb =
  let y = Array.copy ya in
  List.iter
    (fun (_, idxs) -> if Rng.bool rng then List.iter (fun i -> y.(i) <- yb.(i)) idxs)
    (groups_of pack);
  Pack.round_to_valid pack y

(* Population construction draws from the RNG in the same order as the
   historical sequential implementation, but cost-model scoring is deferred
   to a batch at each phase boundary (initial population, each generation):
   scoring is pure, so batching — and fanning the batch out across a
   runtime's domains — leaves every RNG draw, prediction list and the final
   ranking bit-identical to the sequential run. *)
let search_round (cfg : Tuning_config.t) rng ?runtime model packs ~elites
    ~already_measured =
  Telemetry.with_span Telemetry.global "ansor.search_round"
    ~attrs:[ ("packs", Telemetry.Int (List.length packs)) ]
  @@ fun () ->
  let packs = Array.of_list packs in
  if Array.length packs = 0 then invalid_arg "Evolutionary.search_round: no sketches";
  let prediction_cache : (string, float) Hashtbl.t = Hashtbl.create 512 in
  let all_predictions = ref [] in
  let evaluated = ref 0 in
  (* [protos] in construction order; scores new keys and records their
     predictions in that same order. *)
  let score_batch protos =
    let seen_in_batch = Hashtbl.create 64 in
    let fresh = ref [] in
    List.iter
      (fun (pack, y, key) ->
        if
          (not (Hashtbl.mem prediction_cache key))
          && not (Hashtbl.mem seen_in_batch key)
        then begin
          Hashtbl.replace seen_in_batch key ();
          fresh := (pack, y, key) :: !fresh
        end)
      protos;
    let fresh = Array.of_list (List.rev !fresh) in
    (* Scored in same-pack tiles (bitwise-equal to Mlp.forward over
       Pack.features_at), written back in population order. *)
    let preds = Objective.predict_all ?runtime model (fun (pack, y, _) -> (pack, y)) fresh in
    Array.iteri
      (fun i (_pack, _y, key) ->
        Hashtbl.replace prediction_cache key preds.(i);
        incr evaluated;
        all_predictions := preds.(i) :: !all_predictions)
      fresh
  in
  let proto pack y = (pack, y, Pack.schedule_key pack y) in
  let individual_of (pack, y, key) =
    { pack; y; key; predicted = Hashtbl.find prediction_cache key }
  in
  (* --- initial population -------------------------------------------------- *)
  let protos = ref [] in
  let n_protos = ref 0 in
  let elite_seeds =
    List.filter (fun (p, _) -> Array.exists (fun q -> q == p) packs) elites
  in
  let target = cfg.population in
  let n_from_elites = min (target / 4) (List.length elite_seeds * 4) in
  let elite_arr = Array.of_list elite_seeds in
  for _ = 1 to n_from_elites do
    let pack, y = Rng.choose rng elite_arr in
    match mutate rng pack y with
    | Some y' ->
      protos := proto pack y' :: !protos;
      incr n_protos
    | None -> ()
  done;
  let attempts = ref 0 in
  while !n_protos < target && !attempts < target * 8 do
    incr attempts;
    let pack = Rng.choose rng packs in
    match Dataset.sample_valid_point rng pack 20 with
    | Some y ->
      protos := proto pack y :: !protos;
      incr n_protos
    | None -> ()
  done;
  score_batch (List.rev !protos);
  let population = ref (List.map individual_of !protos) in
  (* --- generations ----------------------------------------------------------- *)
  let best_seen : (string, individual) Hashtbl.t = Hashtbl.create 256 in
  let remember ind = if not (Hashtbl.mem best_seen ind.key) then Hashtbl.replace best_seen ind.key ind in
  List.iter remember !population;
  for _gen = 1 to cfg.generations do
    let pop = Array.of_list !population in
    if Array.length pop > 0 then begin
      Array.sort (fun a b -> compare b.predicted a.predicted) pop;
      let elite_count = max 1 (Array.length pop / 10) in
      (* carried elites are already scored; children defer to the batch *)
      let next = ref [] in
      let n_next = ref 0 in
      for i = 0 to elite_count - 1 do
        next := `Old pop.(i) :: !next;
        incr n_next
      done;
      let tournament () =
        let a = Rng.choose rng pop and b = Rng.choose rng pop in
        if a.predicted >= b.predicted then a else b
      in
      let tries = ref 0 in
      while !n_next < Array.length pop && !tries < Array.length pop * 4 do
        incr tries;
        let p1 = tournament () in
        let child =
          if Rng.uniform rng < cfg.mutation_prob then mutate rng p1.pack p1.y
          else begin
            let p2 = tournament () in
            if p1.pack == p2.pack then crossover rng p1.pack p1.y p2.y
            else mutate rng p1.pack p1.y
          end
        in
        match child with
        | Some y ->
          next := `New (proto p1.pack y) :: !next;
          incr n_next
        | None -> ()
      done;
      score_batch
        (List.rev
           (List.filter_map (function `New p -> Some p | `Old _ -> None) !next));
      let next_inds =
        List.map (function `Old ind -> ind | `New p -> individual_of p) !next
      in
      List.iter remember next_inds;
      population := next_inds
    end
  done;
  let ranked =
    Hashtbl.fold (fun _ ind acc -> ind :: acc) best_seen []
    |> List.filter (fun ind -> not (already_measured ind.key))
    |> List.sort (fun a b -> compare b.predicted a.predicted)
  in
  let top = List.filteri (fun i _ -> i < cfg.nmeasure_ansor) ranked in
  Telemetry.Counter.incr ~by:!evaluated
    (Telemetry.counter Telemetry.global "ansor.evaluated");
  (top, { evaluated = !evaluated; predictions = List.rev !all_predictions })
