(* tape: the scalar interpreter oracle vs the compiled superop plan.

   Times the tape inner loop of descent — features forward + features
   backward + penalty value/grad — over the same 128 candidate points,
   once per point through the scalar interpreter (Pack.features_vjp +
   Pack.penalty_value_grad, i.e. Autodiff.Tape.vjp: the reference oracle)
   and once through the compiled superop plans in tiles of B in
   {1, 32, 128}. Every lane of the plan must be bitwise identical to the
   oracle, on both plan kernel sets (SIMD C and portable OCaml) and across
   1 vs 4 domains; any divergence, or a plan speedup over the oracle below
   the floor at B=32, is a hard failure (exit 1) so CI catches both kinds
   of regression. Results land in BENCH_tape.json. *)

let smoke = ref false

type stats = { sweeps_per_sec : float; minor_words_per_sweep : float }

type capture = {
  c_feats : float array;  (* lanes * 82 *)
  c_grads : float array;  (* lanes * n *)
  c_pgrads : float array;  (* lanes * n *)
  c_pvals : float array;  (* lanes *)
}

let new_capture ~lanes n =
  { c_feats = Array.make (lanes * 82) 0.0;
    c_grads = Array.make (lanes * n) 0.0;
    c_pgrads = Array.make (lanes * n) 0.0;
    c_pvals = Array.make lanes 0.0 }

(* Feature adjoint of point [p]: row [p] of a fixed pattern, so every
   executor sees the same adjoint for the same point whatever its tile. *)
let adjoints ~lanes = Array.init (lanes * 82) (fun j -> cos (float_of_int j))

let timed ~lanes ~sweeps f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  f ();
  let dt = Unix.gettimeofday () -. t0 in
  let total = float_of_int (lanes * (sweeps + 1)) in
  { sweeps_per_sec = total /. dt; minor_words_per_sweep = (Gc.minor_words () -. w0) /. total }

(* The oracle: one point at a time through the scalar interpreter. *)
let run_oracle pack ~lanes ~sweeps y0s adjs =
  let n = Pack.num_vars pack in
  let cap = new_capture ~lanes n in
  let stats =
    timed ~lanes ~sweeps (fun () ->
        for p = 0 to lanes - 1 do
          let y = y0s.(p) and adj = Array.sub adjs (p * 82) 82 in
          for _ = 1 to sweeps do
            ignore (Pack.features_vjp pack y adj : float array * float array);
            ignore (Pack.penalty_value_grad pack y : float * float array)
          done;
          let feats, dy = Pack.features_vjp pack y adj in
          let v, pg = Pack.penalty_value_grad pack y in
          Array.blit feats 0 cap.c_feats (p * 82) 82;
          Array.blit dy 0 cap.c_grads (p * n) n;
          Array.blit pg 0 cap.c_pgrads (p * n) n;
          cap.c_pvals.(p) <- v
        done)
  in
  (stats, cap)

(* One population pass over points [off0 .. off0+lanes-1], tiled at width
   [b] on one workspace, the way a descent tile holds its state. Writes
   the final sweep's results into [cap]. *)
let sweep_lanes pack ~b ~off0 ~lanes ~sweeps y0s adjs cap =
  let n = Pack.num_vars pack in
  let bws = Pack.batch_workspace pack ~batch:b in
  let tys = Array.make (b * n) 0.0 in
  let adj = Array.make (b * 82) 0.0 in
  let grads = Array.make (b * n) 0.0 in
  let pgrads = Array.make (b * n) 0.0 in
  let pvals = Array.make b 0.0 in
  let off = ref 0 in
  while !off < lanes do
    let p0 = off0 + !off in
    let bt = min b (lanes - !off) in
    for l = 0 to bt - 1 do
      Array.blit y0s.(p0 + l) 0 tys (l * n) n
    done;
    Array.blit adjs (p0 * 82) adj 0 (bt * 82);
    for _ = 1 to sweeps do
      ignore (Pack.features_forward_batch pack bws ~batch:bt tys : float array);
      Pack.features_backward_batch pack bws ~batch:bt adj grads;
      Pack.penalty_value_grad_batch_into pack bws ~batch:bt tys ~grads:pgrads
        ~values:pvals
    done;
    let f = Pack.features_forward_batch pack bws ~batch:bt tys in
    Array.blit f 0 cap.c_feats (p0 * 82) (bt * 82);
    Pack.features_backward_batch pack bws ~batch:bt adj grads;
    Array.blit grads 0 cap.c_grads (p0 * n) (bt * n);
    Pack.penalty_value_grad_batch_into pack bws ~batch:bt tys ~grads:pgrads
      ~values:pvals;
    Array.blit pgrads 0 cap.c_pgrads (p0 * n) (bt * n);
    Array.blit pvals 0 cap.c_pvals p0 bt;
    off := !off + bt
  done

let run_plan pack ~vec ~b ~lanes ~sweeps y0s adjs =
  Autodiff.Tape.set_vector_kernels vec;
  let cap = new_capture ~lanes (Pack.num_vars pack) in
  let stats =
    timed ~lanes ~sweeps (fun () -> sweep_lanes pack ~b ~off0:0 ~lanes ~sweeps y0s adjs cap)
  in
  (stats, cap)

(* The plan split across 4 domains, each with its own workspace over a
   quarter of the points: per-lane results must not depend on which domain
   (or how many) ran the sweep. *)
let run_domains pack ~b ~lanes ~sweeps y0s adjs =
  Autodiff.Tape.set_vector_kernels true;
  let cap = new_capture ~lanes (Pack.num_vars pack) in
  let chunk = lanes / 4 in
  Runtime.with_runtime ~domains:4 (fun rt ->
      ignore
        (Runtime.map_list rt
           (fun off0 -> sweep_lanes pack ~b ~off0 ~lanes:chunk ~sweeps y0s adjs cap)
           [ 0; chunk; 2 * chunk; 3 * chunk ]));
  cap

let captures_equal a b =
  let bits_eq x y =
    Array.length x = Array.length y
    && Array.for_all2
         (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
         x y
  in
  bits_eq a.c_feats b.c_feats && bits_eq a.c_grads b.c_grads
  && bits_eq a.c_pgrads b.c_pgrads && bits_eq a.c_pvals b.c_pvals

let best_of runs =
  List.fold_left
    (fun (acc, c) (r, c') ->
      if r.sweeps_per_sec > acc.sweeps_per_sec then (r, c') else (acc, c))
    (List.hd runs) (List.tl runs)

let run () =
  let lanes = 128 in
  let sweeps = if !smoke then 60 else 400 in
  let reps = if !smoke then 1 else 2 in
  let widths = [ 1; 32; 128 ] in
  let floor_b32 = if !smoke then 2.0 else 3.0 in
  let sg =
    Compute.lower ~name:"dense" (Op.Dense { batch = 50; in_dim = 768; out_dim = 3072 })
  in
  let sched = List.nth (Sketch.generate sg) 1 in
  let pack = Pack.prepare sg sched in
  let rng = Rng.create 1 in
  let y0s =
    Array.init lanes (fun _ ->
        match Dataset.sample_valid_point rng pack 200 with
        | Some y -> y
        | None -> failwith "tape: no valid start point")
  in
  let adjs = adjoints ~lanes in
  let was_vec = Autodiff.Tape.using_vector_kernels () in
  Fun.protect ~finally:(fun () -> Autodiff.Tape.set_vector_kernels was_vec) @@ fun () ->
  (* Warm up both executors. *)
  ignore (run_oracle pack ~lanes:16 ~sweeps:3 y0s adjs);
  ignore (run_plan pack ~vec:true ~b:8 ~lanes:16 ~sweeps:3 y0s adjs);
  let fp = Pack.feature_plan pack and pp = Pack.penalty_plan pack in
  let module P = Autodiff.Tape.Plan in
  Printf.printf
    "superops: feature %d -> %d (%d fused), penalty %d -> %d (%d fused)\n%!"
    (P.source_ops fp) (P.superops fp) (P.fused_pairs fp) (P.source_ops pp)
    (P.superops pp) (P.fused_pairs pp);
  let oracle, c_oracle =
    best_of (List.init reps (fun _ -> run_oracle pack ~lanes ~sweeps y0s adjs))
  in
  let results =
    List.map
      (fun b ->
        let planned, c_planned =
          best_of
            (List.init reps (fun _ -> run_plan pack ~vec:true ~b ~lanes ~sweeps y0s adjs))
        in
        let _, c_portable = run_plan pack ~vec:false ~b ~lanes ~sweeps:1 y0s adjs in
        let domains_ok =
          if b = 32 then captures_equal c_oracle (run_domains pack ~b ~lanes ~sweeps:1 y0s adjs)
          else true
        in
        let ok =
          captures_equal c_oracle c_planned && captures_equal c_oracle c_portable && domains_ok
        in
        (b, planned, ok))
      widths
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "tape sweeps (fwd+bwd+penalty), %d points x %d sweeps (best of %d); oracle: \
            scalar interpreter %.0f sweeps/s, %.0f words/sweep"
           lanes sweeps reps oracle.sweeps_per_sec oracle.minor_words_per_sweep)
      ~header:[ "tile"; "plan sweeps/s"; "vs oracle"; "words/sweep"; "bitwise" ]
  in
  List.iter
    (fun (b, p, ok) ->
      Table.add_row t
        [ Printf.sprintf "B=%d" b;
          Printf.sprintf "%.0f" p.sweeps_per_sec;
          Printf.sprintf "%.2fx" (p.sweeps_per_sec /. oracle.sweeps_per_sec);
          Printf.sprintf "%.1f" p.minor_words_per_sweep;
          (if ok then "identical" else "DIVERGED") ])
    results;
  Table.print t;
  let all_ok = List.for_all (fun (_, _, ok) -> ok) results in
  let oc = open_out "BENCH_tape.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"tape\",\n  \"smoke\": %b,\n  \"lanes\": %d,\n  \
     \"sweeps\": %d,\n  \"reps\": %d,\n  \"superops\": {\n    \"feature\": { \
     \"source_ops\": %d, \"superops\": %d, \"fused_pairs\": %d },\n    \
     \"penalty\": { \"source_ops\": %d, \"superops\": %d, \"fused_pairs\": %d }\n  \
     },\n  \"oracle_sweeps_per_sec\": %.1f,\n  \"oracle_minor_words_per_sweep\": %.1f,\n  \
     \"bitwise_identical\": %b,\n  \"tiles\": [\n%s  ]\n}\n"
    !smoke lanes sweeps reps (P.source_ops fp) (P.superops fp) (P.fused_pairs fp)
    (P.source_ops pp) (P.superops pp) (P.fused_pairs pp) oracle.sweeps_per_sec
    oracle.minor_words_per_sweep all_ok
    (String.concat ",\n"
       (List.map
          (fun (b, p, ok) ->
            Printf.sprintf
              "    { \"batch\": %d, \"plan_sweeps_per_sec\": %.1f, \"speedup_vs_oracle\": \
               %.3f, \"plan_minor_words_per_sweep\": %.1f, \"bitwise_identical\": %b }"
              b p.sweeps_per_sec
              (p.sweeps_per_sec /. oracle.sweeps_per_sec)
              p.minor_words_per_sweep ok)
          results)
     ^ "\n");
  close_out oc;
  print_endline "wrote BENCH_tape.json";
  List.iter
    (fun (b, p, ok) ->
      if not ok then begin
        Printf.eprintf "tape: B=%d DIVERGED from the scalar oracle (bit-identity broken)\n" b;
        exit 1
      end;
      if b = 32 && p.sweeps_per_sec < floor_b32 *. oracle.sweeps_per_sec then begin
        Printf.eprintf
          "tape: B=32 plan speedup %.2fx over the oracle is below the %.2fx floor (%.0f vs \
           %.0f sweeps/s)\n"
          (p.sweeps_per_sec /. oracle.sweeps_per_sec)
          floor_b32 p.sweeps_per_sec oracle.sweeps_per_sec;
        exit 1
      end)
    results
