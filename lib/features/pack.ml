type t = {
  sched : Schedule.t;
  prog : Loop_ir.t;
  names : string array;
  bounds : (float * float) array;  (* log-space box *)
  feature_tape : Autodiff.Tape.t;
  penalty_tape : Autodiff.Tape.t;
  feature_plan : Autodiff.Tape.Plan.t;  (* compiled superop plans of the *)
  penalty_plan : Autodiff.Tape.Plan.t;  (* two tapes, compiled once here *)
  n_penalties : int;
  div_groups : (int * int list) list;  (* extent, var indices *)
  feasible : float array -> bool;  (* the schedule's constraints, compiled *)
}

let schedule t = t.sched
let program t = t.prog
let var_names t = t.names
let num_vars t = Array.length t.names
let bounds_log t = t.bounds
let num_penalties t = t.n_penalties
let feature_plan t = t.feature_plan
let penalty_plan t = t.penalty_plan

(* x = e^y: replace every schedule variable by exp of itself; tape inputs
   are then interpreted as log-space values. *)
let exp_subst vars e =
  let tbl = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace tbl v ()) vars;
  Expr.subst (fun v -> if Hashtbl.mem tbl v then Some (Expr.exp_ (Expr.var v)) else None) e

(* Constraint conditions to margin expressions g with "holds iff g <= 0".
   Both sides of every sketch constraint are positive (sizes, products,
   byte counts), so [a <= b] is rewritten as [log(1+a) - log(1+b) <= 0]:
   the margin of a violated shared-memory constraint is then of the same
   order as that of a violated thread bound, keeping the penalty gradients
   of Equation 4 well-conditioned. *)
let rec margins_of_cond (c : Expr.cond) : Expr.t list =
  let l1p e = Expr.log_ (Expr.add Expr.one e) in
  match c with
  | Cmp (Le, a, b) | Cmp (Lt, a, b) -> [ Expr.sub (l1p a) (l1p b) ]
  | Cmp (Ge, a, b) | Cmp (Gt, a, b) -> [ Expr.sub (l1p b) (l1p a) ]
  | Cmp (Eq, a, b) -> [ Expr.abs_ (Expr.sub (l1p a) (l1p b)) ]
  | Cmp (Ne, _, _) -> []
  | And (c1, c2) -> margins_of_cond c1 @ margins_of_cond c2
  | Or (c1, c2) -> (
    (* or: at least one margin <= 0, i.e. min of margins <= 0 *)
    match (margins_of_cond c1, margins_of_cond c2) with
    | [ m1 ], [ m2 ] -> [ Expr.min_ m1 m2 ]
    | _ -> [])
  | Not _ | Bconst _ -> []

let c_slots_pre = Telemetry.counter Telemetry.global "features.tape_slots_pre"
let c_slots_post = Telemetry.counter Telemetry.global "features.tape_slots_post"

(* --- compiled superop plans -------------------------------------------------

   Every pack eagerly carries the compiled superop plans of its two tapes
   (Autodiff.Tape.compile_plan): they are what the batch workspaces below
   execute, and they travel with the tapes through both caches so a warm
   hit never re-runs the plan compiler. *)

let h_tape_compile_ms = Telemetry.histogram Telemetry.global "felix.tape_compile_ms"
let c_superops_pre = Telemetry.counter Telemetry.global "features.tape_superops_pre"
let c_superops_post = Telemetry.counter Telemetry.global "features.tape_superops_post"

let compile_plan_timed tape =
  let t0 = Telemetry.now_s Telemetry.global in
  let plan = Autodiff.Tape.compile_plan tape in
  Telemetry.Histogram.observe h_tape_compile_ms
    ((Telemetry.now_s Telemetry.global -. t0) *. 1000.0);
  Telemetry.Counter.incr ~by:(Autodiff.Tape.Plan.source_ops plan) c_superops_pre;
  Telemetry.Counter.incr ~by:(Autodiff.Tape.Plan.superops plan) c_superops_post;
  plan

(* The cheap, deterministic part of a pack: everything recomputable from
   (subgraph, schedule) without touching the rewriter or the tape compiler.
   Both the compile path and the disk-cache load path start here. *)
type skeleton = {
  sk_prog : Loop_ir.t;
  sk_names : string array;
  sk_bounds : (float * float) array;
  sk_div_groups : (int * int list) list;
  sk_feasible : float array -> bool;
}

(* The original (unsmoothed) constraints compiled once into a check over
   the integer point, indexed by variable position. A name bound twice
   reads its last position, as a Hashtbl.replace environment would. *)
let compile_feasible names constraints =
  let index = Hashtbl.create (Array.length names) in
  Array.iteri (fun i name -> Hashtbl.replace index name i) names;
  let checks =
    Array.of_list (List.map (Eval.compile_cond (Hashtbl.find_opt index)) constraints)
  in
  fun vals ->
    let rec go k = k = Array.length checks || (checks.(k) vals && go (k + 1)) in
    go 0

let skeleton sg sched =
  let prog = Loop_ir.apply sg sched in
  let names = Array.of_list (Schedule.var_names sched) in
  let bounds =
    Array.of_list
      (List.map (fun (v : Schedule.var) -> (log v.lo, log v.hi)) sched.Schedule.vars)
  in
  let index_of name =
    let rec go i = if names.(i) = name then i else go (i + 1) in
    go 0
  in
  let div_groups =
    List.map
      (fun (extent, vars) -> (extent, List.map index_of vars))
      sched.Schedule.div_groups
  in
  { sk_prog = prog; sk_names = names; sk_bounds = bounds; sk_div_groups = div_groups;
    sk_feasible = compile_feasible names sched.Schedule.constraints }

let compile_pack ~width ~optimize sg sched sk =
  Telemetry.with_span Telemetry.global "pack.compile"
    ~attrs:
      [ ("subgraph", Telemetry.Str sg.Compute.sg_name);
        ("sketch", Telemetry.Str sched.Schedule.sched_name) ]
  @@ fun () ->
  Telemetry.Counter.incr (Telemetry.counter Telemetry.global "features.tapes_compiled");
  let names = sk.sk_names in
  let name_list = Array.to_list names in
  let transform e =
    e
    |> Smooth.smooth ~width
    |> exp_subst name_list
    |> fun e' -> Expr.log_ (Expr.add Expr.one e')
  in
  (* Tapes are compiled raw, then (unless [optimize:false]) run through the
     bit-exact tape optimiser; the before/after slot counts feed the
     features.tape_slots_{pre,post} telemetry counters. *)
  let optimize_tape tape =
    if not optimize then tape
    else begin
      let tape', report = Autodiff.Tape.optimize_report tape in
      Telemetry.Counter.incr ~by:report.Autodiff.Tape.slots_pre c_slots_pre;
      Telemetry.Counter.incr ~by:report.Autodiff.Tape.slots_post c_slots_post;
      tape'
    end
  in
  let features = Extract.extract sk.sk_prog |> Array.map transform |> Array.to_list in
  let feature_tape =
    optimize_tape (Autodiff.Tape.compile ~optimize:false ~inputs:name_list features)
  in
  (* The x = e^y substitution and the simplify pass run as one fused walk
     (Simplify.simplify_subst): bit-identical to substituting first and
     simplifying after, one tree traversal instead of two. *)
  let subst_env =
    let tbl = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace tbl v ()) name_list;
    fun v -> if Hashtbl.mem tbl v then Some (Expr.exp_ (Expr.var v)) else None
  in
  let margins =
    List.concat_map margins_of_cond sched.Schedule.constraints
    |> List.map (fun g -> Simplify.simplify_subst subst_env (Smooth.smooth ~width g))
  in
  let penalty_tape =
    optimize_tape (Autodiff.Tape.compile ~optimize:false ~inputs:name_list margins)
  in
  let feature_plan = compile_plan_timed feature_tape in
  let penalty_plan = compile_plan_timed penalty_tape in
  { sched; prog = sk.sk_prog; names; bounds = sk.sk_bounds; feature_tape; penalty_tape;
    feature_plan; penalty_plan; n_penalties = List.length margins;
    div_groups = sk.sk_div_groups; feasible = sk.sk_feasible }

(* --- persistent (disk) cache ------------------------------------------------

   Compiled packs are content-addressed on disk: the key digests the
   subgraph's canonical form, the schedule's fingerprint (name, variable
   boxes, divisibility groups, constraint count), the smoothing width and
   optimize flag (both part of the compiled artifact's semantics) and the
   schema version below. The value is only what is expensive to recompute —
   the two compiled tapes, floats as IEEE-754 bit strings — wrapped in the
   store's versioned Artifact envelope and written atomically (temp file +
   fsync + rename); the skeleton is rebuilt from the schedule on load, so a
   cache hit is bitwise-identical to a fresh compile. Any unreadable or
   invalid entry falls back to recompiling (and rewriting the entry), never
   to a crash. Concurrent writers of one key race benignly: they write
   identical bytes and the rename is atomic. *)

let pack_artifact_kind = "felix-pack"

(* Bump whenever the pack pipeline changes results or the payload layout
   changes: the version lives in the artifact envelope AND the key digest,
   so stale entries are simply never addressed again. *)
let pack_schema_version = 2

let c_disk_hits = Telemetry.counter Telemetry.global "features.pack_cache_disk_hits"
let c_disk_misses = Telemetry.counter Telemetry.global "features.pack_cache_disk_misses"
let c_disk_writes = Telemetry.counter Telemetry.global "features.pack_cache_disk_writes"
let c_disk_errors = Telemetry.counter Telemetry.global "features.pack_cache_disk_errors"

(* Process-local mirrors of the disk counters: telemetry instruments are
   no-ops while the global registry is disabled, but cache behaviour must
   stay observable (CLI [cache], the serve tests) regardless. *)
let a_disk_hits = Atomic.make 0
let a_disk_misses = Atomic.make 0
let a_disk_writes = Atomic.make 0
let a_disk_errors = Atomic.make 0

let bump atomic counter =
  Atomic.incr atomic;
  Telemetry.Counter.incr counter

let disk_counters () =
  [ ("disk_hits", Atomic.get a_disk_hits);
    ("disk_misses", Atomic.get a_disk_misses);
    ("disk_writes", Atomic.get a_disk_writes);
    ("disk_errors", Atomic.get a_disk_errors) ]

let env_cache_dir () =
  match Sys.getenv_opt "FELIX_PACK_CACHE" with
  | Some d when String.trim d <> "" -> Some (String.trim d)
  | Some _ | None -> None

let disk_dir_ref : string option Atomic.t = Atomic.make (env_cache_dir ())

let set_disk_cache d = Atomic.set disk_dir_ref d
let disk_cache () = Atomic.get disk_dir_ref

let effective_dir cache_dir =
  match cache_dir with Some _ -> cache_dir | None -> Atomic.get disk_dir_ref

let sched_fingerprint (sched : Schedule.t) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf sched.Schedule.sched_name;
  List.iter
    (fun (v : Schedule.var) ->
      Printf.bprintf buf "|%s:%016Lx:%016Lx" v.Schedule.v_name
        (Int64.bits_of_float v.Schedule.lo) (Int64.bits_of_float v.Schedule.hi))
    sched.Schedule.vars;
  List.iter
    (fun (extent, vars) ->
      Printf.bprintf buf "|d%d=" extent;
      List.iter (fun v -> Printf.bprintf buf "%s," v) vars)
    sched.Schedule.div_groups;
  Printf.bprintf buf "|c%d" (List.length sched.Schedule.constraints);
  Buffer.contents buf

let disk_key ~width ~optimize sg sched =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [ string_of_int pack_schema_version;
            Compute.workload_key sg;
            sched_fingerprint sched;
            Printf.sprintf "%016Lx" (Int64.bits_of_float width);
            string_of_bool optimize ]))

let entry_path dir key = Filename.concat dir ("pack-" ^ key ^ ".json")

let payload_of_pack t =
  Json.Obj
    [ ("n_vars", Json.Num (float_of_int (Array.length t.names)));
      ("n_penalties", Json.Num (float_of_int t.n_penalties));
      ("feature_tape", Autodiff.Tape.to_json t.feature_tape);
      ("penalty_tape", Autodiff.Tape.to_json t.penalty_tape);
      ("feature_plan", Autodiff.Tape.Plan.to_json t.feature_plan);
      ("penalty_plan", Autodiff.Tape.Plan.to_json t.penalty_plan) ]

(* [None] on any structural mismatch — including a payload whose input
   arity disagrees with the schedule in hand, which would mean a key
   collision or foreign file. *)
let pack_of_payload sched sk payload =
  let ( let* ) = Option.bind in
  let* n_vars = Option.bind (Json.find payload "n_vars") Json.as_int in
  let* n_penalties = Option.bind (Json.find payload "n_penalties") Json.as_int in
  let* feature_tape =
    Option.bind (Json.find payload "feature_tape") Autodiff.Tape.of_json
  in
  let* penalty_tape =
    Option.bind (Json.find payload "penalty_tape") Autodiff.Tape.of_json
  in
  (* Plans ride the cache so a warm hit skips the plan compiler too; each
     plan must agree with its tape's arity or the whole entry is rejected. *)
  let* feature_plan =
    Option.bind (Json.find payload "feature_plan") Autodiff.Tape.Plan.of_json
  in
  let* penalty_plan =
    Option.bind (Json.find payload "penalty_plan") Autodiff.Tape.Plan.of_json
  in
  let plan_matches plan tape =
    Autodiff.Tape.Plan.num_inputs plan = Autodiff.Tape.num_inputs tape
    && Autodiff.Tape.Plan.num_outputs plan = Autodiff.Tape.num_outputs tape
  in
  let n = Array.length sk.sk_names in
  if
    n_vars = n
    && Autodiff.Tape.num_inputs feature_tape = n
    && Autodiff.Tape.num_inputs penalty_tape = n
    && n_penalties >= 0
    && Autodiff.Tape.num_outputs penalty_tape = n_penalties
    && plan_matches feature_plan feature_tape
    && plan_matches penalty_plan penalty_tape
  then
    Some
      { sched; prog = sk.sk_prog; names = sk.sk_names; bounds = sk.sk_bounds;
        feature_tape; penalty_tape; feature_plan; penalty_plan; n_penalties;
        div_groups = sk.sk_div_groups; feasible = sk.sk_feasible }
  else None

let h_prepare_ms = Telemetry.histogram Telemetry.global "felix.prepare_ms"

let prepare ?(width = 1.0) ?(optimize = true) ?cache_dir sg sched =
  Telemetry.with_span Telemetry.global "pack.prepare"
    ~attrs:
      [ ("subgraph", Telemetry.Str sg.Compute.sg_name);
        ("sketch", Telemetry.Str sched.Schedule.sched_name) ]
  @@ fun () ->
  let t0 = Telemetry.now_s Telemetry.global in
  let sk = skeleton sg sched in
  let result =
    match effective_dir cache_dir with
    | None -> compile_pack ~width ~optimize sg sched sk
    | Some dir ->
      let path = entry_path dir (disk_key ~width ~optimize sg sched) in
      let compile_and_store () =
        let t = compile_pack ~width ~optimize sg sched sk in
        (* A failure here surfaces as the save's own error below. *)
        ignore (Store.mkdir_p dir);
        (match
           Store.Artifact.save ~path ~kind:pack_artifact_kind
             ~version:pack_schema_version (payload_of_pack t)
         with
        | Ok () -> bump a_disk_writes c_disk_writes
        | Error _ -> bump a_disk_errors c_disk_errors);
        t
      in
      (match
         Store.Artifact.load ~path ~kind:pack_artifact_kind
           ~version:pack_schema_version
       with
      | Ok payload -> (
        match pack_of_payload sched sk payload with
        | Some t ->
          bump a_disk_hits c_disk_hits;
          t
        | None ->
          bump a_disk_errors c_disk_errors;
          compile_and_store ())
      | Error (Store.Not_found _) ->
        bump a_disk_misses c_disk_misses;
        compile_and_store ()
      | Error _ ->
        bump a_disk_errors c_disk_errors;
        compile_and_store ())
  in
  Telemetry.Histogram.observe h_prepare_ms
    ((Telemetry.now_s Telemetry.global -. t0) *. 1000.0);
  result

(* Stable identity of a compiled pack's observable content: the serialized
   tapes plus everything the skeleton contributes. Two packs with equal
   digests evaluate bitwise-identically everywhere; the bench and the
   property tests use this to prove cold / parallel / disk-warm packs
   equal. *)
let digest t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Json.to_line (payload_of_pack t));
  Buffer.add_char buf '\n';
  Buffer.add_string buf t.sched.Schedule.sched_name;
  Array.iter (fun n -> Printf.bprintf buf "|%s" n) t.names;
  Array.iter
    (fun (lo, hi) ->
      Printf.bprintf buf "|%016Lx:%016Lx" (Int64.bits_of_float lo)
        (Int64.bits_of_float hi))
    t.bounds;
  List.iter
    (fun (extent, idxs) ->
      Printf.bprintf buf "|d%d=" extent;
      List.iter (fun i -> Printf.bprintf buf "%d," i) idxs)
    t.div_groups;
  Printf.bprintf buf "|c%d" (List.length t.sched.Schedule.constraints);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- disk-cache maintenance (CLI [cache] subcommand) ----------------------- *)

let is_entry name =
  String.length name > 10
  && String.sub name 0 5 = "pack-"
  && Filename.check_suffix name ".json"

let disk_cache_entries dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.to_list (Sys.readdir dir)
    |> List.filter is_entry
    |> List.map (fun f -> Filename.concat dir f)
  else []

let disk_cache_stats dir =
  let entries = disk_cache_entries dir in
  let bytes =
    List.fold_left
      (fun acc path ->
        match open_in_bin path with
        | ic ->
          let n = in_channel_length ic in
          close_in_noerr ic;
          acc + n
        | exception Sys_error _ -> acc)
      0 entries
  in
  [ ("entries", List.length entries); ("bytes", bytes) ]

let clear_disk_cache dir =
  List.fold_left
    (fun acc path ->
      match Sys.remove path with () -> acc + 1 | exception Sys_error _ -> acc)
    0 (disk_cache_entries dir)

(* --- in-memory (LRU) cache -------------------------------------------------- *)

let c_pack_hits = Telemetry.counter Telemetry.global "features.pack_cache_hits"
let c_pack_misses = Telemetry.counter Telemetry.global "features.pack_cache_misses"

(* Compiled packs are immutable (tapes allocate fresh scratch per eval), so
   a process-wide cache is safe to share across tuning runs and domains. *)
let pack_cache : (string, t) Runtime.Lru.t = Runtime.Lru.create ~capacity:256 ()

let g_pack_entries = Telemetry.gauge Telemetry.global "features.pack_cache_entries"
let g_pack_evictions = Telemetry.gauge Telemetry.global "features.pack_cache_evictions"

let cache_stats () =
  [ ("hits", Runtime.Lru.hits pack_cache);
    ("misses", Runtime.Lru.misses pack_cache);
    ("evictions", Runtime.Lru.evictions pack_cache);
    ("entries", Runtime.Lru.length pack_cache) ]

let clear_memory_cache () = Runtime.Lru.clear pack_cache

let prepare_cached ?(width = 1.0) ?(optimize = true) ?cache_dir sg sched =
  (* The key carries every parameter that changes the compiled result —
     including [optimize], which [prepare] has always taken but the LRU
     key used to omit, silently conflating optimised and raw tapes. *)
  let key =
    Printf.sprintf "%s|%s|%016Lx|%b" (Compute.workload_key sg)
      sched.Schedule.sched_name (Int64.bits_of_float width) optimize
  in
  match Runtime.Lru.find_opt pack_cache key with
  | Some t ->
    Telemetry.Counter.incr c_pack_hits;
    t
  | None ->
    Telemetry.Counter.incr c_pack_misses;
    let t = prepare ~width ~optimize ?cache_dir sg sched in
    Runtime.Lru.add pack_cache key t;
    Telemetry.Gauge.set g_pack_entries (float_of_int (Runtime.Lru.length pack_cache));
    Telemetry.Gauge.set g_pack_evictions
      (float_of_int (Runtime.Lru.evictions pack_cache));
    t

let prepare_all ?(width = 1.0) ?(optimize = true) ?cache_dir ?runtime pairs =
  let one (sg, sched) = prepare_cached ~width ~optimize ?cache_dir sg sched in
  match runtime with
  | Some rt when List.compare_length_with pairs 1 > 0 -> Runtime.map_list rt one pairs
  | Some _ | None -> List.map one pairs

let c_feature_evals = Telemetry.counter Telemetry.global "features.evals"

let features_at t y =
  Telemetry.Counter.incr c_feature_evals;
  Autodiff.Tape.eval t.feature_tape y

let features_vjp t y adj = Autodiff.Tape.vjp t.feature_tape y adj

let penalty_value_grad t y =
  let margins = Autodiff.Tape.eval t.penalty_tape y in
  let value = Array.fold_left (fun acc g -> acc +. (max g 0.0 ** 2.0)) 0.0 margins in
  let adj = Array.map (fun g -> 2.0 *. max g 0.0) margins in
  let _, grad = Autodiff.Tape.vjp t.penalty_tape y adj in
  (value, grad)

(* --- batch workspaces ----------------------------------------------------------

   One batch workspace runs both compiled plans over up to its capacity of
   candidates in lockstep (see {!Autodiff.Tape.plan_batch_workspace}); each
   lane is bitwise-identical to the scalar interpreter on that candidate
   alone. All matrices are lane-major: row [l] of a [batch * k] array is
   candidate [l]'s vector. *)

type batch_workspace = {
  bws_cap : int;
  bws_feat : Autodiff.Tape.plan_batch_workspace;
  bws_pen : Autodiff.Tape.plan_batch_workspace;
  bws_pen_adj : float array;  (* cap * n_penalties, lane-major *)
}

let batch_workspace t ~batch =
  if batch < 1 then invalid_arg "Pack.batch_workspace: batch must be >= 1";
  { bws_cap = batch;
    bws_feat = Autodiff.Tape.plan_batch_workspace t.feature_plan ~batch;
    bws_pen = Autodiff.Tape.plan_batch_workspace t.penalty_plan ~batch;
    bws_pen_adj = Array.make (max 1 (batch * t.n_penalties)) 0.0
  }

let features_forward_batch t bws ~batch ys =
  Telemetry.Counter.incr ~by:batch c_feature_evals;
  Autodiff.Tape.plan_forward_batch_into t.feature_plan bws.bws_feat ~batch ys

let features_backward_batch t bws ~batch adj grads =
  Autodiff.Tape.plan_backward_batch_into t.feature_plan bws.bws_feat ~batch adj grads

let penalty_value_grad_batch_into t bws ~batch ys ~grads ~values =
  if batch < 1 || batch > bws.bws_cap then
    invalid_arg "Pack.penalty_value_grad_batch_into: batch exceeds capacity";
  if Array.length values < batch then
    invalid_arg "Pack.penalty_value_grad_batch_into: values arity mismatch";
  let np = t.n_penalties in
  let margins = Autodiff.Tape.plan_forward_batch_into t.penalty_plan bws.bws_pen ~batch ys in
  let adj = bws.bws_pen_adj in
  (* Per lane, the fold of [penalty_value_grad]: left-to-right
     accumulation, with [max g 0.0] spelled as its branch so no float is
     boxed. *)
  for l = 0 to batch - 1 do
    let base = l * np in
    let value = ref 0.0 in
    for k = 0 to np - 1 do
      let g = Array.unsafe_get margins (base + k) in
      let m = if g >= 0.0 then g else 0.0 in
      value := !value +. (m ** 2.0);
      Array.unsafe_set adj (base + k) (2.0 *. m)
    done;
    values.(l) <- !value
  done;
  Autodiff.Tape.plan_backward_batch_into t.penalty_plan bws.bws_pen ~batch adj grads

let round_to_valid t y =
  let n = Array.length t.names in
  if Array.length y <> n then invalid_arg "Pack.round_to_valid: arity mismatch";
  let rounded = Array.make n nan in
  (* [vals.(i)] is the integer point [Float.round (exp rounded.(i))] the
     constraints are checked at; divisor tables carry it precomputed. *)
  let vals = Array.make n 0.0 in
  (* Divisor groups: round sequentially, consuming the extent. Variables
     later in the group get divisors of what remains, so the product always
     divides the extent. *)
  List.iter
    (fun (extent, idxs) ->
      let remaining = ref extent in
      List.iter
        (fun i ->
          let tb = Factorize.table !remaining in
          let k = Factorize.nearest tb (exp y.(i)) in
          rounded.(i) <- Factorize.log_divisor tb k;
          vals.(i) <- Factorize.integer_value tb k;
          remaining := !remaining / Factorize.divisor tb k)
        idxs)
    t.div_groups;
  (* Free variables: nearest integer, clamped to the box. *)
  for i = 0 to n - 1 do
    if Float.is_nan rounded.(i) then begin
      let lo, hi = t.bounds.(i) in
      let x = Float.round (exp (Stats.clamp ~lo ~hi y.(i))) in
      let r = log (max 1.0 x) in
      rounded.(i) <- r;
      vals.(i) <- Float.round (exp r)
    end
  done;
  (* Validate the original (unsmoothed) constraints at the integer point. *)
  if t.feasible vals then Some rounded else None

let assignment t y =
  Array.to_list (Array.mapi (fun i name -> (name, int_of_float (Float.round (exp y.(i))))) t.names)

let env_of t y =
  let tbl = Hashtbl.create (Array.length t.names) in
  Array.iteri (fun i name -> Hashtbl.replace tbl name (Float.round (exp y.(i)))) t.names;
  fun v ->
    match Hashtbl.find_opt tbl v with Some x -> x | None -> raise (Eval.Unbound_variable v)

let schedule_key t y =
  (* Single-buffer construction of "<sketch>:v0,v1,..." — called once per
     candidate per dedup in both search engines, so it skips [assignment]'s
     intermediate pair list and [String.concat]'s second pass. *)
  let buf = Buffer.create 64 in
  Buffer.add_string buf t.sched.Schedule.sched_name;
  Buffer.add_char buf ':';
  Array.iteri
    (fun i _ ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int (int_of_float (Float.round (exp y.(i))))))
    t.names;
  Buffer.contents buf
