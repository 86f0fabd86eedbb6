(* Tests for lib/store and the tuner's durable-store semantics: journal
   durability and reopen, torn-tail recovery, the versioned artifact
   envelope, crash-safe bit-identical resume, warm start, and the
   store-attached run's equivalence to the store-less run. *)

open Testutil

let quick = Tuning_config.quick

(* A lightweight cost model shared across the tuner-facing tests. *)
let shared_model =
  lazy
    (let rng = Rng.create 300 in
     let samples =
       Dataset.generate rng Device.rtx_a5000 ~schedules_per_task:60
         [ dense_sg (); conv_sg () ]
     in
     let ds = Dataset.split rng samples in
     let model, _ = Train.pretrain rng ~epochs:5 ~hidden:[ 64; 64 ] ds in
     model)

let fresh_dir () =
  let path = Filename.temp_file "felix_store" "" in
  Sys.remove path;
  path

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let ok_store = function
  | Ok s -> s
  | Error e -> Alcotest.failf "store error: %s" (Store.error_message e)

let record ?(network = "net") ?(device = "dev") ?(task_key = "t0") ?(sketch = "sk")
    ~key ~lat ?(y = [| 1.0; 2.5 |]) ?(round = 1) () =
  { Store.Record.network; device; task_key; sketch; key; y; latency_ms = lat; round;
    attempts = 1 }

(* --- bits ------------------------------------------------------------------- *)

let test_bits_roundtrip () =
  List.iter
    (fun v ->
      match Store.Bits.to_float (Store.Bits.of_float v) with
      | Some v' ->
        Alcotest.(check bool)
          (Printf.sprintf "bits of %h" v)
          true
          (Int64.bits_of_float v = Int64.bits_of_float v')
      | None -> Alcotest.fail "roundtrip failed")
    [ 0.0; -0.0; 1.0 /. 3.0; Float.pi; infinity; neg_infinity; nan; 4.9e-324 ];
  let xs = [| 0.1; -7.25; 1e300 |] in
  (match Store.Bits.to_floats (Store.Bits.of_floats xs) with
  | Some xs' ->
    Alcotest.(check bool) "array bits" true
      (Array.for_all2 (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b) xs xs')
  | None -> Alcotest.fail "array roundtrip failed");
  Alcotest.(check bool) "short rejected" true (Store.Bits.to_float "abc" = None);
  Alcotest.(check bool) "non-hex rejected" true
    (Store.Bits.to_float "zzzzzzzzzzzzzzzz" = None)

(* Random bit patterns, weighted towards the classes a word-at-a-time codec
   could get wrong: NaN payloads, subnormals, signed zeros and infinities. *)
let bits_gen =
  let open QCheck2.Gen in
  let exp_mant e m = Int64.logor (Int64.shift_left (Int64.of_int e) 52) m in
  let mant = map (fun m -> Int64.logand m 0xf_ffff_ffff_ffffL) int64 in
  frequency
    [ (4, int64);
      (1, map2 (fun sign m -> Int64.logor (exp_mant (if sign then 0xfff else 0x7ff) m) 1L) bool mant);
      (1, map2 (fun sign m -> exp_mant (if sign then 0x800 else 0) m) bool mant);
      (1, oneofl [ 0L; Int64.min_int; 0x7ff0000000000000L; 0xfff0000000000000L; -1L; 1L ]) ]

let test_bits_oracle =
  (* [Printf "%016Lx"] is the encoder the store was specified with; the
     word-at-a-time codec must agree with it byte for byte. *)
  Testutil.qtest ~count:2000 "bits codec matches %016Lx and inverts it" bits_gen (fun bits ->
      let f = Int64.float_of_bits bits in
      let s = Store.Bits.of_float f in
      s = Printf.sprintf "%016Lx" bits
      && Option.map Int64.bits_of_float (Store.Bits.to_float s) = Some bits
      && Option.map Int64.bits_of_float (Store.Bits.to_float (String.uppercase_ascii s))
         = Some bits
      && Option.map (Array.map Int64.bits_of_float) (Store.Bits.to_floats (s ^ s))
         = Some [| bits; bits |])

let test_bits_reject_noncanonical () =
  let one = Store.Bits.of_float 1.0 in
  let rejected what s =
    if Store.Bits.to_float s <> None then Alcotest.failf "to_float accepted %s %S" what s;
    (* the same chunk inside a longer run, in front of and behind a good one *)
    if Store.Bits.to_floats (one ^ s) <> None || Store.Bits.to_floats (s ^ one) <> None then
      Alcotest.failf "to_floats accepted %s %S" what s
  in
  (* OCaml's digit separator: "3ff00000000000_0" once decoded to 0x1.fp-960. *)
  rejected "separator" "3ff00000000000_0";
  (* every byte value at every position ('_', 'x', signs, NUL, high bytes
     included): hex digits of either case decode, all else is rejected *)
  for i = 0 to 15 do
    for c = 0 to 255 do
      let s = String.mapi (fun j d -> if j = i then Char.chr c else d) one in
      match Char.chr c with
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' ->
        Alcotest.(check (option string)) "hex digit accepted" (Some (String.lowercase_ascii s))
          (Option.map (fun f -> Printf.sprintf "%016Lx" (Int64.bits_of_float f))
             (Store.Bits.to_float s))
      | _ -> rejected "non-hex byte" s
    done
  done

let test_bits_reject_ragged () =
  let two = Store.Bits.of_floats [| 1.0; -2.0 |] in
  Alcotest.(check bool) "empty ok" true (Store.Bits.to_floats "" = Some [||]);
  List.iter
    (fun n ->
      if Store.Bits.to_floats (String.sub two 0 n) <> None then
        Alcotest.failf "to_floats accepted length %d" n)
    [ 1; 8; 15; 17; 24; 31 ]

(* --- artifacts --------------------------------------------------------------- *)

let test_artifact_envelope () =
  let path = Filename.temp_file "felix_artifact" ".json" in
  let payload = Json.Obj [ ("x", Json.Num 1.5); ("s", Json.Str "v") ] in
  (match Store.Artifact.save ~path ~kind:"k1" ~version:2 payload with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" (Store.error_message e));
  (match Store.Artifact.load ~path ~kind:"k1" ~version:2 with
  | Ok j -> Alcotest.(check bool) "payload round-trips" true (j = payload)
  | Error e -> Alcotest.failf "load: %s" (Store.error_message e));
  (match Store.Artifact.load ~path ~kind:"other" ~version:2 with
  | Error (Store.Kind_mismatch { found = "k1"; expected = "other" }) -> ()
  | _ -> Alcotest.fail "expected kind mismatch");
  (match Store.Artifact.load ~path ~kind:"k1" ~version:3 with
  | Error (Store.Version_mismatch { kind = "k1"; found = 2; expected = 3 }) -> ()
  | _ -> Alcotest.fail "expected version mismatch");
  (match Store.Artifact.load ~path:"/nonexistent/a.json" ~kind:"k1" ~version:1 with
  | Error (Store.Not_found _) -> ()
  | _ -> Alcotest.fail "expected not found");
  let oc = open_out path in
  output_string oc "{ not json";
  close_out oc;
  (match Store.Artifact.load ~path ~kind:"k1" ~version:2 with
  | Error (Store.Corrupt _) -> ()
  | _ -> Alcotest.fail "expected corrupt");
  Sys.remove path

(* --- journal ----------------------------------------------------------------- *)

let test_journal_reopen () =
  let dir = fresh_dir () in
  let s = ok_store (Store.open_dir dir) in
  let id = Store.fresh_run_id s in
  Alcotest.(check string) "first id" "run0001" id;
  Store.begin_run s ~id;
  Store.append s (record ~device:"devA" ~task_key:"t0" ~key:"k1" ~lat:1.5 ());
  Store.append s
    (record ~device:"devA" ~task_key:"t1" ~key:"k2" ~lat:2.5 ~y:[| -0.5 |] ());
  Store.append s (record ~device:"devB" ~task_key:"t0" ~key:"k3" ~lat:3.5 ());
  Store.complete_run s ~id;
  Store.close s;
  let s = ok_store (Store.open_dir dir) in
  Alcotest.(check int) "records survive reopen" 3 (Store.num_records s);
  let st = Store.stats s in
  Alcotest.(check int) "runs started" 1 st.Store.runs_started;
  Alcotest.(check int) "runs completed" 1 st.Store.runs_completed;
  Alcotest.(check (list string)) "devices sorted" [ "devA"; "devB" ] st.Store.devices;
  Alcotest.(check int) "recovered bytes" 0 st.Store.recovered_bytes;
  let recs = Store.completed_records s ~device:"devA" ~task_key:"t0" in
  Alcotest.(check int) "filtered by device+task" 1 (List.length recs);
  let r = List.hd recs in
  Alcotest.(check string) "key survives" "k1" r.Store.Record.key;
  Alcotest.(check bool) "latency bit-exact" true
    (Int64.bits_of_float r.Store.Record.latency_ms = Int64.bits_of_float 1.5);
  (match Store.completed_records s ~device:"devA" ~task_key:"t1" with
  | [ r ] ->
    Alcotest.(check bool) "y bit-exact" true
      (Int64.bits_of_float r.Store.Record.y.(0) = Int64.bits_of_float (-0.5))
  | l -> Alcotest.failf "expected 1 record, got %d" (List.length l));
  Alcotest.(check string) "next id counts prior runs" "run0002" (Store.fresh_run_id s);
  Store.close s;
  remove_tree dir

let test_journal_uncompleted_run_invisible () =
  let dir = fresh_dir () in
  let s = ok_store (Store.open_dir dir) in
  let id = Store.fresh_run_id s in
  Store.begin_run s ~id;
  Store.append s (record ~key:"k1" ~lat:1.0 ());
  Store.close s;
  (* Never completed: its records must not feed warm starts. *)
  let s = ok_store (Store.open_dir dir) in
  Alcotest.(check int) "record still counted" 1 (Store.num_records s);
  Alcotest.(check int) "but not completed" 0
    (List.length (Store.completed_records s ~device:"dev" ~task_key:"t0"));
  Store.close s;
  remove_tree dir

let test_torn_tail_recovery () =
  let dir = fresh_dir () in
  let s = ok_store (Store.open_dir dir) in
  let id = Store.fresh_run_id s in
  Store.begin_run s ~id;
  Store.append s (record ~key:"k1" ~lat:1.0 ());
  Store.append s (record ~key:"k2" ~lat:2.0 ());
  Store.complete_run s ~id;
  Store.close s;
  (* A crash mid-write leaves a torn final line. *)
  let journal = Filename.concat dir "journal.jsonl" in
  let oc = open_out_gen [ Open_append ] 0o644 journal in
  output_string oc "{\"k\":\"m\",\"net\":\"net\",\"dev";
  close_out oc;
  let s = ok_store (Store.open_dir dir) in
  Alcotest.(check int) "torn line dropped, rest intact" 2 (Store.num_records s);
  let st = Store.stats s in
  Alcotest.(check bool) "recovery reported" true (st.Store.recovered_bytes > 0);
  (* The truncated journal must be appendable and replayable again. *)
  let id2 = Store.fresh_run_id s in
  Store.begin_run s ~id:id2;
  Store.append s (record ~key:"k3" ~lat:3.0 ());
  Store.complete_run s ~id:id2;
  Store.close s;
  let s = ok_store (Store.open_dir dir) in
  Alcotest.(check int) "append after recovery" 3 (Store.num_records s);
  Alcotest.(check int) "no further recovery" 0 (Store.stats s).Store.recovered_bytes;
  Store.close s;
  remove_tree dir

let test_corrupt_interior_rejected () =
  let dir = fresh_dir () in
  let s = ok_store (Store.open_dir dir) in
  Store.append s (record ~key:"k1" ~lat:1.0 ());
  Store.close s;
  let journal = Filename.concat dir "journal.jsonl" in
  let lines = In_channel.with_open_text journal In_channel.input_all in
  Out_channel.with_open_text journal (fun oc ->
      output_string oc "corrupt interior line\n";
      output_string oc lines);
  (match Store.open_dir dir with
  | Error (Store.Corrupt _) -> ()
  | Error e -> Alcotest.failf "expected Corrupt, got %s" (Store.error_message e)
  | Ok _ -> Alcotest.fail "opened a journal with a corrupt interior");
  remove_tree dir

(* --- tuner integration -------------------------------------------------------- *)

let dcgan () = Workload.graph Workload.Dcgan

let search rounds = { quick with Tuning_config.max_rounds = rounds }

let run_plain ?(jobs = 1) ?on_event ~rounds ~seed engine =
  let rc =
    Tuning_config.(
      builder |> with_search (search rounds) |> with_seed seed |> with_jobs jobs)
  in
  let rc =
    match on_event with Some f -> Tuning_config.with_on_event f rc | None -> rc
  in
  run_tuner rc Device.rtx_a5000 (Lazy.force shared_model) (dcgan ()) engine

let run_stored ?(jobs = 1) ?on_event ~dir ~rounds ~seed engine =
  let s = ok_store (Store.open_dir dir) in
  let rc =
    Tuning_config.(
      builder
      |> with_search (search rounds)
      |> with_seed seed |> with_jobs jobs |> with_store s)
  in
  let rc =
    match on_event with Some f -> Tuning_config.with_on_event f rc | None -> rc
  in
  let finish () = Store.close s in
  match Tuner.run rc Device.rtx_a5000 (Lazy.force shared_model) (dcgan ()) engine with
  | Ok r ->
    finish ();
    r
  | Error e ->
    finish ();
    Alcotest.failf "Tuner.run: %s" (Tuner.error_message e)
  | exception e ->
    finish ();
    raise e

let check_results_identical msg (a : Tuner.result) (b : Tuner.result) =
  let bits = Int64.bits_of_float in
  Alcotest.(check bool)
    (msg ^ ": final latency bit-identical")
    true
    (bits a.Tuner.final_latency_ms = bits b.Tuner.final_latency_ms);
  Alcotest.(check int) (msg ^ ": measurements") a.Tuner.total_measurements
    b.Tuner.total_measurements;
  Alcotest.(check int)
    (msg ^ ": curve length")
    (List.length a.Tuner.curve)
    (List.length b.Tuner.curve);
  List.iter2
    (fun (pa : Tuner.progress_point) (pb : Tuner.progress_point) ->
      if bits pa.time_s <> bits pb.time_s || bits pa.latency_ms <> bits pb.latency_ms
      then Alcotest.failf "%s: curve point differs" msg)
    a.Tuner.curve b.Tuner.curve;
  List.iter2
    (fun (ta : Tuner.task_result) (tb : Tuner.task_result) ->
      if bits ta.best.Tuner.latency_ms <> bits tb.best.Tuner.latency_ms then
        Alcotest.failf "%s: task best differs" msg;
      if ta.best.Tuner.assignment <> tb.best.Tuner.assignment then
        Alcotest.failf "%s: task assignment differs" msg)
    a.Tuner.tasks b.Tuner.tasks

let test_cold_store_run_matches_plain () =
  (* Journaling and checkpointing must be pure observation: a run over an
     empty store is bit-identical to a run without one. *)
  let reference = run_plain ~rounds:4 ~seed:21 Tuner.Felix in
  let dir = fresh_dir () in
  let stored = run_stored ~dir ~rounds:4 ~seed:21 Tuner.Felix in
  check_results_identical "store vs no store" reference stored;
  remove_tree dir

exception Abort_for_test

let abort_after k = function
  | Tuner.Round_finished { round; _ } when round = k -> raise Abort_for_test
  | _ -> ()

let interrupted_then_resumed ~dir ~rounds ~seed ~abort_round ~resume_jobs engine =
  (match
     run_stored ~dir ~rounds ~seed ~on_event:(abort_after abort_round) engine
   with
  | _ -> Alcotest.fail "expected the interrupting callback to fire"
  | exception Abort_for_test -> ());
  run_stored ~jobs:resume_jobs ~dir ~rounds ~seed engine

let test_resume_bit_identical () =
  (* Kill (via an aborting observer) after round k, resume, and require
     the result to be bit-identical to the uninterrupted run — across
     engines, abort points and resume-side parallelism. *)
  List.iter
    (fun (engine, ename, rounds, abort_round, resume_jobs) ->
      let reference = run_plain ~rounds ~seed:31 engine in
      let dir = fresh_dir () in
      let resumed =
        interrupted_then_resumed ~dir ~rounds ~seed:31 ~abort_round ~resume_jobs engine
      in
      check_results_identical
        (Printf.sprintf "%s k=%d jobs=%d" ename abort_round resume_jobs)
        reference resumed;
      remove_tree dir)
    [ (Tuner.Felix, "felix", 6, 2, 1);
      (Tuner.Felix, "felix", 6, 4, 2);
      (Tuner.Ansor, "ansor", 6, 2, 1);
      (Tuner.Ansor, "ansor", 5, 3, 2) ]

let test_resume_after_torn_tail () =
  (* Abort mid-run, then damage the journal the way a crash mid-append
     would: the torn tail is dropped and the resume still reproduces the
     uninterrupted result bit-for-bit. *)
  let reference = run_plain ~rounds:6 ~seed:41 Tuner.Felix in
  let dir = fresh_dir () in
  (match
     run_stored ~dir ~rounds:6 ~seed:41 ~on_event:(abort_after 3) Tuner.Felix
   with
  | _ -> Alcotest.fail "expected abort"
  | exception Abort_for_test -> ());
  let journal = Filename.concat dir "journal.jsonl" in
  let oc = open_out_gen [ Open_append ] 0o644 journal in
  output_string oc "{\"k\":\"m\",\"net\":\"dcg";
  close_out oc;
  let resumed = run_stored ~dir ~rounds:6 ~seed:41 Tuner.Felix in
  check_results_identical "torn tail then resume" reference resumed;
  remove_tree dir

let test_resume_ignores_foreign_checkpoint () =
  (* A checkpoint of a different configuration must not be resumed: the
     run falls back to a fresh (warm) start and completes on its own. *)
  let dir = fresh_dir () in
  (match
     run_stored ~dir ~rounds:6 ~seed:51 ~on_event:(abort_after 2) Tuner.Felix
   with
  | _ -> Alcotest.fail "expected abort"
  | exception Abort_for_test -> ());
  let other = run_stored ~dir ~rounds:6 ~seed:52 Tuner.Felix in
  Alcotest.(check bool) "different-seed run completes" true
    (Float.is_finite other.Tuner.final_latency_ms);
  (* The interrupted seed-51 run can still be resumed afterwards. *)
  let reference = run_plain ~rounds:6 ~seed:51 Tuner.Felix in
  let resumed = run_stored ~dir ~rounds:6 ~seed:51 Tuner.Felix in
  (* The seed-52 run overwrote the checkpoint with a completed one, so
     this is a warm start, not a resume: it must still finish, and with
     dedup hits it cannot measure more than the reference. *)
  Alcotest.(check bool) "warm rerun measures no more than cold" true
    (resumed.Tuner.total_measurements <= reference.Tuner.total_measurements);
  remove_tree dir

let test_legacy_batch_field_resumes () =
  (* Run configurations written by older builds carry a "batch" descent
     width that no longer exists. A job spec and a store's run.json with
     that field must still decode, and the store must resume to the
     uninterrupted result. *)
  let rounds = 6 and seed = 81 in
  let rc = Tuning_config.(builder |> with_search (search rounds) |> with_seed seed) in
  let spec =
    { Serve.Job.network = Workload.Dcgan; inference_batch = 1; device = Device.rtx_a5000;
      engine = Tuning_config.Felix; run = rc; deadline_s = None; store_dir = None }
  in
  let legacy =
    match Serve.Job.to_json spec with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "run", Json.Obj r -> ("run", Json.Obj (r @ [ ("batch", Json.Num 32.0) ]))
             | f -> f)
           fields)
    | _ -> Alcotest.fail "job spec is not an object"
  in
  let same_run what (r : Tuning_config.run) =
    Alcotest.(check string)
      (what ^ ": run decodes to the current encoding")
      (Json.to_line (Tuning_config.to_json rc))
      (Json.to_line (Tuning_config.to_json r))
  in
  (match Serve.Job.of_json legacy with
  | Ok s -> same_run "job spec" s.Serve.Job.run
  | Error m -> Alcotest.failf "legacy job spec rejected: %s" m);
  let reference = run_plain ~rounds ~seed Tuner.Felix in
  let dir = fresh_dir () in
  (match run_stored ~dir ~rounds ~seed ~on_event:(abort_after 3) Tuner.Felix with
  | _ -> Alcotest.fail "expected abort"
  | exception Abort_for_test -> ());
  (match
     Store.Artifact.save ~path:(Filename.concat dir "run.json")
       ~kind:Serve.Job.invocation_kind ~version:Serve.Job.invocation_version legacy
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "run.json: %s" (Store.error_message e));
  let recorded =
    match Serve.Job.load_invocation ~dir with
    | Ok s -> s.Serve.Job.run
    | Error e -> Alcotest.failf "legacy run.json rejected: %s" (Store.error_message e)
  in
  same_run "run.json" recorded;
  let s = ok_store (Store.open_dir dir) in
  let resumed =
    Fun.protect ~finally:(fun () -> Store.close s) @@ fun () ->
    run_tuner (Tuning_config.with_store s recorded) Device.rtx_a5000
      (Lazy.force shared_model) (dcgan ()) Tuner.Felix
  in
  check_results_identical "legacy run.json resume" reference resumed;
  remove_tree dir

let test_warm_start_saves_measurements () =
  let dir = fresh_dir () in
  let cold = run_stored ~dir ~rounds:6 ~seed:61 Tuner.Felix in
  (* Second run, same configuration, over the completed store: seeded
     dedup caches mean strictly fewer new measurements, and the curve
     starts from the cold run's knowledge. *)
  let warm = run_stored ~dir ~rounds:6 ~seed:61 Tuner.Felix in
  Alcotest.(check bool)
    (Printf.sprintf "warm measures strictly fewer (%d vs %d)"
       warm.Tuner.total_measurements cold.Tuner.total_measurements)
    true
    (warm.Tuner.total_measurements < cold.Tuner.total_measurements);
  Alcotest.(check bool) "warm final no worse" true
    (warm.Tuner.final_latency_ms <= cold.Tuner.final_latency_ms);
  (* Warm-start telemetry: replays counted on a fresh registry. *)
  let reg = Telemetry.create () in
  Telemetry.enable reg;
  let s = ok_store (Store.open_dir dir) in
  let rc =
    Tuning_config.(
      builder |> with_search (search 2) |> with_seed 61 |> with_store s
      |> with_telemetry reg)
  in
  ignore (run_tuner rc Device.rtx_a5000 (Lazy.force shared_model) (dcgan ()) Tuner.Felix);
  Store.close s;
  Alcotest.(check bool) "store.replays counted" true
    (Telemetry.Counter.value (Telemetry.counter reg "store.replays") > 0);
  Alcotest.(check bool) "store.records counted" true
    (Telemetry.Counter.value (Telemetry.counter reg "store.records") >= 0);
  remove_tree dir

let tests =
  [ Alcotest.test_case "float bits round-trip" `Quick test_bits_roundtrip;
    test_bits_oracle;
    Alcotest.test_case "bits decoder rejects non-canonical text" `Quick
      test_bits_reject_noncanonical;
    Alcotest.test_case "bits to_floats rejects ragged lengths" `Quick test_bits_reject_ragged;
    Alcotest.test_case "artifact envelope (kind/version/corrupt)" `Quick
      test_artifact_envelope;
    Alcotest.test_case "journal survives reopen" `Quick test_journal_reopen;
    Alcotest.test_case "uncompleted runs excluded from warm start" `Quick
      test_journal_uncompleted_run_invisible;
    Alcotest.test_case "torn journal tail is recovered" `Quick test_torn_tail_recovery;
    Alcotest.test_case "corrupt interior line rejected" `Quick
      test_corrupt_interior_rejected;
    Alcotest.test_case "cold store run matches store-less run" `Slow
      test_cold_store_run_matches_plain;
    Alcotest.test_case "interrupted runs resume bit-identically" `Slow
      test_resume_bit_identical;
    Alcotest.test_case "resume after torn journal tail" `Slow test_resume_after_torn_tail;
    Alcotest.test_case "foreign checkpoint is not resumed" `Slow
      test_resume_ignores_foreign_checkpoint;
    Alcotest.test_case "warm start saves measurements" `Slow
      test_warm_start_saves_measurements;
    Alcotest.test_case "legacy batch field decodes and resumes" `Slow
      test_legacy_batch_field_resumes ]
