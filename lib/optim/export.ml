(* The shared JSON module lives in [lib/util]; the alias keeps the
   historical [Export.Json] path (and its type equalities) working. *)
module Json = Json

let curve_to_csv (r : Tuner.result) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "time_s,latency_ms\n";
  List.iter
    (fun (p : Tuner.progress_point) ->
      Buffer.add_string buf (Printf.sprintf "%.1f,%.6f\n" p.time_s p.latency_ms))
    r.Tuner.curve;
  Buffer.contents buf

let result_json (r : Tuner.result) =
  let open Json in
  let task (tr : Tuner.task_result) =
    Obj
      [ ("subgraph", Str tr.task.Partition.subgraph.Compute.sg_name);
        ("weight", Num (float_of_int tr.task.Partition.weight));
        ("best_latency_ms", Num tr.best.Tuner.latency_ms);
        ("sketch", Str tr.best.Tuner.sketch);
        ("rounds", Num (float_of_int tr.rounds_spent));
        ("measurements", Num (float_of_int tr.measurements));
        ("assignment",
         Obj (List.map (fun (k, v) -> (k, Num (float_of_int v))) tr.best.Tuner.assignment)) ]
  in
  let point (p : Tuner.progress_point) = List [ Num p.time_s; Num p.latency_ms ] in
  Obj
    [ ("network", Str r.network);
      ("device", Str r.device_name);
      ("engine", Str (Tuner.engine_name r.engine));
      ("final_latency_ms", Num r.final_latency_ms);
      ("total_measurements", Num (float_of_int r.total_measurements));
      ("curve", List (List.map point r.curve));
      ("tasks", List (List.map task r.tasks)) ]

let result_to_json r = Json.to_string (result_json r)

(* --- versioned result artifact ---------------------------------------------

   Results cross the disk through [Store.Artifact], the one envelope every
   persistent Felix artifact shares. The writer's shortest-round-trip
   number formatting makes the JSON bit-exact: every float read back
   equals the float written. *)

let result_kind = "felix-tuning-result"
let result_version = 1

type saved_task = {
  st_subgraph : string;
  st_weight : int;
  st_best_latency_ms : float;
  st_sketch : string;
  st_rounds : int;
  st_measurements : int;
  st_assignment : (string * int) list;
}

type saved_result = {
  sr_network : string;
  sr_device : string;
  sr_engine : string;
  sr_final_latency_ms : float;
  sr_total_measurements : int;
  sr_curve : (float * float) list;
  sr_tasks : saved_task list;
}

let save_result r path =
  Store.Artifact.save ~path ~kind:result_kind ~version:result_version (result_json r)

let saved_of_json j =
  let module J = Json in
  let ( let* ) = Option.bind in
  let str k = Option.bind (J.find j k) J.as_string in
  let num k = Option.bind (J.find j k) J.as_float in
  let int k = Option.bind (J.find j k) J.as_int in
  let* sr_network = str "network" in
  let* sr_device = str "device" in
  let* sr_engine = str "engine" in
  let* sr_final_latency_ms = num "final_latency_ms" in
  let* sr_total_measurements = int "total_measurements" in
  let* curve = Option.bind (J.find j "curve") J.as_list in
  let* sr_curve =
    List.fold_left
      (fun acc p ->
        let* acc = acc in
        match p with
        | J.List [ J.Num t; J.Num l ] -> Some ((t, l) :: acc)
        | _ -> None)
      (Some []) curve
    |> Option.map List.rev
  in
  let* tasks = Option.bind (J.find j "tasks") J.as_list in
  let task tj =
    let stri k = Option.bind (J.find tj k) J.as_string in
    let inti k = Option.bind (J.find tj k) J.as_int in
    let* st_subgraph = stri "subgraph" in
    let* st_weight = inti "weight" in
    let* st_best_latency_ms = Option.bind (J.find tj "best_latency_ms") J.as_float in
    let* st_sketch = stri "sketch" in
    let* st_rounds = inti "rounds" in
    let* st_measurements = inti "measurements" in
    let* assignment =
      match J.find tj "assignment" with Some (J.Obj kvs) -> Some kvs | _ -> None
    in
    let* st_assignment =
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          match J.as_int v with Some i -> Some ((k, i) :: acc) | None -> None)
        (Some []) assignment
      |> Option.map List.rev
    in
    Some
      { st_subgraph; st_weight; st_best_latency_ms; st_sketch; st_rounds;
        st_measurements; st_assignment }
  in
  let* sr_tasks =
    List.fold_left
      (fun acc tj ->
        let* acc = acc in
        let* t = task tj in
        Some (t :: acc))
      (Some []) tasks
    |> Option.map List.rev
  in
  Some
    { sr_network; sr_device; sr_engine; sr_final_latency_ms; sr_total_measurements;
      sr_curve; sr_tasks }

let load_result path =
  match Store.Artifact.load ~path ~kind:result_kind ~version:result_version with
  | Error e -> Error e
  | Ok j -> (
    match saved_of_json j with
    | Some s -> Ok s
    | None -> Error (Store.Corrupt (path ^ ": malformed tuning-result payload")))

let write_curve_csv r path =
  Store.write_atomic ~path (fun oc -> output_string oc (curve_to_csv r)) |> Result.map ignore
