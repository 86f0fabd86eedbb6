type error =
  | Not_found of string
  | Io of string
  | Corrupt of string
  | Version_mismatch of { kind : string; found : int; expected : int }
  | Kind_mismatch of { found : string; expected : string }

let error_message = function
  | Not_found p -> Printf.sprintf "no such artifact: %s" p
  | Io m -> Printf.sprintf "i/o error: %s" m
  | Corrupt m -> Printf.sprintf "corrupt artifact: %s" m
  | Version_mismatch { kind; found; expected } ->
    Printf.sprintf "%s schema version %d (this build reads %d)" kind found expected
  | Kind_mismatch { found; expected } ->
    Printf.sprintf "artifact kind %S where %S was expected" found expected

(* --- bit-exact float encoding ---------------------------------------------- *)

module Bits = struct
  (* The 8 lowercase hex digits of the 32-bit [v] as the bytes of an
     int64, most significant first: the nibbles are spread one per byte,
     then each byte gets '0', plus 'a' - '0' - 10 where its nibble is 10
     or more (a nibble plus 6 carries into bit 4 exactly then). No byte
     overflows into the next, so the lanes never interact. *)
  let[@inline] hex8 v =
    let x = Int64.of_int v in
    let x = Int64.logor (Int64.shift_left (Int64.logand x 0xffff0000L) 16) (Int64.logand x 0xffffL) in
    let x =
      Int64.logor
        (Int64.shift_left (Int64.logand x 0x0000ff000000ff00L) 8)
        (Int64.logand x 0x000000ff000000ffL)
    in
    let x =
      Int64.logor
        (Int64.shift_left (Int64.logand x 0x00f000f000f000f0L) 4)
        (Int64.logand x 0x000f000f000f000fL)
    in
    let letters =
      Int64.logand
        (Int64.shift_right_logical (Int64.add x 0x0606060606060606L) 4)
        0x0101010101010101L
    in
    Int64.add (Int64.add x 0x3030303030303030L) (Int64.mul letters 0x27L)

  (* A character's hex value, or 16 when it is not a hex digit. *)
  let nibbles =
    String.init 256 (fun c ->
        Char.chr
          (match Char.chr c with
          | '0' .. '9' -> c - Char.code '0'
          | 'a' .. 'f' -> c - Char.code 'a' + 10
          | 'A' .. 'F' -> c - Char.code 'A' + 10
          | _ -> 16))

  let[@inline] nibble s k = Char.code (String.unsafe_get nibbles (Char.code (String.unsafe_get s k)))

  let of_floats arr =
    let b = Bytes.create (16 * Array.length arr) in
    for i = 0 to Array.length arr - 1 do
      let bits = Int64.bits_of_float (Array.unsafe_get arr i) in
      Bytes.set_int64_be b (16 * i) (hex8 (Int64.to_int (Int64.shift_right_logical bits 32)));
      Bytes.set_int64_be b ((16 * i) + 8) (hex8 (Int64.to_int bits land 0xffff_ffff))
    done;
    Bytes.unsafe_to_string b

  let to_floats s =
    let n = String.length s in
    if n mod 16 <> 0 then None
    else begin
      let out = Array.create_float (n / 16) in
      (* ORs every digit's value: reaches 16 iff some byte was not a digit *)
      let bad = ref 0 in
      for i = 0 to (n / 16) - 1 do
        let hi = ref 0 and lo = ref 0 in
        for k = 16 * i to (16 * i) + 7 do
          let h = nibble s k and l = nibble s (k + 8) in
          hi := (!hi lsl 4) lor h;
          lo := (!lo lsl 4) lor l;
          bad := !bad lor h lor l
        done;
        Array.unsafe_set out i
          (Int64.float_of_bits
             (Int64.logor (Int64.shift_left (Int64.of_int !hi) 32) (Int64.of_int !lo)))
      done;
      if !bad < 16 then Some out else None
    end

  let of_float f = of_floats [| f |]

  let to_float s =
    if String.length s <> 16 then None else Option.map (fun a -> a.(0)) (to_floats s)
end

(* --- low-level file helpers ------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let fsync_dir dir =
  (* Persist the rename itself; best-effort on filesystems that refuse
     directory fsync. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd
  | exception Unix.Unix_error _ -> ()

let io_protect f =
  try f () with
  | Sys_error m -> Error (Io m)
  | Unix.Unix_error (e, op, arg) ->
    Error (Io (Printf.sprintf "%s(%s): %s" op arg (Unix.error_message e)))

let rec mkdir_p dir =
  if dir = "" || Sys.file_exists dir then Ok ()
  else
    let parent = Filename.dirname dir in
    match if parent <> dir then mkdir_p parent else Ok () with
    | Error _ as e -> e
    | Ok () ->
      io_protect (fun () ->
          (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          Ok ())

let write_atomic ~path write =
  io_protect @@ fun () ->
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let oc = Unix.out_channel_of_descr fd in
  let bytes =
    match
      write oc;
      flush oc;
      Unix.fsync fd
    with
    | () ->
      let bytes = pos_out oc in
      close_out oc;
      bytes
    | exception e ->
      close_out_noerr oc;
      raise e
  in
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path);
  Ok bytes

(* --- versioned artifacts --------------------------------------------------- *)

module Artifact = struct
  let envelope ~kind ~version payload =
    Json.Obj
      [ ("felix",
         Json.Obj
           [ ("kind", Json.Str kind); ("version", Json.Num (float_of_int version)) ]);
        ("payload", payload) ]

  let write ~path ~kind ~version payload =
    write_atomic ~path (fun oc ->
        Json.output oc (envelope ~kind ~version payload);
        output_char oc '\n')

  let save ~path ~kind ~version payload =
    Result.map ignore (write ~path ~kind ~version payload)

  let load ~path ~kind ~version =
    if not (Sys.file_exists path) then Error (Not_found path)
    else
      match io_protect (fun () -> Ok (read_file path)) with
      | Error _ as e -> e
      | Ok text -> (
        match Json.parse text with
        | Error msg -> Error (Corrupt (Printf.sprintf "%s: %s" path msg))
        | Ok json -> (
          let header = Json.find json "felix" in
          let found_kind =
            Option.bind header (fun h -> Option.bind (Json.find h "kind") Json.as_string)
          in
          let found_version =
            Option.bind header (fun h -> Option.bind (Json.find h "version") Json.as_int)
          in
          match (found_kind, found_version, Json.find json "payload") with
          | None, _, _ | _, None, _ | _, _, None ->
            Error (Corrupt (Printf.sprintf "%s: missing artifact envelope" path))
          | Some k, _, _ when k <> kind -> Error (Kind_mismatch { found = k; expected = kind })
          | _, Some v, _ when v <> version ->
            Error (Version_mismatch { kind; found = v; expected = version })
          | Some _, Some _, Some payload -> Ok payload))
end

(* --- measurement records --------------------------------------------------- *)

module Record = struct
  type t = {
    network : string;
    device : string;
    task_key : string;
    sketch : string;
    key : string;
    y : float array;
    latency_ms : float;
    round : int;
    attempts : int;
  }

  let to_json r =
    Json.Obj
      ([ ("k", Json.Str "m");
         ("net", Json.Str r.network);
         ("dev", Json.Str r.device);
         ("task", Json.Str r.task_key);
         ("sk", Json.Str r.sketch);
         ("key", Json.Str r.key);
         ("y", Json.Str (Bits.of_floats r.y));
         ("lat", Json.Str (Bits.of_float r.latency_ms));
         ("round", Json.Num (float_of_int r.round)) ]
      (* emitted only for retried measurements, so journals written by a
         fault-free run stay byte-identical to the pre-measurer format *)
      @ (if r.attempts <> 1 then [ ("att", Json.Num (float_of_int r.attempts)) ]
         else []))

  let of_json j =
    let str k = Option.bind (Json.find j k) Json.as_string in
    let int k = Option.bind (Json.find j k) Json.as_int in
    match
      ( str "net", str "dev", str "task", str "sk", str "key",
        Option.bind (str "y") Bits.to_floats,
        Option.bind (str "lat") Bits.to_float, int "round" )
    with
    | ( Some network, Some device, Some task_key, Some sketch, Some key,
        Some y, Some latency_ms, Some round ) ->
      Some
        { network; device; task_key; sketch; key; y; latency_ms; round;
          attempts = Option.value (int "att") ~default:1 }
    | _ -> None
end

(* --- failed measurements ---------------------------------------------------- *)

module Failure = struct
  type t = {
    network : string;
    device : string;
    task_key : string;
    sketch : string;
    key : string;
    y : float array;
    kind : string;
    message : string;
    attempts : int;
    deterministic : bool;
    round : int;
  }

  let to_json r =
    Json.Obj
      [ ("k", Json.Str "f");
        ("net", Json.Str r.network);
        ("dev", Json.Str r.device);
        ("task", Json.Str r.task_key);
        ("sk", Json.Str r.sketch);
        ("key", Json.Str r.key);
        ("y", Json.Str (Bits.of_floats r.y));
        ("fk", Json.Str r.kind);
        ("msg", Json.Str r.message);
        ("att", Json.Num (float_of_int r.attempts));
        ("det", Json.Bool r.deterministic);
        ("round", Json.Num (float_of_int r.round)) ]

  let of_json j =
    let str k = Option.bind (Json.find j k) Json.as_string in
    let int k = Option.bind (Json.find j k) Json.as_int in
    let bool k =
      Option.bind (Json.find j k) (function Json.Bool b -> Some b | _ -> None)
    in
    match
      ( str "net", str "dev", str "task", str "sk", str "key",
        Option.bind (str "y") Bits.to_floats,
        (str "fk", str "msg", int "att", bool "det", int "round") )
    with
    | ( Some network, Some device, Some task_key, Some sketch, Some key,
        Some y, (Some kind, Some message, Some attempts, Some deterministic, Some round) ) ->
      Some
        { network; device; task_key; sketch; key; y; kind; message; attempts;
          deterministic; round }
    | _ -> None
end

(* --- the journal ----------------------------------------------------------- *)

let journal_kind = "felix-journal"
let journal_version = 1
let checkpoint_kind = "felix-checkpoint"
let checkpoint_version = 1

type t = {
  store_dir : string;
  journal_path : string;
  mutable fd : Unix.file_descr;
  mutable oc : out_channel;
  (* replayed + appended state, newest first *)
  mutable records : (string option * Record.t) list;
  mutable n_records : int;
  mutable failures : (string option * Failure.t) list;
  mutable n_failures : int;
  started : (string, unit) Hashtbl.t;
  completed : (string, unit) Hashtbl.t;
  mutable current_run : string option;
  mutable recovered : int;
}

let dir t = t.store_dir
let num_records t = t.n_records

let header_line =
  Json.to_line
    (Json.Obj
       [ ("k", Json.Str journal_kind);
         ("v", Json.Num (float_of_int journal_version)) ])

(* Split [content] into (line, byte offset of line start) pairs plus the
   byte offset of a trailing unterminated fragment, if any. *)
let split_lines content =
  let n = String.length content in
  let lines = ref [] in
  let start = ref 0 in
  for i = 0 to n - 1 do
    if content.[i] = '\n' then begin
      lines := (String.sub content !start (i - !start), !start) :: !lines;
      start := i + 1
    end
  done;
  (List.rev !lines, if !start < n then Some !start else None)

type replayed = {
  rp_entries :
    [ `Run of string * string | `Measure of Record.t | `Failure of Failure.t ] list;
  rp_truncate_at : int option;  (** torn tail begins here *)
}

(* Replay journal text. The last line (terminated or not) is allowed to be
   garbage — that is the torn-write case — and is reported for truncation;
   damage anywhere else is corruption. *)
let replay_text content =
  let lines, partial = split_lines content in
  match lines with
  | [] ->
    (* Either empty or a torn header fragment. *)
    Ok { rp_entries = []; rp_truncate_at = (if content = "" then None else Some 0) }
  | (header, _) :: rest -> (
    let header_json = Json.parse header in
    let header_ok =
      match header_json with
      | Ok j -> (
        match
          ( Option.bind (Json.find j "k") Json.as_string,
            Option.bind (Json.find j "v") Json.as_int )
        with
        | Some k, _ when k <> journal_kind ->
          Error (Corrupt (Printf.sprintf "journal header kind %S" k))
        | Some _, Some v when v <> journal_version ->
          Error
            (Version_mismatch
               { kind = journal_kind; found = v; expected = journal_version })
        | Some _, Some _ -> Ok ()
        | _ -> Error (Corrupt "journal header missing fields"))
      | Error m -> Error (Corrupt (Printf.sprintf "journal header: %s" m))
    in
    match header_ok with
    | Error _ when rest = [] && partial = None ->
      (* A lone damaged header is itself a torn first write. *)
      Ok { rp_entries = []; rp_truncate_at = Some 0 }
    | Error e -> Error e
    | Ok () ->
      let entries = ref [] in
      let bad = ref None in
      let nlines = List.length rest in
      List.iteri
        (fun i (line, off) ->
          if !bad = None then
            let parsed =
              match Json.parse line with
              | Error _ -> None
              | Ok j -> (
                match Option.bind (Json.find j "k") Json.as_string with
                | Some "m" ->
                  Option.map (fun r -> `Measure r) (Record.of_json j)
                | Some "f" ->
                  Option.map (fun r -> `Failure r) (Failure.of_json j)
                | Some "run" -> (
                  match
                    ( Option.bind (Json.find j "ev") Json.as_string,
                      Option.bind (Json.find j "id") Json.as_string )
                  with
                  | Some ev, Some id -> Some (`Run (ev, id))
                  | _ -> None)
                | _ -> None)
            in
            match parsed with
            | Some e -> entries := e :: !entries
            | None ->
              if i = nlines - 1 && partial = None then
                (* Unparsable final line: treat as torn. *)
                bad := Some (`Torn off)
              else bad := Some (`Corrupt (line, off)))
        rest;
      match !bad with
      | Some (`Corrupt (_, off)) ->
        Error (Corrupt (Printf.sprintf "journal line at byte %d" off))
      | Some (`Torn off) ->
        Ok { rp_entries = List.rev !entries; rp_truncate_at = Some off }
      | None -> Ok { rp_entries = List.rev !entries; rp_truncate_at = partial })

let apply_entry t = function
  | `Run ("started", id) | `Run ("resumed", id) ->
    Hashtbl.replace t.started id ();
    t.current_run <- Some id
  | `Run ("completed", id) ->
    Hashtbl.replace t.completed id ();
    if t.current_run = Some id then t.current_run <- None
  | `Run _ -> ()
  | `Measure r ->
    t.records <- (t.current_run, r) :: t.records;
    t.n_records <- t.n_records + 1
  | `Failure r ->
    t.failures <- (t.current_run, r) :: t.failures;
    t.n_failures <- t.n_failures + 1

let write_line t json =
  output_string t.oc (Json.to_line json);
  output_char t.oc '\n'

let sync t =
  flush t.oc;
  Unix.fsync t.fd

let open_dir path =
  io_protect @@ fun () ->
  if not (Sys.file_exists path) then Unix.mkdir path 0o755;
  let journal_path = Filename.concat path "journal.jsonl" in
  let content = if Sys.file_exists journal_path then read_file journal_path else "" in
  match replay_text content with
  | Error e -> Error e
  | Ok { rp_entries; rp_truncate_at } ->
    let recovered =
      match rp_truncate_at with
      | None -> 0
      | Some off ->
        let fd = Unix.openfile journal_path [ Unix.O_WRONLY ] 0o644 in
        Unix.ftruncate fd off;
        Unix.fsync fd;
        Unix.close fd;
        String.length content - off
    in
    let fd =
      Unix.openfile journal_path
        [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
        0o644
    in
    let oc = Unix.out_channel_of_descr fd in
    let t =
      { store_dir = path;
        journal_path;
        fd;
        oc;
        records = [];
        n_records = 0;
        failures = [];
        n_failures = 0;
        started = Hashtbl.create 8;
        completed = Hashtbl.create 8;
        current_run = None;
        recovered }
    in
    List.iter (apply_entry t) rp_entries;
    (* records were applied oldest-first onto a newest-first list: ok *)
    if content = "" || rp_truncate_at = Some 0 then begin
      output_string t.oc header_line;
      output_char t.oc '\n';
      sync t
    end;
    Ok t

let close t =
  flush t.oc;
  (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
  close_out t.oc

let append t r =
  write_line t (Record.to_json r);
  apply_entry t (`Measure r)

let append_failure t r =
  write_line t (Failure.to_json r);
  apply_entry t (`Failure r)

let run_marker ev id =
  Json.Obj [ ("k", Json.Str "run"); ("ev", Json.Str ev); ("id", Json.Str id) ]

let fresh_run_id t = Printf.sprintf "run%04d" (Hashtbl.length t.started + 1)

let begin_run t ~id =
  write_line t (run_marker "started" id);
  apply_entry t (`Run ("started", id));
  sync t

let resume_run t ~id =
  write_line t (run_marker "resumed" id);
  apply_entry t (`Run ("resumed", id));
  sync t

let complete_run t ~id =
  write_line t (run_marker "completed" id);
  apply_entry t (`Run ("completed", id));
  sync t

let completed_records t ~device ~task_key =
  List.fold_left
    (fun acc (run, (r : Record.t)) ->
      match run with
      | Some id
        when Hashtbl.mem t.completed id
             && r.Record.device = device && r.Record.task_key = task_key ->
        r :: acc
      | _ -> acc)
    [] t.records
(* [records] is newest-first, so the fold returns journal order. *)

let completed_failures t ~device ~task_key =
  List.fold_left
    (fun acc (run, (r : Failure.t)) ->
      match run with
      | Some id
        when Hashtbl.mem t.completed id
             && r.Failure.device = device && r.Failure.task_key = task_key ->
        r :: acc
      | _ -> acc)
    [] t.failures

let checkpoint_path t = Filename.concat t.store_dir "checkpoint.json"

let save_checkpoint t json =
  Artifact.write ~path:(checkpoint_path t) ~kind:checkpoint_kind
    ~version:checkpoint_version json

let load_checkpoint t =
  Artifact.load ~path:(checkpoint_path t) ~kind:checkpoint_kind
    ~version:checkpoint_version

type stats = {
  records : int;
  failures : int;
  retried : int;
  runs_started : int;
  runs_completed : int;
  devices : string list;
  tasks : int;
  journal_bytes : int;
  recovered_bytes : int;
  has_checkpoint : bool;
}

let stats t =
  (try flush t.oc with Sys_error _ -> ());
  let devices = Hashtbl.create 8 in
  let tasks = Hashtbl.create 16 in
  List.iter
    (fun (_, (r : Record.t)) ->
      Hashtbl.replace devices r.Record.device ();
      Hashtbl.replace tasks (r.Record.device, r.Record.task_key) ())
    t.records;
  List.iter
    (fun (_, (r : Failure.t)) ->
      Hashtbl.replace devices r.Failure.device ();
      Hashtbl.replace tasks (r.Failure.device, r.Failure.task_key) ())
    t.failures;
  let retried =
    List.fold_left
      (fun acc (_, (r : Record.t)) -> if r.Record.attempts > 1 then acc + 1 else acc)
      0 t.records
    + List.fold_left
        (fun acc (_, (r : Failure.t)) ->
          if r.Failure.attempts > 1 then acc + 1 else acc)
        0 t.failures
  in
  { records = t.n_records;
    failures = t.n_failures;
    retried;
    runs_started = Hashtbl.length t.started;
    runs_completed = Hashtbl.length t.completed;
    devices = Hashtbl.fold (fun d () acc -> d :: acc) devices [] |> List.sort compare;
    tasks = Hashtbl.length tasks;
    journal_bytes =
      (try (Unix.stat t.journal_path).Unix.st_size with Unix.Unix_error _ -> 0);
    recovered_bytes = t.recovered;
    has_checkpoint = Sys.file_exists (checkpoint_path t) }
