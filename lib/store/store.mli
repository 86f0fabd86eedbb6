(** Durable tuning store: crash-safe measurement journal, checkpoints and
    the one versioned on-disk artifact format.

    A store is a directory holding

    - [journal.jsonl] — an append-only, schema-versioned JSONL journal:
      one line per hardware measurement
      [(network, device, task key, sketch, assignment) -> latency], plus
      run-boundary markers. The journal is fsync'd once per tuning round
      ({!sync}); a process killed mid-round loses at most the lines since
      the last sync, and a torn final line (the classic
      killed-mid-[write(2)] artifact) is detected and truncated away on
      the next {!open_dir}.
    - [checkpoint.json] — the latest tuning checkpoint (written atomically
      via temp-file + rename), an opaque payload captured by the tuner:
      task-scheduler state, RNG stream position, cost-model weights and
      optimizer state, and the simulated clock.

    Floats that must survive bit-exactly (latencies, schedule variables,
    RNG states, model weights) are encoded as IEEE-754 bit strings
    ({!Bits}), never as decimal text — this is what makes resume
    bit-identical rather than merely close.

    The store is single-writer: one tuning process per directory. *)

(** {1 Errors} *)

type error =
  | Not_found of string  (** no artifact at the given path *)
  | Io of string  (** system error (open, write, rename, fsync) *)
  | Corrupt of string  (** unparsable or structurally invalid content *)
  | Version_mismatch of { kind : string; found : int; expected : int }
  | Kind_mismatch of { found : string; expected : string }

val error_message : error -> string

(** {1 Bit-exact float encoding} *)

module Bits : sig
  val of_float : float -> string
  (** 16 lowercase hex characters of [Int64.bits_of_float]; total on every
      float including infinities and NaNs. *)

  val to_float : string -> float option
  (** Inverse of {!of_float}, bit-exact. Accepts exactly 16 hex digits
      (either case) and nothing else: a wrong length, a sign, a [0x]
      prefix, an [_] separator or any other non-hex byte is [None]. *)

  val of_floats : float array -> string
  (** Concatenated 16-char chunks (no separator). *)

  val to_floats : string -> float array option
  (** Inverse of {!of_floats}: [None] unless the length is a multiple of
      16 and every chunk is accepted by {!to_float}. *)
end

(** {1 Atomic files} *)

val mkdir_p : string -> (unit, error) result
(** Creates a directory and every missing parent (mode 0o755). A
    directory that already exists, or that a concurrent caller creates
    first, is success. *)

val write_atomic : path:string -> (out_channel -> unit) -> (int, error) result
(** [write_atomic ~path write] runs [write] on a channel to [path ^ ".tmp"],
    fsyncs it, renames it over [path] and fsyncs the directory, so a crash
    leaves either the old file or the new one, never a torn one. Returns
    the number of bytes written. Every durable whole-file writer goes
    through it. I/O failures are [Error (Io _)]; an exception raised by
    [write] propagates. *)

(** {1 Versioned artifacts}

    Every single-file persistent object (cost-model weights, compiled
    networks, tuning-result exports, checkpoints) is wrapped in one
    envelope [{"felix": {"kind": k, "version": v}, "payload": ...}] so a
    load can distinguish "wrong file" from "old schema" from "corrupt". *)

module Artifact : sig
  val save :
    path:string -> kind:string -> version:int -> Json.t -> (unit, error) result
  (** Atomic ({!write_atomic}), and streaming: the envelope is rendered
      straight into the file with {!Json.output}, byte-identical to
      [Json.to_string] plus a newline, without building the text in
      memory first. *)

  val load :
    path:string -> kind:string -> version:int -> (Json.t, error) result
  (** Returns the payload iff the envelope's kind and version match. *)
end

(** {1 Measurement records} *)

module Record : sig
  type t = {
    network : string;
    device : string;
    task_key : string;  (** workload identity of the subgraph task *)
    sketch : string;  (** sketch (schedule template) name *)
    key : string;  (** canonical schedule key within the task *)
    y : float array;  (** schedule-variable assignment, exact bits *)
    latency_ms : float;
    round : int;  (** tuning round that paid for the measurement *)
    attempts : int;
        (** measurement attempts the measurer made (1 unless a flaky
            failure was retried; serialised only when [<> 1], so
            fault-free journals keep the pre-measurer byte format) *)
  }
end

(** Failed measurements are journal records too, so a resumed run does not
    re-pay a failure already classified as deterministic, and so
    [store stats] can account for every attempt. *)
module Failure : sig
  type t = {
    network : string;
    device : string;
    task_key : string;
    sketch : string;
    key : string;
    y : float array;
    kind : string;  (** {!Measure.outcome_kind}: "timeout" | "crash" | "invalid" *)
    message : string;  (** crash diagnostic; [""] otherwise *)
    attempts : int;
    deterministic : bool;  (** classified deterministic (vs retries exhausted) *)
    round : int;
  }
end

(** {1 The store} *)

type t

val open_dir : string -> (t, error) result
(** Opens (creating if needed) a store directory and replays the journal.
    A torn final line is truncated away and counted in
    {!stats}[.recovered_bytes]; corruption anywhere else is an error. *)

val close : t -> unit
val dir : t -> string

val append : t -> Record.t -> unit
(** Buffered append of one measurement line; durable after {!sync}.
    Raises [Sys_error] on I/O failure — the store fails loudly rather
    than silently dropping records. *)

val append_failure : t -> Failure.t -> unit
(** Buffered append of one failed-measurement line; durable after {!sync}. *)

val sync : t -> unit
(** Flush and fsync the journal (called by the tuner once per round). *)

(** {2 Run boundaries}

    Warm-start only trusts records from {e completed} runs: a run that
    died before its first checkpoint leaves journal lines that the resume
    path will re-produce, and treating them as prior knowledge would make
    the warm curve diverge from the cold one. Markers are fsync'd
    immediately. *)

val fresh_run_id : t -> string
(** Deterministic id for the next run ("run0001", "run0002", ...). *)

val begin_run : t -> id:string -> unit
val resume_run : t -> id:string -> unit
val complete_run : t -> id:string -> unit

val num_records : t -> int

val completed_records :
  t -> device:string -> task_key:string -> Record.t list
(** Measurements of completed runs for one (device, task) in journal
    order — the warm-start replay set. *)

val completed_failures :
  t -> device:string -> task_key:string -> Failure.t list
(** Failed measurements of completed runs for one (device, task) in
    journal order — seeded into warm starts at infinite latency so known
    failures are not re-measured. *)

(** {2 Checkpoints} *)

val save_checkpoint : t -> Json.t -> (int, error) result
(** Atomically replaces the checkpoint; returns the bytes written. *)

val load_checkpoint : t -> (Json.t, error) result
(** [Error (Not_found _)] when no checkpoint has been written yet. *)

(** {2 Stats} *)

type stats = {
  records : int;
  failures : int;  (** failed-measurement records *)
  retried : int;  (** records (successes or failures) that took > 1 attempt *)
  runs_started : int;  (** distinct run ids seen (incl. resumed) *)
  runs_completed : int;
  devices : string list;  (** sorted, distinct *)
  tasks : int;  (** distinct (device, task key) pairs *)
  journal_bytes : int;
  recovered_bytes : int;  (** truncated torn-tail bytes, if any *)
  has_checkpoint : bool;
}

val stats : t -> stats
