(** Minimal JSON: one shared writer/parser for the whole code base.

    Every persistent artifact of the reproduction — tuning-result exports,
    telemetry traces, the durable tuning store — goes through this module,
    so the repo has exactly one notion of JSON text. No external
    dependency.

    Numbers are written so that [parse (to_string j)] reconstructs the
    same value bit-for-bit: integers up to 2{^53} print without a decimal
    point, other finite floats print with the shortest decimal expansion
    that round-trips through [float_of_string]. Non-finite floats have no
    JSON representation and print as [null]; state that must survive
    exactly (including infinities and NaNs) should be encoded as IEEE-754
    bit strings instead (see [Store.Bits]). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** RFC 8259 string escaping: quote, backslash and control characters are
    escaped; all other bytes pass through verbatim. A string with nothing
    to escape is returned as is, without a copy. *)

(** {2 Rendering}

    [to_string], [to_line] and [output] are thin wrappers over one
    streaming walker, so the three renderings cannot drift apart: the
    indented forms differ only in their destination, and the compact
    form only in dropping the newlines, indentation and the space after
    [':']. *)

val to_string : ?indent:int -> t -> string
(** Pretty-printed rendering with the given indentation (default 2). *)

val to_line : t -> string
(** Compact single-line rendering (no spaces, no newline) — the JSONL
    form used by the telemetry trace sink and the tuning-store journal. *)

val output : ?indent:int -> out_channel -> t -> unit
(** [output oc t] writes exactly the bytes of [to_string ?indent t] to
    [oc], streaming: no string of the whole rendering is built, and
    string values are written as slices of themselves. Used for large
    artifacts such as the per-round store checkpoint. *)

val parse : string -> (t, string) result
(** Strict RFC 8259 parser. Handles the full escape repertoire including
    [\uXXXX] (surrogate pairs decode to UTF-8); rejects trailing input,
    unterminated strings and malformed numbers with a message carrying
    the byte offset. A string literal without a backslash is taken as one
    slice of the input; control characters are rejected wherever they
    occur. *)

(** {2 Accessors}

    Option-returning helpers for decoding; all return [None] on a
    constructor mismatch. *)

val find : t -> string -> t option
(** [find (Obj fields) k] is the first binding of [k]. *)

val as_string : t -> string option
val as_float : t -> float option
val as_int : t -> int option
(** [as_int] requires the number to be integral. *)

val as_bool : t -> bool option
val as_list : t -> t list option
