type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* The first index at or after [i] (below [n]) whose byte needs escaping,
   or [n]. Eight bytes are tested at a time: a word is plain unless some
   byte is below 0x20 or equals '"' (0x22) or '\\' (0x5c); [low x k] has
   a byte's top bit set when that byte of [x] is below the byte of [k]. *)
let rec plain_until s i n =
  if
    i + 8 <= n
    &&
    let w = String.get_int64_ne s i in
    let q = Int64.logxor w 0x2222222222222222L
    and b = Int64.logxor w 0x5c5c5c5c5c5c5c5cL in
    let[@inline] low x k = Int64.logand (Int64.sub x k) (Int64.lognot x) in
    Int64.equal
      (Int64.logand
         (Int64.logor (low w 0x2020202020202020L)
            (Int64.logor (low q 0x0101010101010101L) (low b 0x0101010101010101L)))
         0x8080808080808080L)
      0L
  then plain_until s (i + 8) n
  else if i < n && not (needs_escape (String.unsafe_get s i)) then plain_until s (i + 1) n
  else i

(* Writes [s] escaped (without quotes) as maximal plain runs cut at the
   bytes that need an escape, so an escape-free string is one [sub]. *)
let write_escaped sub s =
  let n = String.length s in
  let rec go start =
    let i = plain_until s start n in
    if i > start then sub s start (i - start);
    if i < n then begin
      let e =
        match s.[i] with
        | '"' -> "\\\""
        | '\\' -> "\\\\"
        | '\n' -> "\\n"
        | '\r' -> "\\r"
        | '\t' -> "\\t"
        | c -> Printf.sprintf "\\u%04x" (Char.code c)
      in
      sub e 0 (String.length e);
      go (i + 1)
    end
  in
  go 0

let escape s =
  let n = String.length s in
  if plain_until s 0 n = n then s
  else begin
    let buf = Buffer.create (n + 8) in
    write_escaped (Buffer.add_substring buf) s;
    Buffer.contents buf
  end

(* Shortest decimal expansion that survives [float_of_string]; integers up
   to 2^53 print without a point so counters stay readable. *)
let fmt_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then begin
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s
    else
      let s = Printf.sprintf "%.16g" v in
      if float_of_string s = v then s else Printf.sprintf "%.17g" v
  end
  else "null" (* JSON has no infinity *)

(* The one writer behind [to_string], [to_line] and [output]. [sub s off
   len] appends a slice of [s] to the destination; [indent = None] is the
   compact single-line form. Strings go out as slices of themselves, so a
   large escape-free string is never copied into an intermediate. *)
let spaces = String.make 64 ' '

let write ~indent sub t =
  let str s = sub s 0 (String.length s) in
  let rec pad n =
    if n > 0 then begin
      let k = min n (String.length spaces) in
      sub spaces 0 k;
      pad (n - k)
    end
  in
  let newline depth =
    match indent with
    | None -> ()
    | Some w ->
      str "\n";
      pad (w * depth)
  in
  let colon = if indent = None then ":" else ": " in
  let quoted s =
    str "\"";
    write_escaped sub s;
    str "\""
  in
  let rec go depth = function
    | Null -> str "null"
    | Bool b -> str (if b then "true" else "false")
    | Num v -> str (fmt_num v)
    | Str s -> quoted s
    | List [] -> str "[]"
    | Obj [] -> str "{}"
    | List items ->
      str "[";
      List.iteri
        (fun i item ->
          if i > 0 then str ",";
          newline (depth + 1);
          go (depth + 1) item)
        items;
      newline depth;
      str "]"
    | Obj fields ->
      str "{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then str ",";
          newline (depth + 1);
          quoted k;
          str colon;
          go (depth + 1) v)
        fields;
      newline depth;
      str "}"
  in
  go 0 t

let to_string ?(indent = 2) t =
  let buf = Buffer.create 256 in
  write ~indent:(Some indent) (Buffer.add_substring buf) t;
  Buffer.contents buf

let to_line t =
  let buf = Buffer.create 256 in
  write ~indent:None (Buffer.add_substring buf) t;
  Buffer.contents buf

let output ?(indent = 2) oc t = write ~indent:(Some indent) (output_substring oc) t

(* --- parser ---------------------------------------------------------------- *)

exception Parse_error of string

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let hex4 () =
    if !pos + 4 > n then fail "short \\u escape";
    (* exactly four hex digits: no sign, prefix or '_' separator *)
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape"
    in
    let code = ref 0 in
    for k = 0 to 3 do
      code := (!code lsl 4) lor digit s.[!pos + k]
    done;
    pos := !pos + 4;
    !code
  in
  (* Advances past bytes that need no unescaping; returns where the run
     began. *)
  let plain_run () =
    let run = !pos in
    pos := plain_until s run n;
    run
  in
  let parse_string () =
    expect '"';
    let run = plain_run () in
    if !pos < n && s.[!pos] = '"' then begin
      (* No backslash: the literal is one slice of the input. *)
      advance ();
      String.sub s run (!pos - 1 - run)
    end
    else begin
      let buf = Buffer.create (!pos - run + 16) in
      Buffer.add_substring buf s run (!pos - run);
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> advance ()
          | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'u' ->
                 advance ();
                 let code = hex4 () in
                 if code >= 0xD800 && code <= 0xDBFF then begin
                   (* High surrogate: a low surrogate must follow. *)
                   if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
                     pos := !pos + 2;
                     let lo = hex4 () in
                     if lo >= 0xDC00 && lo <= 0xDFFF then
                       add_utf8 buf
                         (0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00))
                     else fail "invalid low surrogate"
                   end
                   else fail "unpaired surrogate"
                 end
                 else if code >= 0xDC00 && code <= 0xDFFF then
                   fail "unpaired low surrogate"
                 else add_utf8 buf code
               | c -> fail (Printf.sprintf "bad escape \\%c" c));
            let run = plain_run () in
            Buffer.add_substring buf s run (!pos - run);
            go ()
          | _ -> fail "unescaped control character"
      in
      go ();
      Buffer.contents buf
    end
  in
  let parse_number () =
    (* RFC 8259 number grammar: an optional minus, then "0" or a non-zero
       digit run, an optional ".digits" fraction and an optional exponent —
       stricter than [float_of_string] (no leading zeros, hex, or "1."). *)
    let start = !pos in
    let digit () =
      match peek () with Some '0' .. '9' -> advance (); true | _ -> false
    in
    let digits1 () = if not (digit ()) then fail "malformed number" else while digit () do () done in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance ()
    | Some '1' .. '9' -> while digit () do () done
    | _ -> fail "malformed number");
    if peek () = Some '.' then begin advance (); digits1 () end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('-' | '+') -> advance () | _ -> ());
      digits1 ()
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> Num (parse_number ())
  in
  match parse_value () with
  | v ->
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing input at offset %d" !pos)
    else Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors ------------------------------------------------------------- *)

let find t k = match t with Obj fields -> List.assoc_opt k fields | _ -> None
let as_string = function Str s -> Some s | _ -> None
let as_float = function Num v -> Some v | _ -> None

let as_int = function
  | Num v when Float.is_integer v -> Some (int_of_float v)
  | _ -> None

let as_bool = function Bool b -> Some b | _ -> None
let as_list = function List l -> Some l | _ -> None
