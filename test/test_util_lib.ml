(* Tests for lib/util: Rng, Stats, Table, Toposort. *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "same stream" true (Rng.uniform a = Rng.uniform b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let va = List.init 8 (fun _ -> Rng.uniform a) in
  let vb = List.init 8 (fun _ -> Rng.uniform b) in
  Alcotest.(check bool) "different seeds differ" false (va = vb)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "Rng.int out of bounds: %d" v
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_uniform_range () =
  let rng = Rng.create 3 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let u = Rng.uniform rng in
    if u < 0.0 || u >= 1.0 then Alcotest.failf "uniform out of [0,1): %f" u;
    sum := !sum +. u
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.02 then Alcotest.failf "uniform mean suspicious: %f" mean

let test_rng_gaussian_moments () =
  let rng = Rng.create 11 in
  let n = 50_000 in
  let xs = List.init n (fun _ -> Rng.gaussian rng) in
  let m = Stats.mean xs and s = Stats.stddev xs in
  if Float.abs m > 0.03 then Alcotest.failf "gaussian mean %f" m;
  if Float.abs (s -. 1.0) > 0.03 then Alcotest.failf "gaussian std %f" s

let test_rng_shuffle_permutation () =
  let rng = Rng.create 5 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let va = List.init 8 (fun _ -> Rng.uniform a) in
  let vb = List.init 8 (fun _ -> Rng.uniform b) in
  Alcotest.(check bool) "split streams differ" false (va = vb)

let test_sample_without_replacement () =
  let rng = Rng.create 13 in
  let arr = Array.init 20 (fun i -> i) in
  let s = Rng.sample_without_replacement rng 8 arr in
  Alcotest.(check int) "size" 8 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Array.iteri
    (fun i v -> if i > 0 && sorted.(i - 1) = v then Alcotest.fail "duplicate element")
    sorted

let test_stats_basics () =
  Testutil.check_close "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  Testutil.check_close "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0; 2.0 ]);
  Testutil.check_close "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Testutil.check_close "median even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Testutil.check_close "p0" 1.0 (Stats.percentile 0.0 [ 3.0; 1.0; 2.0 ]);
  Testutil.check_close "p100" 3.0 (Stats.percentile 100.0 [ 3.0; 1.0; 2.0 ]);
  Testutil.check_close "stddev" (sqrt 2.0) (Stats.stddev [ 1.0; 3.0; 1.0; 3.0 ] *. sqrt 2.0);
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "min_max" (1.0, 3.0)
    (Stats.min_max [ 2.0; 1.0; 3.0 ])

let test_stats_empty () =
  Testutil.check_close "mean []" 0.0 (Stats.mean []);
  Testutil.check_close "geomean []" 0.0 (Stats.geomean []);
  Alcotest.check_raises "min_max []" (Invalid_argument "Stats.min_max: empty list") (fun () ->
      ignore (Stats.min_max []))

let test_stats_argmin_argmax () =
  Alcotest.(check int) "argmin" 3 (Stats.argmin (fun x -> float_of_int ((x - 3) * (x - 3))) [ 1; 2; 3; 4 ]);
  Alcotest.(check int) "argmax" 4 (Stats.argmax float_of_int [ 1; 2; 3; 4 ])

let test_stats_clamp () =
  Testutil.check_close "below" 1.0 (Stats.clamp ~lo:1.0 ~hi:2.0 0.0);
  Testutil.check_close "above" 2.0 (Stats.clamp ~lo:1.0 ~hi:2.0 3.0);
  Testutil.check_close "inside" 1.5 (Stats.clamp ~lo:1.0 ~hi:2.0 1.5)

let test_spearman_perfect () =
  let x = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Testutil.check_close "self" 1.0 (Stats.spearman x x);
  Testutil.check_close "reverse" (-1.0) (Stats.spearman x [| 5.0; 4.0; 3.0; 2.0; 1.0 |])

let test_spearman_monotone_invariant =
  Testutil.qtest "spearman invariant under monotone transform"
    QCheck2.Gen.(list_size (int_range 5 30) (float_bound_inclusive 100.0))
    (fun xs ->
      let xs = List.map (fun x -> x +. 0.001 *. float_of_int (Hashtbl.hash x mod 1000)) xs in
      QCheck2.assume (List.length (List.sort_uniq compare xs) = List.length xs);
      let x = Array.of_list xs in
      let y = Array.map (fun v -> exp (v /. 50.0)) x in
      Testutil.close ~tol:1e-9 1.0 (Stats.spearman x y))

let test_toposort_chain () =
  Alcotest.(check (list int)) "chain" [ 0; 1; 2; 3 ]
    (Toposort.sort ~num_nodes:4 ~edges:[ (0, 1); (1, 2); (2, 3) ])

let test_toposort_respects_edges () =
  let edges = [ (3, 1); (1, 0); (3, 0); (2, 0) ] in
  let order = Toposort.sort ~num_nodes:4 ~edges in
  let pos = Array.make 4 0 in
  List.iteri (fun i n -> pos.(n) <- i) order;
  List.iter
    (fun (s, d) -> if pos.(s) >= pos.(d) then Alcotest.failf "edge %d->%d violated" s d)
    edges

let test_toposort_cycle () =
  Alcotest.(check bool) "cycle detected" false
    (Toposort.is_dag ~num_nodes:3 ~edges:[ (0, 1); (1, 2); (2, 0) ]);
  Alcotest.(check bool) "dag ok" true (Toposort.is_dag ~num_nodes:3 ~edges:[ (0, 1); (1, 2) ])

let test_toposort_random =
  Testutil.qtest "random DAG edges respected"
    QCheck2.Gen.(pair (int_range 2 20) (list_size (int_range 0 40) (pair (int_bound 19) (int_bound 19))))
    (fun (n, raw_edges) ->
      (* Forward-orient the random pairs so the graph is a DAG. *)
      let edges =
        List.filter_map
          (fun (a, b) ->
            let a = a mod n and b = b mod n in
            if a < b then Some (a, b) else if b < a then Some (b, a) else None)
          raw_edges
      in
      let order = Toposort.sort ~num_nodes:n ~edges in
      let pos = Array.make n 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      List.length order = n && List.for_all (fun (s, d) -> pos.(s) < pos.(d)) edges)

let test_table_render () =
  let t = Table.create ~title:"demo" ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_separator t;
  Table.add_row t [ "333" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 7 = "== demo");
  Alcotest.(check bool) "contains cell" true (Testutil.contains ~needle:"333" s)

let test_table_formats () =
  Alcotest.(check string) "ms" "1.234 ms" (Table.fmt_ms 1.234);
  Alcotest.(check string) "speedup" "2.25x" (Table.fmt_speedup 2.25);
  Alcotest.(check string) "speedup dash" "-" (Table.fmt_speedup 0.0);
  Alcotest.(check string) "seconds" "416 s" (Table.fmt_seconds 416.2)

let tests =
  [ Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng int bounds (regression: 63-bit overflow)" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng int rejects nonpositive" `Quick test_rng_int_rejects_nonpositive;
    Alcotest.test_case "rng uniform range and mean" `Quick test_rng_uniform_range;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng shuffle is a permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "stats basics" `Quick test_stats_basics;
    Alcotest.test_case "stats empty inputs" `Quick test_stats_empty;
    Alcotest.test_case "stats argmin/argmax" `Quick test_stats_argmin_argmax;
    Alcotest.test_case "stats clamp" `Quick test_stats_clamp;
    Alcotest.test_case "spearman perfect correlations" `Quick test_spearman_perfect;
    test_spearman_monotone_invariant;
    Alcotest.test_case "toposort chain" `Quick test_toposort_chain;
    Alcotest.test_case "toposort respects edges" `Quick test_toposort_respects_edges;
    Alcotest.test_case "toposort cycle detection" `Quick test_toposort_cycle;
    test_toposort_random;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table formats" `Quick test_table_formats ]

(* --- json parser/writer ------------------------------------------------------ *)

let ok = function Ok j -> j | Error e -> Alcotest.failf "parse error: %s" e

let test_json_parse_scalars () =
  Alcotest.(check bool) "null" true (Json.parse "null" = Ok Json.Null);
  Alcotest.(check bool) "true" true (Json.parse " true " = Ok (Json.Bool true));
  Alcotest.(check bool) "int" true (Json.parse "42" = Ok (Json.Num 42.0));
  Alcotest.(check bool) "neg exp" true (Json.parse "-1.5e3" = Ok (Json.Num (-1500.0)));
  Alcotest.(check bool) "string" true (Json.parse "\"hi\"" = Ok (Json.Str "hi"));
  Alcotest.(check bool) "nested" true
    (Json.parse "{\"a\":[1,{\"b\":null}]}"
    = Ok (Json.Obj [ ("a", Json.List [ Json.Num 1.0; Json.Obj [ ("b", Json.Null) ] ]) ]))

let test_json_parse_escapes () =
  (* RFC 8259 escapes, including \uXXXX and surrogate pairs -> UTF-8. *)
  Alcotest.(check bool) "simple escapes" true
    (Json.parse {|"a\"b\\c\/d\b\f\n\r\t"|} = Ok (Json.Str "a\"b\\c/d\b\012\n\r\t"));
  Alcotest.(check bool) "bmp escape" true
    (Json.parse {|"caf\u00e9"|} = Ok (Json.Str "caf\xc3\xa9"));
  Alcotest.(check bool) "ascii escape" true
    (Json.parse {|"\u0041"|} = Ok (Json.Str "A"));
  Alcotest.(check bool) "3-byte utf8" true
    (Json.parse {|"\u20ac"|} = Ok (Json.Str "\xe2\x82\xac"));
  Alcotest.(check bool) "surrogate pair" true
    (Json.parse {|"\ud83d\ude00"|} = Ok (Json.Str "\xf0\x9f\x98\x80"))

let test_json_parse_rejects () =
  let bad s =
    match Json.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted malformed input %S" s
  in
  bad "";
  bad "{";
  bad "[1,2";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "nul";
  bad "1 2";          (* trailing input *)
  bad "\"a\nb\"";     (* unescaped control character *)
  bad "\"\\ud83d\"";  (* unpaired high surrogate *)
  bad "\"\\ude00\"";  (* lone low surrogate *)
  bad "\"\\x41\"";    (* unknown escape *)
  bad "{\"a\":}";
  bad "01"            (* leading zero *)

let test_json_escape_writer () =
  Alcotest.(check string) "control chars as \\u" "\"\\u0001\\u001f\""
    (Json.to_string (Json.Str "\x01\x1f"));
  Alcotest.(check string) "quote backslash newline" "\"a\\\"b\\\\c\\n\""
    (Json.to_string (Json.Str "a\"b\\c\n"))

let test_json_number_bits () =
  (* The writer emits shortest-round-trip numbers: every finite float
     survives a print/parse cycle bit-exactly. *)
  List.iter
    (fun v ->
      match ok (Json.parse (Json.to_string (Json.Num v))) with
      | Json.Num v' ->
        if Int64.bits_of_float v <> Int64.bits_of_float v' then
          Alcotest.failf "float %h did not round-trip (got %h)" v v'
      | _ -> Alcotest.fail "not a number")
    [ 0.0; -0.0; 0.1; 1.0 /. 3.0; Float.pi; 1e-308; 4.9e-324;
      1.7976931348623157e308; -2.5e-15; 123456789.123456789 ]

(* One value touching every writer case: nesting, empty containers,
   escapes (quote, backslash, control characters, a key that needs
   escaping), bytes that pass verbatim (DEL, UTF-8), a hex bit string,
   and integral, fractional and non-finite numbers. *)
let golden_value =
  Json.Obj
    [ ("name", Json.Str "felix");
      ("esc", Json.Str "q\"b\\s/n\nr\rt\tc\x01\x1f\x7f\xc3\xa9");
      ("bits", Json.Str "3ff0000000000000400921fb54442d18fff8000000000000");
      ( "nums",
        Json.List
          [ Json.Num 0.0; Json.Num (-0.0); Json.Num (-3.0); Json.Num 1e15; Json.Num 123456789.0;
            Json.Num 0.1; Json.Num (1.0 /. 3.0); Json.Num (-2.5e-15); Json.Num 1.5;
            Json.Num infinity ] );
      ("empty", Json.Obj [ ("l", Json.List []); ("o", Json.Obj []); ("s", Json.Str "") ]);
      ( "nested",
        Json.List
          [ Json.Obj [ ("a", Json.List [ Json.Null; Json.Bool true; Json.Bool false ]) ];
            Json.List [ Json.List []; Json.Obj [ ("\t", Json.Num 7.0) ] ] ] );
      ("k\"ey\n", Json.Num 42.0) ]

(* The text the writer produced before it was streamed; on-disk artifacts
   depend on every byte of it. *)
let golden_esc = {|"q\"b\\s/n\nr\rt\tc\u0001\u001f|} ^ "\x7f\xc3\xa9\""

let golden_pretty =
  String.concat "\n"
    [ "{";
      {|  "name": "felix",|};
      {|  "esc": |} ^ golden_esc ^ ",";
      {|  "bits": "3ff0000000000000400921fb54442d18fff8000000000000",|};
      {|  "nums": [|};
      "    0,"; "    -0,"; "    -3,"; "    1e+15,"; "    123456789,"; "    0.1,";
      "    0.3333333333333333,"; "    -2.5e-15,"; "    1.5,"; "    null";
      "  ],";
      {|  "empty": {|};
      {|    "l": [],|};
      {|    "o": {},|};
      {|    "s": ""|};
      "  },";
      {|  "nested": [|};
      "    {";
      {|      "a": [|};
      "        null,"; "        true,"; "        false";
      "      ]";
      "    },";
      "    [";
      "      [],";
      "      {";
      {|        "\t": 7|};
      "      }";
      "    ]";
      "  ],";
      {|  "k\"ey\n": 42|};
      "}" ]

let golden_line =
  {|{"name":"felix","esc":|} ^ golden_esc
  ^ {|,"bits":"3ff0000000000000400921fb54442d18fff8000000000000",|}
  ^ {|"nums":[0,-0,-3,1e+15,123456789,0.1,0.3333333333333333,-2.5e-15,1.5,null],|}
  ^ {|"empty":{"l":[],"o":{},"s":""},"nested":[{"a":[null,true,false]},[[],{"\t":7}]],|}
  ^ {|"k\"ey\n":42}|}

let test_json_golden_text () =
  Alcotest.(check string) "to_string" golden_pretty (Json.to_string golden_value);
  Alcotest.(check string) "to_line" golden_line (Json.to_line golden_value);
  Alcotest.(check string) "to_string ~indent:4" "[\n    {\n        \"x\": 1\n    }\n]"
    (Json.to_string ~indent:4 (Json.List [ Json.Obj [ ("x", Json.Num 1.0) ] ]));
  let path = Filename.temp_file "felix_json" ".json" in
  let oc = open_out_bin path in
  Json.output oc golden_value;
  close_out oc;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "output" golden_pretty text

let test_json_escape_no_copy () =
  let plain = String.make 1000 'a' ^ "caf\xc3\xa9 /\x7f" in
  Alcotest.(check bool) "escape-free string returned as is" true (Json.escape plain == plain)

(* The byte-at-a-time escaper the word-at-a-time scan replaced, kept as
   the oracle. *)
let reference_escape s =
  let buf = Buffer.create 16 in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let test_json_escape_oracle =
  (* Mostly plain bytes, with the escaped ones and their neighbours
     (0x1f/0x20, 0x21/0x23, 0x5b/0x5d, high bytes) at random offsets, so
     specials land in every byte lane of the eight-byte scan. *)
  let gen =
    QCheck2.Gen.(
      string_size
        ~gen:
          (frequency
             [ (8, char_range 'a' 'z');
               ( 2,
                 oneofl
                   [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\x1f'; ' '; '!'; '#'; '['; ']';
                     '\x7f'; '\x80'; '\xa2'; '\xdc'; '\xff' ] ) ])
        (int_range 0 48))
  in
  Testutil.qtest ~count:1000 "json escape and parse agree with the byte-wise oracle" gen
    (fun s ->
      let e = Json.escape s in
      e = reference_escape s
      && Json.to_line (Json.Str s) = "\"" ^ e ^ "\""
      && Json.parse ("\"" ^ e ^ "\"") = Ok (Json.Str s))

let test_json_parse_string_runs () =
  let run = String.make 5000 'x' in
  Alcotest.(check bool) "escape after a long plain run" true
    (Json.parse ("\"" ^ run ^ {|\n\u00e9"|}) = Ok (Json.Str (run ^ "\n\xc3\xa9")));
  Alcotest.(check bool) "plain run after an escape" true
    (Json.parse ({|["\"|} ^ run ^ {|",1]|}) = Ok (Json.List [ Json.Str ("\"" ^ run); Json.Num 1.0 ]));
  let bad s =
    match Json.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted malformed input %S" (String.sub s 0 (min 20 (String.length s)))
  in
  (* a control character as the last byte of the input, with and without an
     earlier escape, and as the last byte before the closing quote *)
  bad ("\"" ^ run ^ "\x01");
  bad ("\"" ^ run ^ {|\t|} ^ "\x1f");
  bad ("\"" ^ run ^ "\n\"");
  bad ("\"" ^ run ^ {|\n|} ^ run ^ "\x00\"");
  bad ("\"" ^ run);
  bad ("\"" ^ run ^ "\\");
  (* \u takes exactly four hex digits *)
  bad {|"\u00_1"|};
  bad {|"\u+041"|};
  bad {|"\u00e"|};
  Alcotest.(check bool) "uppercase \\u digits" true (Json.parse {|"\u00C9"|} = Ok (Json.Str "\xc3\x89"))

let json_gen =
  let open QCheck2.Gen in
  let str_g = string_size ~gen:(map Char.chr (int_range 0 127)) (int_range 0 10) in
  let scalar =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) (float_range (-1e12) 1e12);
        map (fun s -> Json.Str s) str_g ]
  in
  sized_size (int_range 0 4)
  @@ QCheck2.Gen.fix (fun self n ->
         if n <= 0 then scalar
         else
           oneof
             [ scalar;
               map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n - 1)));
               map
                 (fun kvs -> Json.Obj kvs)
                 (list_size (int_range 0 4) (pair str_g (self (n - 1)))) ])

let test_json_roundtrip_pretty =
  Testutil.qtest ~count:300 "json parse (to_string j) = j" json_gen (fun j ->
      Json.parse (Json.to_string j) = Ok j)

let test_json_roundtrip_line =
  Testutil.qtest ~count:300 "json parse (to_line j) = j" json_gen (fun j ->
      Json.parse (Json.to_line j) = Ok j)

let tests =
  tests
  @ [ Alcotest.test_case "json parse scalars" `Quick test_json_parse_scalars;
      Alcotest.test_case "json parse escapes (RFC 8259)" `Quick test_json_parse_escapes;
      Alcotest.test_case "json parse rejects malformed input" `Quick test_json_parse_rejects;
      Alcotest.test_case "json writer escapes" `Quick test_json_escape_writer;
      Alcotest.test_case "json numbers round-trip bit-exactly" `Quick test_json_number_bits;
      Alcotest.test_case "json golden text (to_string, to_line, output)" `Quick
        test_json_golden_text;
      Alcotest.test_case "json escape returns escape-free input" `Quick test_json_escape_no_copy;
      test_json_escape_oracle;
      Alcotest.test_case "json parse string runs and control bytes" `Quick
        test_json_parse_string_runs;
      test_json_roundtrip_pretty;
      test_json_roundtrip_line ]
