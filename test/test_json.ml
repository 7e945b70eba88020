(* Core.Json unit tests plus the benchmark output contract: one
   bench/e2e/main.exe run's --out line is parsed back, pinning its
   workload name and end-to-end metric fields so downstream tooling can
   depend on them. *)

module J = Core.Json

(* Canonical rendering doubles as the equality witness: keys are sorted and
   floats round-trip, so two documents are J.equal iff their renderings
   match — and the string diff is the best failure message anyway. *)
let check_json msg expected actual =
  Alcotest.(check string) msg (J.to_string expected) (J.to_string actual);
  Alcotest.(check bool) (msg ^ " (structural)") true (J.equal expected actual)

let parse_ok s =
  match J.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse of %S failed: %s" s e

let test_render_sorted_keys () =
  Alcotest.(check string)
    "keys sorted regardless of construction order"
    {|{"alpha":1,"beta":[true,null],"gamma":"x"}|}
    (J.to_string
       (J.Obj
          [
            ("gamma", J.String "x");
            ("alpha", J.Number 1.);
            ("beta", J.List [ J.Bool true; J.Null ]);
          ]))

let test_render_numbers () =
  Alcotest.(check string) "integers without exponent" "42" (J.to_string (J.Number 42.));
  Alcotest.(check string) "nan degrades to null" "null" (J.to_string (J.Number Float.nan));
  Alcotest.(check string) "infinity degrades to null" "null"
    (J.to_string (J.number Float.infinity));
  let f = 0.1 +. 0.2 in
  Alcotest.(check (option (float 0.)))
    "floats round-trip exactly" (Some f)
    (J.to_float (parse_ok (J.to_string (J.Number f))))

let test_roundtrip () =
  let doc =
    J.Obj
      [
        ("schema", J.String "x/v1");
        ("items", J.List [ J.Number 1.5; J.String "a\"b\\c\nd"; J.Bool false; J.Null ]);
        ("empty_obj", J.Obj []);
        ("empty_list", J.List []);
        ("nested", J.Obj [ ("k", J.List [ J.Obj [ ("deep", J.Number (-2.75)) ] ]) ]);
      ]
  in
  check_json "compact round-trip" doc (parse_ok (J.to_string doc));
  check_json "pretty round-trip" doc (parse_ok (J.to_string ~pretty:true doc))

let test_parse_escapes_and_ws () =
  check_json "whitespace tolerated"
    (J.Obj [ ("a", J.List [ J.Number 1.; J.Number 2. ]) ])
    (parse_ok " {\n\t\"a\" : [ 1 , 2 ]\r\n} ");
  Alcotest.(check (option string)) "escape decoding" (Some "tab\there\necho \"hi\" / \\")
    (J.to_string_opt (parse_ok {|"tab\there\necho \"hi\" \/ \\"|}));
  Alcotest.(check (option string)) "unicode escape decodes to UTF-8" (Some "\xc3\xa9")
    (J.to_string_opt (parse_ok {|"é"|}))

let test_parse_errors () =
  let rejects s =
    match J.of_string s with
    | Ok _ -> Alcotest.failf "expected %S to be rejected" s
    | Error e ->
      Alcotest.(check bool) "error carries a position" true
        (String.length e >= 16 && String.sub e 0 16 = "JSON parse error")
  in
  List.iter rejects
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}"; "[1] x"; "nan" ]

let test_equal_key_order_insensitive () =
  Alcotest.(check bool) "obj equality ignores order" true
    (J.equal
       (J.Obj [ ("a", J.Number 1.); ("b", J.Number 2.) ])
       (J.Obj [ ("b", J.Number 2.); ("a", J.Number 1.) ]));
  Alcotest.(check bool) "list order matters" false
    (J.equal (J.List [ J.Number 1.; J.Number 2. ]) (J.List [ J.Number 2.; J.Number 1. ]))

let test_accessors () =
  let doc = parse_ok {|{"n": 3, "f": 3.5, "s": "str", "l": [1]}|} in
  Alcotest.(check (option int)) "to_int" (Some 3) (J.to_int (Option.get (J.member "n" doc)));
  Alcotest.(check (option int)) "to_int on fraction" None
    (J.to_int (Option.get (J.member "f" doc)));
  Alcotest.(check (option string)) "to_string_opt" (Some "str")
    (J.to_string_opt (Option.get (J.member "s" doc)));
  Alcotest.(check bool) "member miss" true (J.member "zzz" doc = None);
  Alcotest.(check bool) "member on non-obj" true (J.member "a" (J.Number 1.) = None)

(* --- the bench/e2e --out contract --- *)

let e2e_exe () =
  (* dune runtest runs from _build/default/test with the exe staged one
     level up; fall back to the repo-root path for manual `dune exec`. *)
  List.find_opt Sys.file_exists
    [
      List.fold_left Filename.concat ".." [ "bench"; "e2e"; "main.exe" ];
      List.fold_left Filename.concat "_build" [ "default"; "bench"; "e2e"; "main.exe" ];
    ]

(* One short run appends one canonical JSON line naming its workload and
   carrying the four end-to-end metrics, each a value with its unit. *)
let test_bench_json_contract () =
  match e2e_exe () with
  | None -> Alcotest.fail "bench/e2e/main.exe not found"
  | Some exe ->
    let out = Filename.temp_file "e2e" ".jsonl" in
    let cmd =
      Printf.sprintf
        "%s run --workload census-suppressed --seed 1 --seconds 0.01 --out %s > %s 2>&1"
        (Filename.quote exe) (Filename.quote out) Filename.null
    in
    Alcotest.(check int) "e2e run exits 0" 0 (Sys.command cmd);
    let ic = open_in_bin out in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove out;
    let line =
      match String.split_on_char '\n' (String.trim contents) with
      | [ line ] -> line
      | lines -> Alcotest.failf "expected one line, got %d" (List.length lines)
    in
    let doc = parse_ok line in
    Alcotest.(check (option string)) "workload field" (Some "census-suppressed")
      (Option.bind (J.member "workload" doc) J.to_string_opt);
    let metrics =
      match Option.bind (J.member "result" doc) (J.member "metrics") with
      | Some m -> m
      | None -> Alcotest.fail "result.metrics missing"
    in
    List.iter
      (fun name ->
        match J.member name metrics with
        | None -> Alcotest.failf "metric %s missing" name
        | Some m ->
          (match Option.bind (J.member "value" m) J.to_float with
          | Some v ->
            Alcotest.(check bool) (name ^ " finite, >= 0") true
              (Float.is_finite v && v >= 0.)
          | None -> Alcotest.failf "metric %s has no numeric value" name);
          Alcotest.(check bool) (name ^ " has a unit") true
            (Option.bind (J.member "unit" m) J.to_string_opt <> None))
      [ "setup_s"; "items_per_ref"; "accuracy"; "peak_heap_mb" ];
    (* Canonical rendering: re-serializing the parse is byte-identical. *)
    Alcotest.(check string) "canonical bytes" line (J.to_string doc)

let () =
  Alcotest.run "json"
    [
      ( "ast",
        [
          Alcotest.test_case "sorted keys" `Quick test_render_sorted_keys;
          Alcotest.test_case "number rendering" `Quick test_render_numbers;
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "escapes and whitespace" `Quick test_parse_escapes_and_ws;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "equality" `Quick test_equal_key_order_insensitive;
          Alcotest.test_case "accessors" `Quick test_accessors;
        ] );
      ( "bench contract",
        [ Alcotest.test_case "parse back --json" `Slow test_bench_json_contract ] );
    ]
