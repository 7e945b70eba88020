(* End-to-end CLI coverage: bin/pso_audit.exe and bench/main.exe are
   spawned as child processes, checking both the happy paths and the
   contract that bad invocations exit nonzero with usage on stderr.
   (cmdliner reports CLI errors with status 124; hand-rolled validation in
   both binaries uses status 2.) *)

let exe names =
  (* dune runtest runs from _build/default/test with the binaries staged a
     level up; fall back to repo-root paths for manual `dune exec`. *)
  let candidates =
    [
      List.fold_left Filename.concat ".." names;
      List.fold_left Filename.concat (Filename.concat "_build" "default") names;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "binary not found: %s" (String.concat "/" names)

let pso_audit args = (exe [ "bin"; "pso_audit.exe" ], args)

let bench args = (exe [ "bench"; "main.exe" ], args)

type outcome = { code : int; stdout : string; stderr : string }

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let run (binary, args) =
  let out = Filename.temp_file "cli" ".out" in
  let err = Filename.temp_file "cli" ".err" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> %s" (Filename.quote binary)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let result = { code; stdout = read_file out; stderr = read_file err } in
  Sys.remove out;
  Sys.remove err;
  result

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  nn = 0
  ||
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let check_fails_with_usage name invocation ~code =
  let r = run invocation in
  Alcotest.(check int) (name ^ " exit code") code r.code;
  Alcotest.(check bool)
    (name ^ " prints usage on stderr")
    true
    (contains (String.lowercase_ascii r.stderr) "usage")

(* --- pso_audit: bad invocations --- *)

let test_pso_audit_bad_invocations () =
  check_fails_with_usage "no subcommand" (pso_audit []) ~code:124;
  check_fails_with_usage "unknown subcommand" (pso_audit [ "frobnicate" ]) ~code:124;
  check_fails_with_usage "unknown option" (pso_audit [ "synth"; "--frob" ]) ~code:124;
  check_fails_with_usage "missing positional" (pso_audit [ "run" ]) ~code:124;
  check_fails_with_usage "non-integer trials"
    (pso_audit [ "game"; "--trials"; "many" ])
    ~code:124;
  (* [run] is the only experiment subcommand; census has one run path. *)
  check_fails_with_usage "retired experiment subcommand"
    (pso_audit [ "experiment"; "E2" ])
    ~code:124;
  check_fails_with_usage "retired census --materialize"
    (pso_audit [ "census"; "--materialize" ])
    ~code:124;
  check_fails_with_usage "retired --engine"
    (pso_audit [ "run"; "E2"; "--engine"; "check" ])
    ~code:124

let test_pso_audit_validation_errors () =
  let check ?(one_line = false) name args ~stderr_has =
    let r = run (pso_audit args) in
    Alcotest.(check int) (name ^ " exits 2") 2 r.code;
    Alcotest.(check bool)
      (name ^ " explains itself")
      true
      (contains r.stderr stderr_has);
    if one_line then
      Alcotest.(check int) (name ^ " prints one stderr line") 1
        (List.length (String.split_on_char '\n' (String.trim r.stderr)))
  in
  check "jobs zero" [ "game"; "--jobs"; "0" ] ~stderr_has:"--jobs must be >= 1";
  check "negative jobs" [ "theorems"; "--jobs=-3" ] ~stderr_has:"--jobs must be >= 1";
  (* Above the runtime's domain limit: rejected before any spawn. *)
  check ~one_line:true "jobs above the domain limit"
    [ "run"; "E2"; "--quick"; "--jobs"; "100000" ]
    ~stderr_has:"--jobs must be >= 1 and <= 127 (got 100000)";
  check "unknown experiment" [ "run"; "E99" ] ~stderr_has:"unknown experiment";
  check ~one_line:true "census zero blocks" [ "census"; "--blocks"; "0" ]
    ~stderr_has:"must all be >= 1";
  (* [=] form: cmdliner reads a bare "-1" as an option name. *)
  check ~one_line:true "census negative suppression"
    [ "census"; "--suppress=-1" ]
    ~stderr_has:"--suppress must be >= 0";
  check "dpcheck bad trials" [ "dpcheck"; "--trials"; "0" ]
    ~stderr_has:"--trials must be >= 1";
  check "dpcheck bad confidence" [ "dpcheck"; "--confidence"; "1.5" ]
    ~stderr_has:"--confidence must be in (0, 1)";
  check "dpcheck unknown mechanism" [ "dpcheck"; "--mechanism"; "nope" ]
    ~stderr_has:"unknown mechanism";
  check "dpcheck bad battery" [ "dpcheck"; "--battery"; "weird" ]
    ~stderr_has:"--battery must be"

let test_pso_audit_synth () =
  let r = run (pso_audit [ "synth"; "--size"; "12"; "--seed"; "7" ]) in
  Alcotest.(check int) "synth exits 0" 0 r.code;
  let lines = String.split_on_char '\n' (String.trim r.stdout) in
  Alcotest.(check int) "header plus 12 rows" 13 (List.length lines);
  let r' = run (pso_audit [ "synth"; "--size"; "12"; "--seed"; "7" ]) in
  Alcotest.(check string) "same seed, same CSV" r.stdout r'.stdout

let test_pso_audit_experiment_jobs_invariance () =
  let render jobs =
    run (pso_audit [ "run"; "E2"; "--seed"; "5"; "--jobs"; string_of_int jobs ])
  in
  let r1 = render 1 and r2 = render 2 in
  Alcotest.(check int) "jobs=1 exits 0" 0 r1.code;
  Alcotest.(check int) "jobs=2 exits 0" 0 r2.code;
  Alcotest.(check bool) "table rendered" true (contains r1.stdout "E2");
  Alcotest.(check string) "table identical across jobs" r1.stdout r2.stdout

let test_pso_audit_dpcheck_passes_standard_case () =
  let r =
    run (pso_audit [ "dpcheck"; "--mechanism"; "laplace"; "--trials"; "8000" ]) in
  Alcotest.(check int) "laplace passes" 0 r.code;
  Alcotest.(check bool) "report printed" true (contains r.stdout "laplace");
  Alcotest.(check bool) "no case flagged" true (contains r.stdout "0/1")

(* --- certify --- *)

let test_pso_audit_certify () =
  let r = run (pso_audit [ "certify" ]) in
  Alcotest.(check int) "certify exits 0" 0 r.code;
  Alcotest.(check bool) "verdict table rendered" true
    (contains r.stdout "machine-checked eps-DP certificates");
  Alcotest.(check bool) "all production certified" true
    (contains r.stdout "8/8 production mechanisms certified");
  Alcotest.(check bool) "all controls rejected" true
    (contains r.stdout "4/4 negative controls rejected -> OK");
  let r' = run (pso_audit [ "certify" ]) in
  Alcotest.(check string) "deterministic output" r.stdout r'.stdout

let test_pso_audit_certify_single_mechanism () =
  let r = run (pso_audit [ "certify"; "--mechanism"; "laplace" ]) in
  Alcotest.(check int) "single mechanism exits 0" 0 r.code;
  Alcotest.(check bool) "laplace row present" true (contains r.stdout "laplace");
  Alcotest.(check bool) "other rows absent" false (contains r.stdout "sparse_vector");
  let bad = run (pso_audit [ "certify"; "--mechanism"; "nope" ]) in
  Alcotest.(check int) "unknown mechanism exits 2" 2 bad.code;
  Alcotest.(check bool) "error explains itself" true
    (contains bad.stderr "unknown certificate")

let test_pso_audit_certify_tamper () =
  let r = run (pso_audit [ "certify"; "--tamper" ]) in
  Alcotest.(check int) "tamper suite exits 0" 0 r.code;
  Alcotest.(check bool) "tampers rejected" true (contains r.stdout "REJECTED");
  Alcotest.(check bool) "none accepted" false (contains r.stdout "ACCEPTED");
  Alcotest.(check bool) "summary line" true
    (contains r.stdout "tampered certificates rejected")

let test_pso_audit_certify_legal () =
  let r = run (pso_audit [ "certify"; "--legal" ]) in
  Alcotest.(check int) "legal rendering exits 0" 0 r.code;
  let lines = String.split_on_char '\n' r.stdout in
  let count needle = List.length (List.filter (fun l -> contains l needle) lines) in
  Alcotest.(check int) "eight certified premises" 8
    (count "[certified: search-derived alignment]");
  Alcotest.(check int) "no uncertified premise" 0 (count "NOT certified")

(* --- run + observability flags --- *)

let parse_json name s =
  match Core.Json.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s is not valid JSON: %s" name e

let test_pso_audit_run_validation () =
  let r = run (pso_audit [ "run"; "E2"; "--quick"; "--full" ]) in
  Alcotest.(check int) "--quick with --full exits 2" 2 r.code;
  Alcotest.(check bool) "conflict explained" true
    (contains r.stderr "mutually exclusive");
  let r = run (pso_audit [ "run"; "E99" ]) in
  Alcotest.(check int) "unknown id exits 2" 2 r.code;
  Alcotest.(check bool) "error names the id" true
    (contains r.stderr "unknown experiment")

let test_pso_audit_run_trace_and_metrics () =
  let trace = Filename.temp_file "cli" ".trace.json" in
  let metrics = Filename.temp_file "cli" ".timeline.json" in
  let base_args id = [ "run"; id; "--quick"; "--seed"; "5" ] in
  let plain = run (pso_audit (base_args "E2" @ [ "--jobs"; "2" ])) in
  Alcotest.(check int) "plain run exits 0" 0 plain.code;
  let traced =
    run
      (pso_audit
         (base_args "E2"
         @ [
             "--jobs"; "2"; "--trace"; trace; "--timeline"; metrics;
             "--metrics";
           ]))
  in
  Alcotest.(check int) "traced run exits 0" 0 traced.code;
  Alcotest.(check string)
    "telemetry leaves stdout byte-identical" plain.stdout traced.stdout;
  Alcotest.(check bool) "summary table lands on stderr" true
    (contains traced.stderr "obs metrics");
  let trace_doc = parse_json "trace" (read_file trace) in
  (match Core.Json.member "traceEvents" trace_doc with
  | Some (Core.Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "trace has no events");
  let metrics_doc = parse_json "metrics" (read_file metrics) in
  (match Core.Json.member "schema" metrics_doc with
  | Some (Core.Json.String s) ->
    Alcotest.(check string) "metrics schema" "obs-timeline/v3" s
  | _ -> Alcotest.fail "metrics schema missing");
  let v = run (pso_audit [ "validate-json"; trace; metrics ]) in
  Alcotest.(check int) "validate-json accepts both files" 0 v.code;
  Sys.remove trace;
  Sys.remove metrics

(* The non-timing entries of the final timeline point, the run's metrics
   record, are the machine-checkable determinism contract: identical at
   every --jobs. Values only: deltas and rates depend on where the
   periodic ticks landed. E2 exercises the counters and gauges; E6 draws
   Laplace noise, so its dp.noise_magnitude sketch is not empty. *)
let test_pso_audit_metrics_jobs_invariance () =
  let final_point ?(id = "E2") ?(seed = "5") jobs =
    let path = Filename.temp_file "cli" ".timeline.json" in
    let r =
      run
        (pso_audit
           [
             "run"; id; "--quick"; "--seed"; seed; "--jobs";
             string_of_int jobs; "--timeline"; path;
           ])
    in
    Alcotest.(check int) (Printf.sprintf "jobs=%d exits 0" jobs) 0 r.code;
    let doc = parse_json "timeline" (read_file path) in
    Sys.remove path;
    match Core.Json.member "snapshots" doc with
    | Some (Core.Json.List (_ :: _ as snaps)) ->
      let final = List.nth snaps (List.length snaps - 1) in
      Alcotest.(check (option bool)) "last snapshot is the final capture"
        (Some true)
        (match Core.Json.member "final" final with
        | Some (Core.Json.Bool b) -> Some b
        | _ -> None);
      final
    | _ -> Alcotest.fail "timeline has no snapshots"
  in
  (* (name, rendered fields) of each non-timing entry of one section. *)
  let entries section fields point =
    match Core.Json.member section point with
    | Some (Core.Json.List rows) ->
      List.filter_map
        (fun row ->
          match (Core.Json.member "timing" row, Core.Json.member "name" row) with
          | Some (Core.Json.Bool false), Some (Core.Json.String n) ->
            Some
              ( n,
                List.map
                  (fun f ->
                    match Core.Json.member f row with
                    | Some v -> Core.Json.to_string v
                    | None -> Alcotest.failf "%s %s lacks %S" section n f)
                  fields )
          | _ -> None)
        rows
    | _ -> Alcotest.failf "%s missing" section
  in
  let sketch_fields = [ "count"; "min"; "max"; "p50"; "p90"; "p95"; "p99" ] in
  let same_at_jobs_1_and_4 ~id p1 p4 =
    List.iter
      (fun (section, fields) ->
        let e1 = entries section fields p1 in
        Alcotest.(check bool) (section ^ " exported") true (e1 <> []);
        Alcotest.(check (list (pair string (list string))))
          (Printf.sprintf "%s: non-timing %s identical at jobs 1 and 4" id
             section)
          e1 (entries section fields p4))
      [
        ("counters", [ "value" ]);
        ("gauges", [ "value" ]);
        ("sketches", sketch_fields);
      ]
  in
  same_at_jobs_1_and_4 ~id:"E2" (final_point 1) (final_point 4);
  let e6 = final_point ~id:"E6" ~seed:"20210621" in
  let p1 = e6 1 in
  same_at_jobs_1_and_4 ~id:"E6" p1 (e6 4);
  match List.assoc_opt "dp.noise_magnitude" (entries "sketches" sketch_fields p1) with
  | Some (count :: _ :: _ :: p50 :: _ :: p95 :: _) ->
    let num s = float_of_string s in
    Alcotest.(check string) "E6 sketches every noise draw" "12300" count;
    Alcotest.(check bool) "E6 noise p50 in (0.25, 0.5]" true
      (num p50 > 0.25 && num p50 <= 0.5);
    Alcotest.(check bool) "E6 noise p95 in (64, 128]" true
      (num p95 > 64. && num p95 <= 128.)
  | _ -> Alcotest.fail "E6 final point has no dp.noise_magnitude sketch"

let test_pso_audit_validate_json_rejects_garbage () =
  let bad = Filename.temp_file "cli" ".json" in
  let oc = open_out bad in
  output_string oc "{not json";
  close_out oc;
  let r = run (pso_audit [ "validate-json"; bad ]) in
  Sys.remove bad;
  Alcotest.(check int) "malformed JSON exits 2" 2 r.code;
  Alcotest.(check bool) "error mentions the file" true
    (contains r.stderr "invalid JSON")

(* --- live telemetry: --prom / --timeline / --tick-ms / report-html --- *)

let test_pso_audit_live_telemetry () =
  let prom = Filename.temp_file "cli" ".prom" in
  let timeline = Filename.temp_file "cli" ".timeline.json" in
  let r =
    run
      (pso_audit
         [
           "run"; "E2"; "--quick"; "--seed"; "5"; "--jobs"; "2";
           "--prom"; prom; "--timeline"; timeline; "--tick-ms"; "50";
         ])
  in
  Alcotest.(check int) "live run exits 0" 0 r.code;
  let prom_text = read_file prom in
  Alcotest.(check bool) "prom has TYPE headers" true
    (contains prom_text "# TYPE pso_");
  Alcotest.(check bool) "prom segregates timing class" true
    (contains prom_text {|class="timing"|});
  let tl_doc = parse_json "timeline" (read_file timeline) in
  (match Core.Json.member "schema" tl_doc with
  | Some (Core.Json.String s) ->
    Alcotest.(check string) "timeline schema" "obs-timeline/v3" s
  | _ -> Alcotest.fail "timeline schema missing");
  (match Core.Json.member "snapshots" tl_doc with
  | Some (Core.Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "timeline has no snapshots");
  let v = run (pso_audit [ "validate-json"; prom; timeline ]) in
  Alcotest.(check int) "validate-json accepts both artifacts" 0 v.code;
  Alcotest.(check bool) "prom recognized as prometheus-text" true
    (contains v.stdout "(prometheus-text)");
  Alcotest.(check bool) "timeline recognized as obs-timeline/v3" true
    (contains v.stdout "(obs-timeline/v3)");
  Sys.remove prom;
  Sys.remove timeline

(* --watch is the only heartbeat: on a pipe it prints one compact line per
   tick and a last line for the final capture, without touching stdout. *)
let test_pso_audit_watch () =
  let r =
    run
      (pso_audit
         [
           "run"; "E2"; "--quick"; "--seed"; "20210621"; "--watch";
           "--tick-ms"; "50";
         ])
  in
  Alcotest.(check int) "watched run exits 0" 0 r.code;
  let golden =
    read_file
      (if Sys.file_exists "golden" then Filename.concat "golden" "E2.txt"
       else Filename.concat "test" (Filename.concat "golden" "E2.txt"))
  in
  Alcotest.(check string) "stdout is the E2 golden" golden r.stdout;
  let ticks =
    String.split_on_char '\n' r.stderr
    |> List.filter (fun l -> String.starts_with ~prefix:"[obs] watch tick=" l)
  in
  Alcotest.(check bool) "at least one watch line" true (ticks <> []);
  Alcotest.(check bool) "last watch line is the final capture" true
    (String.ends_with ~suffix:"(final)" (List.nth ticks (List.length ticks - 1)))

(* An unwritable output path is exit 2 with one line naming it, never an
   uncaught exception. *)
let missing_dir_path name =
  let dir = Filename.temp_file "cli" ".dir" in
  Sys.remove dir;
  Filename.concat dir name

let check_cannot_write name r =
  Alcotest.(check int) (name ^ " exits 2") 2 r.code;
  Alcotest.(check int) (name ^ " prints one stderr line") 1
    (List.length (String.split_on_char '\n' (String.trim r.stderr)));
  Alcotest.(check bool) (name ^ " names the write") true
    (contains r.stderr "pso_audit: cannot write ");
  Alcotest.(check bool) (name ^ " is not an uncaught exception") false
    (contains r.stderr "uncaught exception")

let test_pso_audit_unwritable_outputs () =
  check_cannot_write "--timeline into a missing directory"
    (run
       (pso_audit
          [ "run"; "E2"; "--quick"; "--timeline"; missing_dir_path "t.json" ]));
  let timeline = Filename.temp_file "cli" ".timeline.json" in
  let gen =
    run (pso_audit [ "run"; "E2"; "--quick"; "--timeline"; timeline ])
  in
  Alcotest.(check int) "artifact-producing run exits 0" 0 gen.code;
  check_cannot_write "report-html into a missing directory"
    (run
       (pso_audit
          [ "report-html"; missing_dir_path "o.html"; "--timeline"; timeline ]));
  Sys.remove timeline

let test_pso_audit_tick_ms_validation () =
  let r = run (pso_audit [ "run"; "E2"; "--quick"; "--tick-ms"; "0" ]) in
  Alcotest.(check int) "--tick-ms 0 exits 2" 2 r.code;
  Alcotest.(check bool) "error explains itself" true
    (contains r.stderr "--tick-ms must be > 0")

let test_pso_audit_report_html () =
  let timeline = Filename.temp_file "cli" ".timeline.json" in
  let out = Filename.temp_file "cli" ".html" in
  let gen =
    run
      (pso_audit
         [ "run"; "E2"; "--quick"; "--seed"; "5"; "--timeline"; timeline ])
  in
  Alcotest.(check int) "artifact-producing run exits 0" 0 gen.code;
  let r =
    run
      (pso_audit
         [
           "report-html"; out; "--timeline"; timeline; "--title";
           "cli test report";
         ])
  in
  Alcotest.(check int) "report-html exits 0" 0 r.code;
  let html = read_file out in
  Alcotest.(check bool) "has a timeline section" true
    (contains html {|id="timeline"|});
  Alcotest.(check bool) "has a metrics section" true
    (contains html {|id="metrics"|});
  Alcotest.(check bool) "title rendered" true (contains html "cli test report");
  Alcotest.(check bool) "self-contained: no scripts" false
    (contains html "<script");
  Alcotest.(check bool) "self-contained: no external links" false
    (contains html "http://" || contains html "https://");
  let none = run (pso_audit [ "report-html"; out ]) in
  Alcotest.(check int) "no sources exits 2" 2 none.code;
  Alcotest.(check bool) "missing sources explained" true
    (contains none.stderr "at least one source");
  let garbage = Filename.temp_file "cli" ".json" in
  let oc = open_out garbage in
  output_string oc "{not json";
  close_out oc;
  let bad = run (pso_audit [ "report-html"; out; "--timeline"; garbage ]) in
  Alcotest.(check int) "malformed source exits 2" 2 bad.code;
  Alcotest.(check bool) "malformed source named" true
    (contains bad.stderr "invalid JSON");
  List.iter Sys.remove [ timeline; out; garbage ]

(* Writes each [(name, contents)] mutant to one file and runs every
   [(command, args)] on it: the exit code must be in [codes] (2 meaning
   rejected, with exactly one stderr line), never an uncaught exception. *)
let check_mutants ~codes mutants commands =
  let path = Filename.temp_file "cli" ".mutant.json" in
  List.iter
    (fun (name, contents) ->
      let oc = open_out_bin path in
      output_string oc contents;
      close_out oc;
      List.iter
        (fun (cmd, args) ->
          let r = run (pso_audit args) in
          let what = Printf.sprintf "%s on %s" cmd name in
          Alcotest.(check bool)
            (Printf.sprintf "%s exits %s" what
               (String.concat "/" (List.map string_of_int codes)))
            true (List.mem r.code codes);
          if r.code = 2 then
            Alcotest.(check int) (what ^ " prints one stderr line") 1
              (List.length (String.split_on_char '\n' (String.trim r.stderr)));
          Alcotest.(check bool) (what ^ " is not an uncaught exception") false
            (contains r.stderr "uncaught exception"))
        (commands path))
    mutants;
  Sys.remove path

let set_field name v = function
  | Core.Json.Obj kvs ->
    Core.Json.Obj (List.map (fun (k, x) -> (k, if k = name then v else x)) kvs)
  | j -> j

let drop_field name = function
  | Core.Json.Obj kvs -> Core.Json.Obj (List.remove_assoc name kvs)
  | j -> j

(* Rewrites the [i]th element of the list under [field] ([-1]: the last). *)
let map_nth field i f doc =
  match Core.Json.member field doc with
  | Some (Core.Json.List xs) ->
    let i = if i < 0 then List.length xs + i else i in
    set_field field
      (Core.Json.List (List.mapi (fun k x -> if k = i then f x else x) xs))
      doc
  | _ -> Alcotest.failf "document has no %s list" field

let truncations text =
  [ ("truncated", String.sub text 0 (String.length text / 2)); ("empty", "") ]

let rendered docs =
  List.map (fun (name, doc) -> (name, Core.Json.to_string ~pretty:true doc)) docs

(* Mutated documents: the timeline readers ([validate-json],
   [report-html]) accept a mutant or reject it with exit 2. *)
let test_pso_audit_mutated_timeline () =
  let timeline = Filename.temp_file "cli" ".timeline.json" in
  let gen =
    run
      (pso_audit
         [ "run"; "E2"; "--quick"; "--seed"; "5"; "--timeline"; timeline ])
  in
  Alcotest.(check int) "artifact-producing run exits 0" 0 gen.code;
  let text = read_file timeline in
  let doc = parse_json "timeline" text in
  let last_snapshot f = map_nth "snapshots" (-1) f doc in
  let out = Filename.temp_file "cli" ".html" in
  check_mutants ~codes:[ 0; 2 ]
    (truncations text
    @ rendered
        [
          ("v1 schema",
            set_field "schema" (Core.Json.String "obs-timeline/v1") doc);
          ("version retyped", set_field "version" (Core.Json.String "3") doc);
          ("snapshots dropped", drop_field "snapshots" doc);
          ("snapshots retyped", set_field "snapshots" (Core.Json.Number 3.) doc);
          ("final counters dropped", last_snapshot (drop_field "counters"));
          ("final seq retyped", last_snapshot (set_field "seq" Core.Json.Null));
          ("final sketches retyped",
            last_snapshot (set_field "sketches" (Core.Json.Bool true)));
        ])
    (fun path ->
      [
        ("validate-json", [ "validate-json"; path ]);
        ("report-html", [ "report-html"; out; "--timeline"; path ]);
      ]);
  (* The previous schema version is rejected outright, not accepted as an
     unknown schema. *)
  check_mutants ~codes:[ 2 ]
    (rendered
       [
         ("v2 schema",
           set_field "version" (Core.Json.Number 2.)
             (set_field "schema" (Core.Json.String "obs-timeline/v2") doc));
       ])
    (fun path ->
      [
        ("validate-json", [ "validate-json"; path ]);
        ("report-html", [ "report-html"; out; "--timeline"; path ]);
      ]);
  List.iter Sys.remove [ timeline; out ]

(* Lines of [text] with [f] applied to the first line [pick] accepts. *)
let map_first_line pick f text =
  let rec go = function
    | [] -> []
    | l :: rest -> if pick l then f l :: rest else l :: go rest
  in
  String.concat "\n" (go (String.split_on_char '\n' text))

let starts_with prefix l = String.starts_with ~prefix l

(* Mutated Prometheus expositions through [validate-json]'s line-grammar
   reader. Broken lines must be rejected; a [histogram] family with no
   [_bucket] lines is still valid text (this exporter writes none, but a
   scrape from elsewhere may), so it is accepted. *)
let test_pso_audit_mutated_prom () =
  let prom = Filename.temp_file "cli" ".prom" in
  let gen =
    run (pso_audit [ "run"; "E2"; "--quick"; "--seed"; "5"; "--prom"; prom ])
  in
  Alcotest.(check int) "artifact-producing run exits 0" 0 gen.code;
  let text = read_file prom in
  let sample = starts_with "pso_" in
  let validate path = [ ("validate-json", [ "validate-json"; path ]) ] in
  check_mutants ~codes:[ 0; 2 ]
    (truncations text
    @ [
        ("unmutated", text);
        ("TYPE line dropped",
          map_first_line (starts_with "# TYPE") (fun _ -> "") text);
        ("histogram without buckets",
          text
          ^ "# TYPE pso_fake histogram\n\
             pso_fake_count{class=\"deterministic\"} 3\n\
             pso_fake_sum{class=\"deterministic\"} 7.5\n");
      ])
    validate;
  check_mutants ~codes:[ 2 ]
    [
      ("non-numeric value",
        map_first_line sample
          (fun l -> String.sub l 0 (String.rindex l ' ') ^ " many")
          text);
      ("broken label escape",
        map_first_line sample
          (fun l -> String.sub l 0 (String.index l '"' + 1) ^ "x\\\"} 1")
          text);
      ("unterminated label set",
        map_first_line sample
          (fun l -> String.sub l 0 (String.index l '}'))
          text);
      ("bad TYPE",
        map_first_line (starts_with "# TYPE") (fun l -> l ^ "ish") text);
      ("binary garbage", "pso_x\000\255{");
    ]
    validate;
  Sys.remove prom

(* Mutated ledger/v1 files through every reader: [ledger-verify] and
   [ledger-report] replay them (exit 1 on a violation), [validate-json]
   checks each JSONL line parses. [ledger-verify] must also tell the two
   failure kinds apart: an unreadable ledger is exit 2, a readable one
   whose replay finds a violation is exit 1. *)
let test_pso_audit_mutated_ledger () =
  let ledger = Filename.temp_file "cli" ".ledger" in
  let gen =
    run
      (pso_audit [ "run"; "E2"; "--quick"; "--seed"; "5"; "--ledger"; ledger ])
  in
  Alcotest.(check int) "artifact-producing run exits 0" 0 gen.code;
  let text = read_file ledger in
  let header = starts_with {|{"schema"|} in
  let query = starts_with {|{"analyst":"-","cost_rows"|} in
  let on_query f =
    map_first_line query
      (fun l ->
        match Core.Json.of_string l with
        | Ok j -> Core.Json.to_string (f j)
        | Error e -> Alcotest.failf "ledger line is not JSON: %s" e)
      text
  in
  let unreadable =
    [
      ("empty", "");
      ("blank lines only", "\n\n\n");
      ("header dropped",
        String.concat "\n" (List.tl (String.split_on_char '\n' text)));
      ("future schema",
        map_first_line header
          (fun _ -> {|{"schema":"ledger/v2","version":2}|})
          text);
      ("header retyped", map_first_line header (fun _ -> "[1]") text);
      ("event dropped", on_query (drop_field "event"));
      ("event retyped", on_query (set_field "event" (Core.Json.Number 1.)));
      ("line not JSON", map_first_line query (fun _ -> "{not json") text);
      ("nested garbage line",
        map_first_line query (fun _ -> String.make 100_000 '[') text);
    ]
  in
  let violating =
    [
      ("unknown event", on_query (set_field "event" (Core.Json.String "oops")));
      ("ts retyped", on_query (set_field "ts" (Core.Json.String "1")));
      ("analyst retyped", on_query (set_field "analyst" Core.Json.Null));
    ]
  in
  let verify path = [ ("ledger-verify", [ "ledger-verify"; path ]) ] in
  check_mutants ~codes:[ 2 ] unreadable verify;
  check_mutants ~codes:[ 1 ] violating verify;
  check_mutants ~codes:[ 0; 1; 2 ]
    (unreadable @ violating
    @ [
        ("unmutated", text);
        ("truncated", String.sub text 0 (String.length text / 2));
        ("cost huge", on_query (set_field "cost_rows" (Core.Json.Number 1e300)));
        ("cost negative",
          on_query (set_field "cost_rows" (Core.Json.Number (-5.))));
        ("crlf line endings",
          String.concat "\r\n" (String.split_on_char '\n' text));
      ])
    (fun path ->
      [
        ("ledger-report", [ "ledger-report"; path ]);
        ("ledger-report --json", [ "ledger-report"; path; "--json" ]);
        ("validate-json", [ "validate-json"; path ]);
      ]);
  Sys.remove ledger

let test_pso_audit_dpcheck_flags_broken_case () =
  let r =
    run
      (pso_audit
         [ "dpcheck"; "--mechanism"; "broken-laplace"; "--trials"; "20000" ])
  in
  Alcotest.(check int) "broken-laplace flagged" 1 r.code;
  Alcotest.(check bool) "violation certified" true (contains r.stdout "VIOLATION")

(* --- bench --- *)

(* bench/main.exe takes no arguments: any argument exits 2 with usage
   before a gate is timed, so nothing reaches stdout. *)
let test_bench_bad_invocations () =
  List.iter
    (fun args ->
      let name = "bench " ^ String.concat " " args in
      let r = run (bench args) in
      Alcotest.(check int) (name ^ " exits 2") 2 r.code;
      Alcotest.(check bool) (name ^ " prints usage") true
        (contains (String.lowercase_ascii r.stderr) "usage");
      Alcotest.(check string) (name ^ " times nothing") "" r.stdout)
    [
      [ "--frob" ]; [ "--metrics" ]; [ "E2" ]; [ "--jobs"; "1" ]; [ "--full" ];
      [ "--only"; "E2" ]; [ "--json"; "b.json" ]; [ "--help" ];
    ]

(* The experiment tables are pso_audit run's: one id renders that table
   alone. *)
let test_bench_only_tables () =
  let r = run (pso_audit [ "run"; "E2"; "--quick" ]) in
  Alcotest.(check int) "run E2 exits 0" 0 r.code;
  Alcotest.(check bool) "renders the experiment" true (contains r.stdout "E2");
  Alcotest.(check bool) "skips other experiments" false (contains r.stdout "E7")

(* The parallel determinism guarantee end to end: one table, the same
   bytes at one and two jobs. *)
let test_bench_speedup_determinism () =
  let table jobs =
    let r = run (pso_audit [ "run"; "E2"; "--quick"; "--jobs"; jobs ]) in
    Alcotest.(check int) ("run E2 --jobs " ^ jobs ^ " exits 0") 0 r.code;
    r.stdout
  in
  Alcotest.(check string) "tables identical at --jobs 1 and 2" (table "1")
    (table "2")

let () =
  Alcotest.run "cli"
    [
      ( "pso_audit",
        [
          Alcotest.test_case "bad invocations" `Quick test_pso_audit_bad_invocations;
          Alcotest.test_case "validation errors" `Quick test_pso_audit_validation_errors;
          Alcotest.test_case "synth determinism" `Quick test_pso_audit_synth;
          Alcotest.test_case "experiment jobs invariance" `Slow
            test_pso_audit_experiment_jobs_invariance;
          Alcotest.test_case "dpcheck standard passes" `Slow
            test_pso_audit_dpcheck_passes_standard_case;
          Alcotest.test_case "dpcheck broken flagged" `Slow
            test_pso_audit_dpcheck_flags_broken_case;
          Alcotest.test_case "certify verdicts" `Quick test_pso_audit_certify;
          Alcotest.test_case "certify single mechanism" `Quick
            test_pso_audit_certify_single_mechanism;
          Alcotest.test_case "certify tamper suite" `Quick
            test_pso_audit_certify_tamper;
          Alcotest.test_case "certify legal rendering" `Slow
            test_pso_audit_certify_legal;
          Alcotest.test_case "run validation" `Quick test_pso_audit_run_validation;
          Alcotest.test_case "run with trace and metrics" `Slow
            test_pso_audit_run_trace_and_metrics;
          Alcotest.test_case "metrics jobs invariance" `Slow
            test_pso_audit_metrics_jobs_invariance;
          Alcotest.test_case "validate-json rejects garbage" `Quick
            test_pso_audit_validate_json_rejects_garbage;
          Alcotest.test_case "live telemetry artifacts" `Slow
            test_pso_audit_live_telemetry;
          Alcotest.test_case "tick-ms validation" `Quick
            test_pso_audit_tick_ms_validation;
          Alcotest.test_case "watch heartbeat" `Slow test_pso_audit_watch;
          Alcotest.test_case "unwritable outputs" `Slow
            test_pso_audit_unwritable_outputs;
          Alcotest.test_case "report-html contract" `Slow
            test_pso_audit_report_html;
          Alcotest.test_case "mutated timeline documents" `Slow
            test_pso_audit_mutated_timeline;
          Alcotest.test_case "mutated prometheus text" `Slow
            test_pso_audit_mutated_prom;
          Alcotest.test_case "mutated ledger files" `Slow
            test_pso_audit_mutated_ledger;
        ] );
      ( "bench",
        [
          Alcotest.test_case "bad invocations" `Quick test_bench_bad_invocations;
          Alcotest.test_case "tables only" `Slow test_bench_only_tables;
          Alcotest.test_case "speedup determinism" `Slow test_bench_speedup_determinism;
        ] );
    ]
