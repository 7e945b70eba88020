(* The audit ledger (Obs.Ledger): emission round-trips through the
   library API, the replay verifier catches tampering, and — end to end
   through the CLI — ledger files are byte-identical at every --jobs and
   ledger-verify / ledger-report hold their exit-code contracts; the
   ledger's overhead gate judges by Stattest.Gate's verdict rule. *)

module L = Obs.Ledger

(* Library-level tests toggle the global ledger; every test restores the
   disabled state so the rest of the suite is unaffected. *)
let with_ledger f =
  L.reset ();
  L.enable ();
  Fun.protect ~finally:(fun () -> L.disable ()) f

let parse_ok lines =
  match L.parse_lines lines with
  | Ok ps -> ps
  | Error e -> Alcotest.failf "parse_lines: %s" e

let violations lines = L.verify (parse_ok lines)

let whats lines = List.map (fun (v : L.violation) -> v.what) (violations lines)

let has_violation lines needle =
  List.exists
    (fun what ->
      let lw = String.lowercase_ascii what in
      let ln = String.lowercase_ascii needle in
      let nh = String.length lw and nn = String.length ln in
      let rec go i = i + nn <= nh && (String.sub lw i nn = ln || go (i + 1)) in
      nn = 0 || go 0)
    (whats lines)

(* --- emission round-trip --- *)

let curator_table n =
  let schema =
    Dataset.Schema.make
      [
        { Dataset.Schema.name = "trait"; kind = Dataset.Value.Kint; role = Dataset.Schema.Sensitive };
        { Dataset.Schema.name = "grp"; kind = Dataset.Value.Kint; role = Dataset.Schema.Quasi_identifier };
      ]
  in
  Dataset.Table.make schema
    (Array.init n (fun i -> [| Dataset.Value.Int (i mod 2); Dataset.Value.Int (i mod 4) |]))

let test_roundtrip_curator () =
  let lines =
    with_ledger (fun () ->
        let c =
          Query.Curator.create
            ~rng:(Prob.Rng.create ~seed:7L ())
            ~policy:
              (Query.Curator.Noisy { per_query_epsilon = 0.5; total_epsilon = 1.0 })
            ~target:"trait" (curator_table 10)
        in
        let subset = [| 0; 1; 2; 3 |] in
        (match Query.Curator.ask_subset c subset with
        | Query.Curator.Answer _ -> ()
        | Query.Curator.Refusal m -> Alcotest.failf "first ask refused: %s" m);
        (match Query.Curator.ask_subset c subset with
        | Query.Curator.Answer _ -> ()
        | Query.Curator.Refusal m -> Alcotest.failf "second ask refused: %s" m);
        (match Query.Curator.ask_subset c subset with
        | Query.Curator.Refusal _ -> ()
        | Query.Curator.Answer _ -> Alcotest.fail "budget not enforced");
        let a = Dp.Accountant.create () in
        Dp.Accountant.spend a ~epsilon:0.25 "unit";
        Dp.Accountant.spend_many a ~epsilon:0.125 ~n:4 "unit-many";
        L.to_lines ())
  in
  let ps = parse_ok lines in
  Alcotest.(check (list string)) "ledger verifies clean" [] (L.verify ps |> List.map (fun (v : L.violation) -> v.what));
  let reports = L.report ps in
  let find policy =
    match List.find_opt (fun (r : L.analyst_report) -> r.r_policy = policy) reports with
    | Some r -> r
    | None -> Alcotest.failf "no %s analyst in report" policy
  in
  let noisy = find "noisy" in
  Alcotest.(check int) "noisy analyst answered twice" 2 noisy.r_queries;
  Alcotest.(check int) "noisy analyst refused once" 1 noisy.r_refusals;
  Alcotest.(check (float 1e-9)) "noisy analyst spent its budget" 1.0 noisy.r_spent;
  (match noisy.r_total with
  | Some t -> Alcotest.(check (float 1e-9)) "declared total" 1.0 t
  | None -> Alcotest.fail "noisy session lost its declared budget");
  let acct = find "accountant" in
  Alcotest.(check (float 1e-9)) "accountant spent 0.75" 0.75 acct.r_spent;
  Alcotest.(check bool) "analyst ids are distinct" true
    (noisy.r_analyst <> acct.r_analyst)

let test_fresh_analyst_deterministic () =
  let first = with_ledger (fun () -> (L.fresh_analyst (), L.fresh_analyst ())) in
  let second = with_ledger (fun () -> (L.fresh_analyst (), L.fresh_analyst ())) in
  Alcotest.(check bool) "distinct within a run" true (fst first <> snd first);
  Alcotest.(check (pair string string)) "identical across resets" first second

(* --- the replay verifier on hand-tampered ledgers --- *)

let header = {|{"schema":"ledger/v1","version":1}|}

let session ?(analyst = "a1.0.0") ?(ts = 0) ?budget () =
  match budget with
  | None ->
    Printf.sprintf
      {|{"analyst":%S,"event":"session","policy":"exact","region":1,"task":0,"ts":%d}|}
      analyst ts
  | Some (per_query, total) ->
    Printf.sprintf
      {|{"analyst":%S,"event":"session","per_query_epsilon":%g,"policy":"noisy","region":1,"task":0,"total_epsilon":%g,"ts":%d}|}
      analyst per_query total ts

let spend ?(analyst = "a1.0.0") ~ts ~epsilon ~cumulative () =
  Printf.sprintf
    {|{"analyst":%S,"cumulative":%g,"epsilon":%g,"event":"spend","label":"t","region":1,"task":0,"ts":%d}|}
    analyst cumulative epsilon ts

let test_verify_accepts_clean_spends () =
  Alcotest.(check (list string))
    "within-budget spends are clean" []
    (whats
       [
         header;
         session ~budget:(0.5, 1.0) ();
         spend ~ts:1 ~epsilon:0.5 ~cumulative:0.5 ();
         spend ~ts:2 ~epsilon:0.5 ~cumulative:1.0 ();
       ])

let test_verify_rejects_tampering () =
  Alcotest.(check bool) "over-budget spend" true
    (has_violation
       [
         header;
         session ~budget:(0.5, 1.0) ();
         spend ~ts:1 ~epsilon:0.5 ~cumulative:0.5 ();
         spend ~ts:2 ~epsilon:0.5 ~cumulative:1.0 ();
         spend ~ts:3 ~epsilon:0.5 ~cumulative:1.5 ();
       ]
       "over budget");
  Alcotest.(check bool) "orphan spend (no session)" true
    (has_violation
       [ header; spend ~analyst:"a9.9.9" ~ts:0 ~epsilon:0.25 ~cumulative:0.25 () ]
       "orphan");
  Alcotest.(check bool) "cumulative mismatch vs replay" true
    (has_violation
       [
         header;
         session ~budget:(0.5, 10.0) ();
         spend ~ts:1 ~epsilon:0.5 ~cumulative:0.5 ();
         spend ~ts:2 ~epsilon:0.5 ~cumulative:0.5 ();
       ]
       "cumulative mismatch");
  Alcotest.(check bool) "duplicate session" true
    (has_violation [ header; session (); session ~ts:1 () ] "duplicate session");
  Alcotest.(check bool) "ts regression" true
    (has_violation
       [
         header;
         session ~budget:(0.5, 10.0) ();
         spend ~ts:5 ~epsilon:0.5 ~cumulative:0.5 ();
         spend ~ts:4 ~epsilon:0.5 ~cumulative:1.0 ();
       ]
       "not strictly increasing");
  Alcotest.(check bool) "spend_many total mismatch" true
    (has_violation
       [
         header;
         session ~budget:(0.5, 10.0) ();
         {|{"analyst":"a1.0.0","epsilon":0.5,"event":"spend_many","label":"t","n":4,"region":1,"task":0,"total":3.0,"ts":1}|};
       ]
       "spend_many");
  Alcotest.(check bool) "truncated ledger" true
    (has_violation [ header; {|{"dropped":17,"event":"truncated"}|} ] "truncated");
  match L.parse_lines [ {|{"schema":"other/v9","version":1}|} ] with
  | Ok _ -> Alcotest.fail "wrong schema accepted"
  | Error e ->
    Alcotest.(check bool) "schema error names the schema" true
      (String.length e > 0)

(* --- CLI end-to-end (same child-process harness as test_cli) --- *)

let exe names =
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

type outcome = { code : int; stdout : string }

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let run (binary, args) =
  let out = Filename.temp_file "ledger" ".out" in
  let err = Filename.temp_file "ledger" ".err" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> %s" (Filename.quote binary)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let result = { code; stdout = read_file out } in
  Sys.remove out;
  Sys.remove err;
  result

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  nn = 0
  ||
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let test_cli_ledger_jobs_invariance () =
  let ledger_at jobs =
    let path = Filename.temp_file "ledger" ".jsonl" in
    let r =
      run
        (pso_audit
           [
             "run"; "E2"; "--seed"; "5"; "--jobs"; string_of_int jobs;
             "--ledger"; path;
           ])
    in
    Alcotest.(check int) (Printf.sprintf "jobs=%d exits 0" jobs) 0 r.code;
    let bytes = read_file path in
    (path, bytes)
  in
  let p1, b1 = ledger_at 1 in
  let p2, b2 = ledger_at 2 in
  let p4, b4 = ledger_at 4 in
  Alcotest.(check bool) "ledger is non-trivial" true (String.length b1 > 100);
  Alcotest.(check string) "jobs 1 vs 2 byte-identical" b1 b2;
  Alcotest.(check string) "jobs 1 vs 4 byte-identical" b1 b4;
  let v = run (pso_audit [ "ledger-verify"; p1 ]) in
  Alcotest.(check int) "ledger-verify passes" 0 v.code;
  Alcotest.(check bool) "verify reports ok" true (contains v.stdout "ok:");
  let j = run (pso_audit [ "validate-json"; p1 ]) in
  Alcotest.(check int) "validate-json accepts JSONL" 0 j.code;
  let rep = run (pso_audit [ "ledger-report"; p1 ]) in
  Alcotest.(check int) "ledger-report exits 0" 0 rep.code;
  Alcotest.(check bool) "report has the analyst table" true
    (contains rep.stdout "analyst");
  Alcotest.(check bool) "report has quantile columns" true
    (contains rep.stdout "p99");
  List.iter Sys.remove [ p1; p2; p4 ]

let test_cli_ledger_verify_rejects_tampered () =
  let check_rejected name lines ~stdout_has =
    let path = Filename.temp_file "tampered" ".jsonl" in
    write_lines path lines;
    let r = run (pso_audit [ "ledger-verify"; path ]) in
    Sys.remove path;
    Alcotest.(check int) (name ^ " exits 1") 1 r.code;
    Alcotest.(check bool) (name ^ " names the violation") true
      (contains r.stdout stdout_has)
  in
  check_rejected "inflated budget"
    [
      header;
      session ~budget:(0.5, 1.0) ();
      spend ~ts:1 ~epsilon:0.5 ~cumulative:0.5 ();
      spend ~ts:2 ~epsilon:0.5 ~cumulative:1.0 ();
      spend ~ts:3 ~epsilon:0.5 ~cumulative:1.5 ();
    ]
    ~stdout_has:"over budget";
  check_rejected "orphan spend"
    [ header; spend ~analyst:"a9.9.9" ~ts:0 ~epsilon:0.25 ~cumulative:0.25 () ]
    ~stdout_has:"orphan";
  let garbage = Filename.temp_file "tampered" ".jsonl" in
  write_lines garbage [ {|{"schema":"other/v9"}|}; "{}" ];
  let r = run (pso_audit [ "ledger-verify"; garbage ]) in
  Sys.remove garbage;
  Alcotest.(check int) "wrong schema exits 2" 2 r.code

(* ledger-report --json must emit ledger-report/v1 that parses back to the
   same per-analyst numbers the library computes from the raw events. *)
let test_cli_ledger_report_json () =
  let path = Filename.temp_file "report" ".jsonl" in
  write_lines path
    [
      header;
      session ~budget:(0.5, 1.0) ();
      spend ~ts:1 ~epsilon:0.5 ~cumulative:0.5 ();
      spend ~ts:2 ~epsilon:0.25 ~cumulative:0.75 ();
    ];
  let r = run (pso_audit [ "ledger-report"; path; "--json" ]) in
  Sys.remove path;
  Alcotest.(check int) "ledger-report --json exits 0" 0 r.code;
  let doc =
    match Json.of_string r.stdout with
    | Ok d -> d
    | Error e -> Alcotest.failf "stdout is not JSON: %s" e
  in
  let str k j = Option.bind (Json.member k j) Json.to_string_opt in
  let num k j = Option.bind (Json.member k j) Json.to_float in
  Alcotest.(check (option string))
    "schema" (Some "ledger-report/v1") (str "schema" doc);
  Alcotest.(check (option int))
    "version" (Some 1)
    (Option.bind (Json.member "version" doc) Json.to_int);
  let analysts =
    match Option.bind (Json.member "analysts" doc) Json.to_list with
    | Some (_ :: _ as l) -> l
    | Some [] -> Alcotest.fail "analysts list is empty"
    | None -> Alcotest.fail "no analysts list"
  in
  let a = List.hd analysts in
  Alcotest.(check (option string)) "analyst id" (Some "a1.0.0") (str "analyst" a);
  Alcotest.(check (option string)) "policy" (Some "noisy") (str "policy" a);
  Alcotest.(check (option (float 1e-9))) "eps_spent" (Some 0.75) (num "eps_spent" a);
  Alcotest.(check (option (float 1e-9))) "eps_total" (Some 1.0) (num "eps_total" a);
  Alcotest.(check (option (float 1e-9))) "eps_left" (Some 0.25) (num "eps_left" a);
  Alcotest.(check (option (float 1e-9))) "cost_count" (Some 0.) (num "cost_count" a);
  Alcotest.(check bool) "cost_p99 is null when no query costs" true
    (Json.member "cost_p99" a = Some Json.Null)

(* The verdict rule the ledger overhead gate (and every other perf gate
   in Stattest.Gate) is judged by, on synthetic round times: A jitters
   around 100 us, B is A scaled, and the gate reads the median ratio's
   bootstrap interval against its bound. *)
let test_cli_bench_pair () =
  let module G = Stattest.Gate in
  let rounds = 21 in
  let jitter i k = 1. +. (0.005 *. float_of_int (((i * k) mod 5) - 2)) in
  let a = Array.init rounds (fun i -> 100_000. *. jitter i 7) in
  let scaled scale = Array.mapi (fun i t -> t *. scale *. jitter i 3) a in
  let verdict bound b = (G.judge bound ~a ~b).G.verdict in
  let check name want got =
    Alcotest.(check bool) name true (want = got)
  in
  check "+5% passes a 10% overhead bound" G.Pass
    (verdict (G.Overhead 1.10) (scaled 1.05));
  check "+100% fails a 10% overhead bound" G.Fail
    (verdict (G.Overhead 1.10) (scaled 2.0));
  check "20x passes a 10x speedup bound" G.Pass
    (verdict (G.Speedup 10.) (scaled 0.05));
  check "5x fails a 10x speedup bound" G.Fail
    (verdict (G.Speedup 10.) (scaled 0.2));
  (* Ratios spread evenly over [1.0, 1.2]: the interval holds 1.10. *)
  let spread = Array.mapi (fun i t -> t *. (1. +. (0.01 *. float_of_int i))) a in
  let s = G.judge (G.Overhead 1.10) ~a ~b:spread in
  Alcotest.(check bool) "interval holds the bound" true (s.G.lo < 1.10 && s.G.hi > 1.10);
  check "a straddling interval is unresolved" G.Unresolved s.G.verdict;
  let raises name b =
    Alcotest.(check bool) name true
      (match G.judge (G.Overhead 1.10) ~a:(Array.sub a 0 (Array.length b)) ~b with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  let with_round x = Array.mapi (fun i t -> if i = 3 then x else t) a in
  raises "a zero time" (with_round 0.);
  raises "a negative time" (with_round (-1.));
  raises "a nan time" (with_round nan);
  raises "an infinite time" (with_round infinity);
  raises "too few rounds" (Array.sub a 0 (G.min_rounds - 1));
  Alcotest.(check bool) "rounds must pair up" true
    (match G.judge (G.Overhead 1.10) ~a ~b:(Array.sub a 0 10) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let again = G.judge (G.Overhead 1.10) ~a ~b:spread in
  Alcotest.(check bool) "same samples, same interval" true
    (again.G.lo = s.G.lo && again.G.hi = s.G.hi && again.G.ratio = s.G.ratio)

let () =
  Alcotest.run "ledger"
    [
      ( "library",
        [
          Alcotest.test_case "curator round-trip" `Quick test_roundtrip_curator;
          Alcotest.test_case "fresh analyst determinism" `Quick
            test_fresh_analyst_deterministic;
          Alcotest.test_case "verify accepts clean spends" `Quick
            test_verify_accepts_clean_spends;
          Alcotest.test_case "verify rejects tampering" `Quick
            test_verify_rejects_tampering;
        ] );
      ( "cli",
        [
          Alcotest.test_case "ledger jobs invariance" `Slow
            test_cli_ledger_jobs_invariance;
          Alcotest.test_case "ledger-verify rejects tampered" `Quick
            test_cli_ledger_verify_rejects_tampered;
          Alcotest.test_case "ledger-report --json parse-back" `Quick
            test_cli_ledger_report_json;
          Alcotest.test_case "bench-pair contract" `Quick test_cli_bench_pair;
        ] );
    ]
