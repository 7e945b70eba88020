(* Integration tests: full pipelines across libraries, the experiment
   registry at quick scale, and the core facade. These are the
   "does the whole paper reproduce" smoke checks run by `dune runtest`. *)

let rng () = Prob.Rng.create ~seed:20210620L ()

(* Pipeline 1: synthesize -> k-anonymize -> PSO attack -> legal theorem. *)
let test_pipeline_kanon_to_legal () =
  let r = rng () in
  let model = Dataset.Synth.kanon_pso_model ~qis:6 ~retained:30 ~domain:64 in
  let table = Dataset.Model.sample_table r model 100 in
  let release =
    Kanon.Mondrian.anonymize ~recoding:Kanon.Mondrian.Member_level ~k:5 table
  in
  Alcotest.(check bool) "release is 5-anonymous" true
    (Kanon.Anonymizer.is_k_anonymous ~k:5 release);
  let p =
    Pso.Attacker.attack (Pso.Kanon_attack.cohen ()) r
      (Query.Mechanism.Generalized release)
  in
  let schema = Dataset.Model.schema model in
  Alcotest.(check bool) "attack isolates in the source data" true
    (Query.Predicate.isolates schema p table);
  let w = Query.Predicate.weight_value (Query.Predicate.weight model p) in
  Alcotest.(check bool) "predicate weight negligible" true
    (w <= Pso.Isolation.negligible_bound ~n:100 ~c:2.);
  (* Fold the demonstration into the legal layer. *)
  let verdict = Pso.Theorems.kanon_fails
      ~params:{ Pso.Theorems.n = 100; trials = 60; weight_exponent = 2. } r
  in
  let theorem =
    Legal.Theorem.kanon_fails_anonymization ~variant:Legal.Technology.K_anonymity
      verdict
  in
  Alcotest.(check bool) "legal corollary established" true
    (theorem.Legal.Theorem.standing = Legal.Theorem.Fails_standard)

(* Pipeline 2: synthesize -> publish tables -> reconstruct -> re-identify. *)
let test_pipeline_census () =
  let r = rng () in
  let truth = Dataset.Synth.census_population r ~blocks:60 ~mean_block_size:20 in
  let recon = Attacks.Census_scale.reconstruct (Attacks.Census.tabulate truth) in
  let eval = Attacks.Census_scale.evaluate ~truth recon in
  let commercial = Attacks.Census.commercial_db r truth ~coverage:0.6 ~age_error_rate:0.1 in
  let reid = Attacks.Census_scale.reidentify recon commercial ~truth in
  Alcotest.(check bool) "reconstruction substantially correct" true
    (eval.Attacks.Census_scale.age_within_one_rate > 0.5);
  Alcotest.(check bool) "re-identification far above the prior estimate" true
    (reid.Attacks.Census_scale.confirmed_rate > 100. *. 0.00003)

(* Pipeline 3: DP release resists attackers that defeat the raw release. *)
let test_pipeline_dp_vs_exact () =
  let r = rng () in
  let model = Dataset.Synth.pso_model ~attributes:3 ~values_per_attribute:64 in
  let n = 100 in
  let scheme = Pso.Composition.single_bucket ~salt:(Prob.Rng.bits64 r) ~buckets:n ~ell:40 in
  let play mechanism =
    (Pso.Game.run r ~model ~n ~mechanism ~attacker:scheme.Pso.Composition.attacker
       ~weight_bound:(Pso.Isolation.negligible_bound ~n ~c:2.)
       ~trials:100)
      .Pso.Game.success_rate
  in
  let exact = play scheme.Pso.Composition.mechanism in
  let dp = play (Query.Mechanism.laplace_counts ~epsilon:1. scheme.Pso.Composition.queries) in
  Alcotest.(check bool) "exact counts broken" true (exact > 0.2);
  Alcotest.(check bool) "dp counts safe" true (dp <= 0.02)

(* Pipeline 4: the full audit facade. *)
let test_core_audit () =
  let r = rng () in
  let model = Dataset.Synth.kanon_pso_model ~qis:6 ~retained:30 ~domain:64 in
  let kanon_mech =
    {
      Query.Mechanism.name = "mondrian[k=5]";
      run =
        (fun _rng table ->
          Query.Mechanism.Generalized
            (Kanon.Mondrian.anonymize ~recoding:Kanon.Mondrian.Member_level ~k:5 table));
    }
  in
  let findings = Core.Audit.mechanism r ~model ~n:80 ~trials:30 kanon_mech in
  Alcotest.(check int) "five standard attackers" 5 (List.length findings);
  Alcotest.(check bool) "kanon release flagged" true
    (Core.Audit.worst_success findings > 0.5);
  let count_mech =
    Query.Mechanism.exact_count (Query.Predicate.Atom (Query.Predicate.Range ("q0", 0., 32.)))
  in
  let findings = Core.Audit.mechanism r ~model ~n:80 ~trials:30 count_mech in
  Alcotest.(check bool) "count release passes the battery" true
    (Core.Audit.worst_success findings <= 0.05)

(* Every experiment runs at quick scale without raising. *)
let test_experiments_run () =
  let r = rng () in
  let buf = Buffer.create 65536 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter
    (fun (e : Experiments.Registry.entry) ->
      e.Experiments.Registry.print ~scale:Experiments.Common.Quick r fmt;
      Format.pp_print_flush fmt ();
      Alcotest.(check bool)
        (Printf.sprintf "%s produced output" e.Experiments.Registry.id)
        true
        (Buffer.length buf > 0))
    (List.filter
       (fun (e : Experiments.Registry.entry) ->
         (* E12 runs the full battery; covered by test_pso. Keep the rest. *)
         e.Experiments.Registry.id <> "E12")
       Experiments.Registry.all)

let test_experiment_registry_lookup () =
  Alcotest.(check bool) "finds e7 case-insensitively" true
    (Experiments.Registry.find "e7" <> None);
  Alcotest.(check bool) "rejects junk" true (Experiments.Registry.find "E99" = None);
  Alcotest.(check int) "fourteen experiments" 14 (List.length Experiments.Registry.all)

(* Every perf gate's A and B sides run once, untimed, with their
   cross-checks: SpMV sparse == dense bitwise, and every predicate engine
   and the batched mechanism agree with the interpreter's counts. The
   timeline gate leaves no ticker running and the ledger gate leaves the
   journal off. *)
let test_experiment_kernels () =
  List.iter Stattest.Gate.exercise Stattest.Gate.all;
  Alcotest.(check bool) "no ticker left running" false (Obs.Timeline.running ());
  Alcotest.(check bool) "ledger left off" false (Obs.Ledger.enabled ())

let test_core_version () =
  Alcotest.(check bool) "semver-ish" true (String.length Core.version >= 5)

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          Alcotest.test_case "kanon to legal theorem" `Slow test_pipeline_kanon_to_legal;
          Alcotest.test_case "census reconstruction" `Quick test_pipeline_census;
          Alcotest.test_case "dp vs exact" `Slow test_pipeline_dp_vs_exact;
          Alcotest.test_case "core audit facade" `Slow test_core_audit;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "all run at quick scale" `Slow test_experiments_run;
          Alcotest.test_case "registry lookup" `Quick test_experiment_registry_lookup;
          Alcotest.test_case "kernels run" `Slow test_experiment_kernels;
        ] );
      ("facade", [ Alcotest.test_case "version" `Quick test_core_version ]);
    ]
