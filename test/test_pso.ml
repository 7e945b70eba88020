(* Tests for the core contribution: isolation analytics, the PSO game
   harness, the baseline / pad / composition / k-anonymity attackers, and
   the executable theorem battery.

   Monte-Carlo assertions use generous tolerances; the theorem battery
   itself is asserted via its own [holds] flags (that is the falsifiability
   contract). *)

let rng () = Prob.Rng.create ~seed:55L ()

let small_model = Dataset.Synth.pso_model ~attributes:3 ~values_per_attribute:16

let trivial_mechanism = Query.Mechanism.exact_count Query.Predicate.True

(* --- Isolation analytics --- *)

let test_isolation_probability_formula () =
  Alcotest.(check (float 1e-12)) "n=2, w=1/2" 0.5
    (Pso.Isolation.trivial_isolation_probability ~n:2 ~w:0.5);
  Alcotest.(check (float 1e-12)) "w=0" 0.
    (Pso.Isolation.trivial_isolation_probability ~n:10 ~w:0.);
  Alcotest.(check (float 1e-12)) "w=1" 0.
    (Pso.Isolation.trivial_isolation_probability ~n:10 ~w:1.)

let test_isolation_maximum_at_one_over_n () =
  let n = 365 in
  let at_opt = Pso.Isolation.max_trivial_probability ~n in
  Alcotest.(check bool) "close to 1/e" true
    (Float.abs (at_opt -. Pso.Isolation.one_over_e) < 0.01);
  (* The optimum dominates neighbouring weights. *)
  List.iter
    (fun w ->
      Alcotest.(check bool) "dominates" true
        (at_opt >= Pso.Isolation.trivial_isolation_probability ~n ~w))
    [ 0.5 /. 365.; 2. /. 365.; 0.01; 0.0001 ]

let test_negligible_bound () =
  Alcotest.(check (float 1e-12)) "n^-2" 1e-4 (Pso.Isolation.negligible_bound ~n:100 ~c:2.)

let test_heavy_band_vanishes () =
  (* Footnote 11: at w = c·log n / n with c > 1 the isolation probability is
     ~ c log n · n^-c — decreasing in n and already small. *)
  let p n = Pso.Isolation.heavy_band_probability ~n ~multiplier:2. in
  Alcotest.(check bool) "decreasing" true (p 100 > p 1000 && p 1000 > p 10000);
  Alcotest.(check bool) "small at 10^4" true (p 10000 < 1e-3)

let test_isolates_definition () =
  let table = Dataset.Model.sample_table (rng ()) small_model 20 in
  let schema = Dataset.Model.schema small_model in
  let first = Dataset.Table.row table 0 in
  (* The full-row predicate of row 0 isolates iff row 0 is unique. *)
  let p =
    Query.Predicate.conj
      (List.mapi
         (fun j v -> Query.Predicate.Atom (Query.Predicate.Eq ((Dataset.Schema.attribute schema j).Dataset.Schema.name, v)))
         (Array.to_list first))
  in
  let count = Query.Predicate.count schema p table in
  Alcotest.(check bool) "isolation iff count=1" true
    (Pso.Isolation.isolates small_model p table = (count = 1))

(* --- Game harness --- *)

let test_game_accounting () =
  let outcome =
    Pso.Game.run (rng ()) ~model:small_model ~n:50 ~mechanism:trivial_mechanism
      ~attacker:(Pso.Attacker.hash_bucket ~buckets:50)
      ~weight_bound:1. ~trials:100
  in
  Alcotest.(check int) "trials" 100 outcome.Pso.Game.trials;
  Alcotest.(check int) "successes + nothing exceed trials" outcome.Pso.Game.isolations
    (outcome.Pso.Game.successes + outcome.Pso.Game.heavy_isolations);
  Alcotest.(check bool) "rate consistent" true
    (Float.abs
       (outcome.Pso.Game.success_rate
       -. (float_of_int outcome.Pso.Game.successes /. 100.))
    < 1e-9)

let test_game_weight_bound_partitions () =
  (* Same attacker, weight bound 1 vs tiny: successes flip to heavy. *)
  let run bound =
    Pso.Game.run (rng ()) ~model:small_model ~n:50 ~mechanism:trivial_mechanism
      ~attacker:(Pso.Attacker.hash_bucket ~buckets:50)
      ~weight_bound:bound ~trials:200
  in
  let loose = run 1. in
  let tight = run 1e-9 in
  Alcotest.(check bool) "loose counts isolations" true
    (loose.Pso.Game.successes = loose.Pso.Game.isolations);
  Alcotest.(check int) "tight counts none" 0 tight.Pso.Game.successes;
  Alcotest.(check bool) "isolations unaffected by bound" true
    (abs (tight.Pso.Game.isolations - loose.Pso.Game.isolations) < 40)

let test_game_validates () =
  Alcotest.check_raises "n" (Invalid_argument "Game.run: n") (fun () ->
      ignore
        (Pso.Game.run (rng ()) ~model:small_model ~n:0
           ~mechanism:trivial_mechanism
           ~attacker:(Pso.Attacker.hash_bucket ~buckets:2)
           ~weight_bound:1. ~trials:1))

let test_baseline_37_percent () =
  let n = 100 in
  let outcome =
    Pso.Game.run (rng ()) ~model:small_model ~n ~mechanism:trivial_mechanism
      ~attacker:(Pso.Attacker.hash_bucket ~buckets:n)
      ~weight_bound:1. ~trials:800
  in
  let rate = float_of_int outcome.Pso.Game.isolations /. 800. in
  Alcotest.(check bool)
    (Printf.sprintf "isolation near 1/e (got %f)" rate)
    true
    (Float.abs (rate -. Pso.Isolation.one_over_e) < 0.07)

let test_fixed_value_attacker () =
  let model =
    Dataset.Model.make
      (Dataset.Schema.make
         [
           {
             Dataset.Schema.name = "birthday";
             kind = Dataset.Value.Kint;
             role = Dataset.Schema.Quasi_identifier;
           };
         ])
      [
        ( "birthday",
          Prob.Distribution.uniform (List.init 365 (fun d -> Dataset.Value.Int d)) );
      ]
  in
  let outcome =
    Pso.Game.run (rng ()) ~model ~n:365 ~mechanism:trivial_mechanism
      ~attacker:(Pso.Attacker.fixed_value ~attr:"birthday" (Dataset.Value.Int 119))
      ~weight_bound:1. ~trials:600
  in
  let rate = float_of_int outcome.Pso.Game.isolations /. 600. in
  Alcotest.(check bool) "birthday attacker near 37%" true
    (Float.abs (rate -. Pso.Isolation.one_over_e) < 0.08)

(* --- Pad construction (Thm 2.7) --- *)

let test_pad_joint_attack_wins () =
  let pad = Pso.Pad.make ~salt:42L in
  let outcome =
    Pso.Game.run (rng ()) ~model:small_model ~n:60 ~mechanism:pad.Pso.Pad.composed
      ~attacker:pad.Pso.Pad.joint_attacker
      ~weight_bound:(Pso.Isolation.negligible_bound ~n:60 ~c:2.)
      ~trials:100
  in
  Alcotest.(check bool) "joint attack ~1" true (outcome.Pso.Game.success_rate > 0.9)

let test_pad_marginals_resist () =
  let pad = Pso.Pad.make ~salt:43L in
  List.iter
    (fun m ->
      let outcome =
        Pso.Game.run (rng ()) ~model:small_model ~n:60 ~mechanism:m
          ~attacker:pad.Pso.Pad.marginal_attacker ~weight_bound:1. ~trials:100
      in
      Alcotest.(check int) "no isolations at all" 0 outcome.Pso.Game.isolations)
    [ pad.Pso.Pad.m1; pad.Pso.Pad.m2 ]

let test_pad_digest_predicate_weight () =
  let p = Pso.Pad.digest_predicate ~salt:7L 12345L in
  match Query.Predicate.weight small_model p with
  | Query.Predicate.Salted w ->
    Alcotest.(check (float 1e-25)) "2^-64" (Float.pow 0.5 64.) w
  | _ -> Alcotest.fail "expected salted weight"

let test_pad_digest_predicate_matches_digest_owner () =
  let salt = 99L in
  let pad = Pso.Pad.make ~salt in
  let table = Dataset.Model.sample_table (rng ()) small_model 30 in
  let r = rng () in
  match
    ( Query.Mechanism.run pad.Pso.Pad.m1 r table,
      Query.Mechanism.run pad.Pso.Pad.m2 r table )
  with
  | Query.Mechanism.Words a, Query.Mechanism.Words b ->
    let digest = Int64.logxor a.(0) b.(0) in
    let p = Pso.Pad.digest_predicate ~salt digest in
    Alcotest.(check bool) "row 0 matches its own digest predicate" true
      (Query.Predicate.eval (Dataset.Model.schema small_model) p
         (Dataset.Table.row table 0))
  | _ -> Alcotest.fail "expected word outputs"

(* --- Composition attack (Thms 2.8/2.9) --- *)

let test_composition_scouted_beats_single () =
  let r = rng () in
  let n = 100 in
  let play variant =
    let scheme =
      match variant with
      | `Single -> Pso.Composition.single_bucket ~salt:(Prob.Rng.bits64 r) ~buckets:n ~ell:40
      | `Scouted ->
        Pso.Composition.scouted ~salt:(Prob.Rng.bits64 r) ~buckets:n ~ell:40 ~scouts:6
    in
    (Pso.Game.run r ~model:small_model ~n ~mechanism:scheme.Pso.Composition.mechanism
       ~attacker:scheme.Pso.Composition.attacker
       ~weight_bound:(Pso.Isolation.negligible_bound ~n ~c:2.)
       ~trials:150)
      .Pso.Game.success_rate
  in
  let single = play `Single and scouted = play `Scouted in
  Alcotest.(check bool)
    (Printf.sprintf "single ~0.37 (got %f)" single)
    true
    (single > 0.2 && single < 0.55);
  Alcotest.(check bool)
    (Printf.sprintf "scouted >> single (got %f)" scouted)
    true (scouted > 0.75)

let test_composition_weight_of_success () =
  Alcotest.(check (float 1e-18)) "2^-20/100"
    (Float.pow 0.5 20. /. 100.)
    (Pso.Composition.weight_of_success ~buckets:100 ~ell:20)

let test_composition_ell_validated () =
  Alcotest.check_raises "ell 64" (Invalid_argument "Composition: ell must be in 1..63")
    (fun () -> ignore (Pso.Composition.single_bucket ~salt:1L ~buckets:10 ~ell:64))

let test_composition_heavy_below_threshold () =
  (* With ell too small the predicate is too heavy: isolations happen but
     none count as PSO successes. *)
  let r = rng () in
  let n = 100 in
  let scheme = Pso.Composition.single_bucket ~salt:(Prob.Rng.bits64 r) ~buckets:n ~ell:2 in
  let outcome =
    Pso.Game.run r ~model:small_model ~n ~mechanism:scheme.Pso.Composition.mechanism
      ~attacker:scheme.Pso.Composition.attacker
      ~weight_bound:(Pso.Isolation.negligible_bound ~n ~c:2.)
      ~trials:150
  in
  Alcotest.(check int) "no formal successes" 0 outcome.Pso.Game.successes;
  Alcotest.(check bool) "but isolations persist" true (outcome.Pso.Game.isolations > 20)

let test_composition_dp_defends () =
  let r = rng () in
  let n = 100 in
  let scheme = Pso.Composition.single_bucket ~salt:(Prob.Rng.bits64 r) ~buckets:n ~ell:40 in
  let noisy = Query.Mechanism.laplace_counts ~epsilon:1. scheme.Pso.Composition.queries in
  let outcome =
    Pso.Game.run r ~model:small_model ~n ~mechanism:noisy
      ~attacker:scheme.Pso.Composition.attacker
      ~weight_bound:(Pso.Isolation.negligible_bound ~n ~c:2.)
      ~trials:100
  in
  Alcotest.(check bool) "DP kills the attack" true (outcome.Pso.Game.success_rate <= 0.02)

(* --- k-anonymity attack (Thm 2.10) --- *)

let kanon_model = Dataset.Synth.kanon_pso_model ~qis:6 ~retained:30 ~domain:64

let kanon_mechanism recoding =
  {
    Query.Mechanism.name = "mondrian";
    run =
      (fun _rng table ->
        Query.Mechanism.Generalized (Kanon.Mondrian.anonymize ~recoding ~k:5 table));
  }

let test_kanon_greedy_success () =
  let outcome =
    Pso.Game.run (rng ()) ~model:kanon_model ~n:100
      ~mechanism:(kanon_mechanism Kanon.Mondrian.Class_level)
      ~attacker:(Pso.Kanon_attack.greedy ())
      ~weight_bound:(Pso.Isolation.negligible_bound ~n:100 ~c:2.)
      ~trials:120
  in
  Alcotest.(check bool)
    (Printf.sprintf "greedy near 37%% (got %f)" outcome.Pso.Game.success_rate)
    true
    (outcome.Pso.Game.success_rate > 0.2 && outcome.Pso.Game.success_rate < 0.6)

let test_kanon_cohen_success () =
  let outcome =
    Pso.Game.run (rng ()) ~model:kanon_model ~n:100
      ~mechanism:(kanon_mechanism Kanon.Mondrian.Member_level)
      ~attacker:(Pso.Kanon_attack.cohen ())
      ~weight_bound:(Pso.Isolation.negligible_bound ~n:100 ~c:2.)
      ~trials:120
  in
  Alcotest.(check bool)
    (Printf.sprintf "cohen ~1 (got %f)" outcome.Pso.Game.success_rate)
    true
    (outcome.Pso.Game.success_rate > 0.9)

let test_kanon_class_predicate_matches_members () =
  let r = rng () in
  let table = Dataset.Model.sample_table r kanon_model 80 in
  let release =
    Kanon.Mondrian.anonymize ~recoding:Kanon.Mondrian.Class_level ~k:5 table
  in
  let schema = Dataset.Model.schema kanon_model in
  let qis = Dataset.Schema.with_role schema Dataset.Schema.Quasi_identifier in
  List.iter
    (fun c ->
      let p = Pso.Kanon_attack.class_predicate release c in
      let count = Query.Predicate.count schema p table in
      Alcotest.(check int) "class predicate matches exactly its members"
        (Array.length c.Dataset.Gtable.members)
        count)
    (Dataset.Gtable.classes_on release qis)

let test_kanon_attackers_noop_on_other_outputs () =
  let r = rng () in
  List.iter
    (fun attacker ->
      let p = Pso.Attacker.attack attacker r (Query.Mechanism.Scalar 3.) in
      Alcotest.(check bool) "False on non-release output" true (p = Query.Predicate.False))
    [ Pso.Kanon_attack.greedy (); Pso.Kanon_attack.cohen () ]

(* --- Release-row attacker / synthetic data (E13) --- *)

let test_release_row_defeats_identity_release () =
  let model = Dataset.Synth.kanon_pso_model ~qis:4 ~retained:8 ~domain:16 in
  let outcome =
    Pso.Game.run (rng ()) ~model ~n:100
      ~mechanism:Query.Mechanism.identity_release
      ~attacker:(Pso.Attacker.release_row ())
      ~weight_bound:(Pso.Isolation.negligible_bound ~n:100 ~c:2.)
      ~trials:100
  in
  Alcotest.(check bool) "verbatim release singled out" true
    (outcome.Pso.Game.success_rate > 0.9)

let test_release_row_fails_against_synthetic () =
  let model = Dataset.Synth.kanon_pso_model ~qis:4 ~retained:8 ~domain:16 in
  let domains =
    List.map
      (fun name -> (name, List.init 16 (fun v -> Dataset.Value.Int v)))
      (Dataset.Schema.names (Dataset.Model.schema model))
  in
  let outcome =
    Pso.Game.run (rng ()) ~model ~n:100
      ~mechanism:(Dp.Synthetic.mechanism ~epsilon:1. ~domains ~rows:100)
      ~attacker:(Pso.Attacker.release_row ())
      ~weight_bound:(Pso.Isolation.negligible_bound ~n:100 ~c:2.)
      ~trials:60
  in
  Alcotest.(check bool) "synthetic release safe" true
    (outcome.Pso.Game.success_rate <= 0.05)

let test_release_row_noop_elsewhere () =
  let p =
    Pso.Attacker.attack (Pso.Attacker.release_row ()) (rng ())
      (Query.Mechanism.Scalar 1.)
  in
  Alcotest.(check bool) "False on non-release" true (p = Query.Predicate.False)

(* --- The experiments' queries against the reference interpreter --- *)

(* E2 and E5 replayed at their quick sizes: every predicate they ask and
   every predicate their attackers output, answered by the compiled
   evaluator, must equal the interpreter's answer on the same table. *)

let count_interpreted = Query.Predicate.count_interpreted

let test_e2_predicates_match_interpreter () =
  let model = Experiments.E2_birthday.model and n = 365 in
  let schema = Dataset.Model.schema model in
  let attackers =
    Pso.Attacker.fixed_value ~attr:"birthday" (Dataset.Value.Int 119)
    :: List.map
         (fun buckets -> Pso.Attacker.hash_bucket ~buckets)
         [ 16 * n; 4 * n; n; n / 2; n / 8 ]
  in
  let r = rng () and isolated = ref 0 in
  for _ = 1 to 50 do
    let table = Dataset.Model.sample_table r model n in
    let y = Query.Mechanism.run trivial_mechanism r table in
    List.iter
      (fun a ->
        let p = Pso.Attacker.attack a r y in
        let expected = count_interpreted schema p table in
        let name = a.Pso.Attacker.name in
        Alcotest.(check int) (name ^ " count") expected
          (Query.Predicate.count schema p table);
        Alcotest.(check bool) (name ^ " isolates") (expected = 1)
          (Query.Predicate.isolates schema p table);
        if expected = 1 then incr isolated)
      attackers
  done;
  Alcotest.(check bool) "some predicate isolates" true (!isolated > 0)

let test_e5_batches_match_interpreter () =
  let model = Experiments.E5_composition.model and n = 128 in
  let schema = Dataset.Model.schema model in
  let pool = Parallel.Pool.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) @@ fun () ->
  let r = rng () and isolated = ref 0 in
  List.iter
    (fun ell ->
      List.iter
        (fun (variant, scheme) ->
          let scheme = scheme (Prob.Rng.bits64 r) in
          let qs = scheme.Pso.Composition.queries in
          let name = Printf.sprintf "%s ell=%d" variant ell in
          let vector what = function
            | Query.Mechanism.Vector v -> v
            | _ -> Alcotest.failf "%s %s: expected a vector" name what
          in
          for _ = 1 to 4 do
            let table = Dataset.Model.sample_table r model n in
            let expected = Array.map (fun q -> count_interpreted schema q table) qs in
            Alcotest.(check (array int)) (name ^ " counts") expected
              (Query.Engine.counts table qs);
            Alcotest.(check (array int)) (name ^ " pooled counts") expected
              (Query.Engine.counts ~pool table qs);
            let y = Query.Mechanism.run scheme.Pso.Composition.mechanism r table in
            let floats = Array.map float_of_int expected in
            Alcotest.(check (array (float 0.))) (name ^ " mechanism") floats
              (vector "mechanism" y);
            Alcotest.(check (array (float 0.))) (name ^ " pooled mechanism") floats
              (vector "pooled mechanism"
                 (Query.Mechanism.run
                    (Query.Mechanism.exact_counts_batch ~pool
                       scheme.Pso.Composition.batch)
                    r table));
            let p = Pso.Attacker.attack scheme.Pso.Composition.attacker r y in
            let c = count_interpreted schema p table in
            Alcotest.(check bool) (name ^ " attacker isolates") (c = 1)
              (Query.Predicate.isolates schema p table);
            if c = 1 then incr isolated
          done)
        [
          ("single", fun salt -> Pso.Composition.single_bucket ~salt ~buckets:n ~ell);
          ("scouted", fun salt -> Pso.Composition.scouted ~salt ~buckets:n ~ell ~scouts:6);
        ])
    [ 4; 12; 24; 40 ];
  Alcotest.(check bool) "some attacker predicate isolates" true (!isolated > 0)

(* --- Theorem battery --- *)

let test_theorem_battery_holds () =
  (* The whole battery at reduced parameters; every verdict must hold. This
     is the repository's central regression. *)
  let params = { Pso.Theorems.n = 120; trials = 120; weight_exponent = 2. } in
  let verdicts = Pso.Theorems.all ~params (rng ()) in
  Alcotest.(check int) "seven checks" 7 (List.length verdicts);
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "%s holds" v.Pso.Theorems.id)
        true v.Pso.Theorems.holds)
    verdicts

let test_theorem_ids_unique () =
  let params = { Pso.Theorems.n = 60; trials = 20; weight_exponent = 2. } in
  let ids = List.map (fun v -> v.Pso.Theorems.id) (Pso.Theorems.all ~params (rng ())) in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

(* --- QCheck properties --- *)

let qcheck =
  let open QCheck in
  [
    Test.make ~name:"trivial isolation probability in [0,1]" ~count:300
      (pair (int_range 1 10_000) (float_bound_inclusive 1.))
      (fun (n, w) ->
        let p = Pso.Isolation.trivial_isolation_probability ~n ~w in
        0. <= p && p <= 1.);
    Test.make ~name:"optimal weight maximizes the formula" ~count:100
      (int_range 2 5000) (fun n ->
        let opt = Pso.Isolation.max_trivial_probability ~n in
        (* [3/n] is capped at 1: at n = 2 it would leave the formula's
           domain and raise. *)
        List.for_all
          (fun w -> opt +. 1e-12 >= Pso.Isolation.trivial_isolation_probability ~n ~w)
          [ 0.3 /. float_of_int n; Float.min 1. (3. /. float_of_int n); 0.5 ]);
    Test.make ~name:"game success count bounded by isolations" ~count:10
      (int_range 1 1000) (fun seed ->
        let r = Prob.Rng.create ~seed:(Int64.of_int seed) () in
        let o =
          Pso.Game.run r ~model:small_model ~n:30 ~mechanism:trivial_mechanism
            ~attacker:(Pso.Attacker.hash_bucket ~buckets:30)
            ~weight_bound:0.5 ~trials:30
        in
        o.Pso.Game.successes <= o.Pso.Game.isolations
        && o.Pso.Game.isolations <= o.Pso.Game.trials);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "pso"
    [
      ( "isolation",
        [
          Alcotest.test_case "formula" `Quick test_isolation_probability_formula;
          Alcotest.test_case "maximum at 1/n" `Quick test_isolation_maximum_at_one_over_n;
          Alcotest.test_case "negligible bound" `Quick test_negligible_bound;
          Alcotest.test_case "heavy band vanishes" `Quick test_heavy_band_vanishes;
          Alcotest.test_case "isolates definition" `Quick test_isolates_definition;
        ] );
      ( "game",
        [
          Alcotest.test_case "accounting" `Quick test_game_accounting;
          Alcotest.test_case "weight bound partitions" `Quick
            test_game_weight_bound_partitions;
          Alcotest.test_case "validates" `Quick test_game_validates;
          Alcotest.test_case "baseline 37%" `Slow test_baseline_37_percent;
          Alcotest.test_case "fixed-value attacker" `Slow test_fixed_value_attacker;
        ] );
      ( "pad (Thm 2.7)",
        [
          Alcotest.test_case "joint attack wins" `Slow test_pad_joint_attack_wins;
          Alcotest.test_case "marginals resist" `Slow test_pad_marginals_resist;
          Alcotest.test_case "digest predicate weight" `Quick
            test_pad_digest_predicate_weight;
          Alcotest.test_case "digest predicate ownership" `Quick
            test_pad_digest_predicate_matches_digest_owner;
        ] );
      ( "composition (Thms 2.8/2.9)",
        [
          Alcotest.test_case "scouted beats single" `Slow
            test_composition_scouted_beats_single;
          Alcotest.test_case "weight of success" `Quick test_composition_weight_of_success;
          Alcotest.test_case "ell validated" `Quick test_composition_ell_validated;
          Alcotest.test_case "heavy below threshold" `Slow
            test_composition_heavy_below_threshold;
          Alcotest.test_case "dp defends" `Slow test_composition_dp_defends;
        ] );
      ( "kanon attack (Thm 2.10)",
        [
          Alcotest.test_case "greedy success" `Slow test_kanon_greedy_success;
          Alcotest.test_case "cohen success" `Slow test_kanon_cohen_success;
          Alcotest.test_case "class predicate exact" `Quick
            test_kanon_class_predicate_matches_members;
          Alcotest.test_case "no-op on other outputs" `Quick
            test_kanon_attackers_noop_on_other_outputs;
        ] );
      ( "release-row attacker",
        [
          Alcotest.test_case "defeats identity release" `Slow
            test_release_row_defeats_identity_release;
          Alcotest.test_case "fails against synthetic" `Slow
            test_release_row_fails_against_synthetic;
          Alcotest.test_case "no-op elsewhere" `Quick test_release_row_noop_elsewhere;
        ] );
      ( "theorem battery",
        [
          Alcotest.test_case "all hold" `Slow test_theorem_battery_holds;
          Alcotest.test_case "ids unique" `Quick test_theorem_ids_unique;
        ] );
      ( "interpreter",
        [
          Alcotest.test_case "E2 predicates" `Quick
            test_e2_predicates_match_interpreter;
          Alcotest.test_case "E5 batches" `Quick test_e5_batches_match_interpreter;
        ] );
      ("properties", qcheck);
    ]
