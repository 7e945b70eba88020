(* Tests for the k-anonymity library: the anonymity invariant for every
   algorithm (unit + property), cover correctness, suppression budgets,
   information-loss metrics, and the l-diversity / t-closeness checks. *)

module V = Dataset.Value
module S = Dataset.Schema
module T = Dataset.Table
module G = Dataset.Gvalue

let rng () = Prob.Rng.create ~seed:404L ()

let model = Dataset.Synth.kanon_pso_model ~qis:4 ~retained:3 ~domain:16

let schema = Dataset.Model.schema model

let qis = S.with_role schema S.Quasi_identifier

let sample n = Dataset.Model.sample_table (rng ()) model n

let int_scheme =
  List.map
    (fun qi ->
      (qi, Dataset.Hierarchy.int_ranges ~name:qi ~lo:0 ~widths:[ 2; 4; 8; 16 ]))
    qis

(* --- cover --- *)

let test_cover_exact_when_equal () =
  Alcotest.(check bool) "equal values stay exact" true
    (G.equal (G.Exact (V.Int 3)) (Kanon.Generalization.cover [| V.Int 3; V.Int 3 |]))

let test_cover_int_range () =
  match Kanon.Generalization.cover [| V.Int 3; V.Int 9; V.Int 5 |] with
  | G.Int_range (3, 9) -> ()
  | g -> Alcotest.failf "expected 3-9, got %s" (G.to_string g)

let test_cover_string_prefix () =
  match Kanon.Generalization.cover [| V.String "12345"; V.String "12399" |] with
  | G.Prefix (_, 3) -> ()
  | g -> Alcotest.failf "expected prefix-3, got %s" (G.to_string g)

let test_cover_no_common_prefix () =
  Alcotest.(check bool) "disjoint strings suppressed" true
    (G.equal G.Any (Kanon.Generalization.cover [| V.String "abc"; V.String "xyz" |]))

let test_cover_hierarchy () =
  let h = Dataset.Synth.disease_hierarchy in
  match
    Kanon.Generalization.cover ~hierarchy:h [| V.String "COVID"; V.String "Asthma" |]
  with
  | G.Category { label = "PULM"; _ } -> ()
  | g -> Alcotest.failf "expected PULM, got %s" (G.to_string g)

let test_cover_hierarchy_cross_group () =
  let h = Dataset.Synth.disease_hierarchy in
  match
    Kanon.Generalization.cover ~hierarchy:h [| V.String "COVID"; V.String "CAD" |]
  with
  | G.Category { label = "ANY-DX"; _ } -> ()
  | g -> Alcotest.failf "expected ANY-DX (root), got %s" (G.to_string g)

let test_cover_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Generalization.cover: empty list")
    (fun () -> ignore (Kanon.Generalization.cover [||]))

(* --- full_domain --- *)

let test_full_domain_levels () =
  let t = sample 30 in
  let release =
    Kanon.Generalization.full_domain schema int_scheme
      ~levels:[ (List.hd qis, 2) ]
      t
  in
  let j = S.index_of schema (List.hd qis) in
  Array.iter
    (fun grow ->
      match grow.(j) with
      | G.Int_range (lo, hi) -> Alcotest.(check int) "width 4" 3 (hi - lo)
      | g -> Alcotest.failf "expected width-4 range, got %s" (G.to_string g))
    (Dataset.Gtable.rows release)

let test_full_domain_keeps_unlisted_exact () =
  let t = sample 10 in
  let release = Kanon.Generalization.full_domain schema int_scheme ~levels:[] t in
  Dataset.Gtable.rows release
  |> Array.iteri (fun i grow ->
         Array.iteri
           (fun j g ->
             if not (G.equal g (G.Exact (T.row t i).(j))) then
               Alcotest.fail "level-0 cell not exact")
           grow)

let test_suppress_rows () =
  let t = sample 5 in
  let release = Kanon.Generalization.full_domain schema int_scheme ~levels:[] t in
  let suppressed = Kanon.Generalization.suppress_rows release [| 2 |] in
  Alcotest.(check bool) "row 2 all Any" true
    (Array.for_all G.is_suppressed (Dataset.Gtable.row suppressed 2));
  Alcotest.(check bool) "row 1 untouched" false
    (Array.for_all G.is_suppressed (Dataset.Gtable.row suppressed 1))

(* --- Mondrian --- *)

let test_mondrian_k_anonymous () =
  let t = sample 100 in
  let release = Kanon.Mondrian.anonymize ~k:5 t in
  Alcotest.(check bool) "invariant" true (Kanon.Anonymizer.is_k_anonymous ~k:5 release);
  Alcotest.(check int) "row count preserved" 100 (Dataset.Gtable.nrows release)

let test_mondrian_covers_source_rows () =
  let t = sample 60 in
  let release = Kanon.Mondrian.anonymize ~k:3 t in
  T.iter
    (fun i row ->
      if not (Dataset.Gtable.matches_row (Dataset.Gtable.row release i) row) then
        Alcotest.failf "row %d not covered by its released form" i)
    t

let test_mondrian_classes_disjoint () =
  (* No source row may fall under another class's QI description —
     partitions are boxes along the split path. *)
  let t = sample 80 in
  let release = Kanon.Mondrian.anonymize ~k:4 t in
  let classes = Dataset.Gtable.classes_on release qis in
  let keep = List.map (S.index_of schema) qis in
  List.iter
    (fun c ->
      let expected = Array.length c.Dataset.Gtable.members in
      let matches =
        T.count
          (fun row ->
            List.for_all (fun j -> G.matches c.Dataset.Gtable.rep.(j) row.(j)) keep)
          t
      in
      Alcotest.(check int) "class matches exactly its members" expected matches)
    classes

let test_mondrian_member_level_keeps_retained_exact () =
  let t = sample 40 in
  let release = Kanon.Mondrian.anonymize ~recoding:Kanon.Mondrian.Member_level ~k:4 t in
  let j = S.index_of schema "r1" in
  T.iter
    (fun i row ->
      if not (G.equal (Dataset.Gtable.row release i).(j) (G.Exact row.(j))) then
        Alcotest.fail "retained cell not exact under member-level recoding")
    t

let test_mondrian_class_level_shares_cells () =
  let t = sample 40 in
  let release = Kanon.Mondrian.anonymize ~recoding:Kanon.Mondrian.Class_level ~k:4 t in
  List.iter
    (fun c ->
      let rows = Dataset.Gtable.rows release in
      Array.iter
        (fun i ->
          if not (Array.for_all2 G.equal rows.(i) c.Dataset.Gtable.rep) then
            Alcotest.fail "class-level rows differ within class")
        c.Dataset.Gtable.members)
    (Dataset.Gtable.classes_on release qis)

let test_mondrian_k_too_large () =
  Alcotest.check_raises "k > n" (Invalid_argument "Mondrian.anonymize: fewer than k rows")
    (fun () -> ignore (Kanon.Mondrian.anonymize ~k:10 (sample 5)))

let test_mondrian_higher_k_fewer_classes () =
  let t = sample 100 in
  let classes k =
    List.length (Dataset.Gtable.classes_on (Kanon.Mondrian.anonymize ~k t) qis)
  in
  Alcotest.(check bool) "monotone" true (classes 2 >= classes 10)

let counter name =
  List.fold_left
    (fun acc ((m : Obs.Metric.meta), v) ->
      if m.Obs.Metric.name = name then v else acc)
    0
    (Obs.Metric.values ()).Obs.Metric.v_counters

(* [kanon.generalization_steps] counts every successful Mondrian split,
   at either cut: on a Null-free table each split adds one class, so the
   count is the number of QI classes minus one. Datafly's count is one per
   hierarchy level climbed. *)
let test_generalization_steps_counted () =
  let steps = "kanon.generalization_steps" in
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      List.iter
        (fun (n, k) ->
          let t = sample n in
          let before = counter steps in
          let release = Kanon.Mondrian.anonymize ~k t in
          let classes = List.length (Dataset.Gtable.classes_on release qis) in
          Alcotest.(check int)
            (Printf.sprintf "mondrian n=%d k=%d" n k)
            (classes - 1)
            (counter steps - before))
        [ (100, 5); (60, 3); (40, 1); (30, 7) ];
      let before = counter steps in
      let result = Kanon.Datafly.anonymize ~scheme:int_scheme ~k:4 (sample 100) in
      Alcotest.(check int) "datafly: one per level climbed"
        (List.fold_left (fun acc (_, l) -> acc + l) 0 result.Kanon.Datafly.levels)
        (counter steps - before))

(* Allocation guards on pso-audit's table shape (120 rows, 6 QIs, 42
   retained attributes). Each run gets a fresh table, so the QI columns
   Mondrian ranks are built inside the measurement, as in a game trial. *)
let pso_model = Dataset.Synth.kanon_pso_model ~qis:6 ~retained:42 ~domain:64

let pso_table () = Dataset.Model.sample_table (Prob.Rng.create ~seed:27L ()) pso_model 120

let minor_words f =
  let before = Gc.minor_words () in
  let x = f () in
  (Gc.minor_words () -. before, x)

let test_mondrian_allocation () =
  List.iter
    (fun (name, recoding) ->
      let t = pso_table () in
      let words, _ = minor_words (fun () -> Kanon.Mondrian.anonymize ~recoding ~k:5 t) in
      if words > 60_000. then
        Alcotest.failf "%s Mondrian allocated %.0f minor words (limit 60000)" name words)
    [ ("member-level", Kanon.Mondrian.Member_level); ("class-level", Kanon.Mondrian.Class_level) ]

let test_classes_allocation () =
  let release = Kanon.Mondrian.anonymize ~k:5 (pso_table ()) in
  let qis = S.with_role (Dataset.Model.schema pso_model) S.Quasi_identifier in
  let words, classes = minor_words (fun () -> Dataset.Gtable.classes_on release qis) in
  Alcotest.(check bool) "several classes" true (List.length classes > 5);
  if words > 15_000. then
    Alcotest.failf "classes_on allocated %.0f minor words (limit 15000)" words

(* --- Datafly --- *)

let test_datafly_k_anonymous () =
  let t = sample 100 in
  let result = Kanon.Datafly.anonymize ~scheme:int_scheme ~k:4 t in
  Alcotest.(check bool) "invariant" true
    (Kanon.Anonymizer.is_k_anonymous ~k:4 result.Kanon.Datafly.release);
  Alcotest.(check bool) "suppression within budget" true
    (result.Kanon.Datafly.suppressed <= 5)

let test_datafly_levels_reported () =
  let t = sample 100 in
  let result = Kanon.Datafly.anonymize ~scheme:int_scheme ~k:4 t in
  Alcotest.(check int) "one level per QI" (List.length qis)
    (List.length result.Kanon.Datafly.levels)

let test_datafly_missing_hierarchy () =
  Alcotest.(check bool) "missing hierarchy rejected" true
    (try
       ignore (Kanon.Datafly.anonymize ~scheme:[] ~k:2 (sample 10));
       false
     with Invalid_argument _ -> true)

(* --- Samarati --- *)

let test_samarati_k_anonymous_and_minimal () =
  let t = sample 80 in
  let result = Kanon.Samarati.anonymize ~scheme:int_scheme ~k:4 t in
  Alcotest.(check bool) "invariant" true
    (Kanon.Anonymizer.is_k_anonymous ~k:4 result.Kanon.Samarati.release);
  (* Heights strictly below the found one must be infeasible... verified
     indirectly: height is within lattice bounds. *)
  Alcotest.(check bool) "height sane" true
    (result.Kanon.Samarati.height >= 0
    && result.Kanon.Samarati.height <= 4 * List.length qis)

let test_samarati_height_not_above_datafly () =
  (* Samarati searches for the minimum total height; Datafly is greedy, so
     Samarati's height is never larger. *)
  let t = sample 80 in
  let s = Kanon.Samarati.anonymize ~scheme:int_scheme ~k:4 t in
  let d = Kanon.Datafly.anonymize ~scheme:int_scheme ~k:4 t in
  let d_height = List.fold_left (fun acc (_, l) -> acc + l) 0 d.Kanon.Datafly.levels in
  Alcotest.(check bool) "samarati <= datafly height" true
    (s.Kanon.Samarati.height <= d_height)

(* --- Incognito --- *)

let test_incognito_frontier_sound () =
  let t = sample 80 in
  let result = Kanon.Incognito.anonymize ~scheme:int_scheme ~k:4 t in
  (* The chosen release is k-anonymous with zero suppression. *)
  Alcotest.(check bool) "release k-anonymous" true
    (Kanon.Anonymizer.is_k_anonymous ~k:4 result.Kanon.Incognito.release);
  Alcotest.(check int) "no suppression" 0
    (Kanon.Metrics.suppressed_rows result.Kanon.Incognito.release);
  Alcotest.(check bool) "frontier non-empty" true
    (result.Kanon.Incognito.frontier <> []);
  (* Frontier nodes are pairwise incomparable (all minimal). *)
  let nodes =
    List.map (fun levels -> List.map snd levels) result.Kanon.Incognito.frontier
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i <> j && Kanon.Incognito.dominates a b then
            Alcotest.fail "frontier contains comparable nodes")
        nodes)
    nodes

let test_incognito_frontier_nodes_all_satisfy () =
  let t = sample 60 in
  let result = Kanon.Incognito.anonymize ~scheme:int_scheme ~k:3 t in
  List.iter
    (fun levels ->
      let release = Kanon.Generalization.full_domain schema int_scheme ~levels t in
      Alcotest.(check bool) "frontier node satisfies" true
        (Dataset.Gtable.min_class_size_on release qis >= 3))
    result.Kanon.Incognito.frontier

let test_incognito_min_height_matches_samarati () =
  (* Samarati(no suppression) finds a minimum-height satisfying node; the
     Incognito frontier must contain a node at exactly that height. *)
  let t = sample 60 in
  let inc = Kanon.Incognito.anonymize ~scheme:int_scheme ~k:3 t in
  let sam = Kanon.Samarati.anonymize ~scheme:int_scheme ~k:3 ~max_suppression:0. t in
  let heights =
    List.map
      (fun levels -> List.fold_left (fun acc (_, l) -> acc + l) 0 levels)
      inc.Kanon.Incognito.frontier
  in
  Alcotest.(check int) "min frontier height = samarati height"
    sam.Kanon.Samarati.height
    (List.fold_left min max_int heights)

let test_incognito_pruning_saves_work () =
  let t = sample 60 in
  let result = Kanon.Incognito.anonymize ~scheme:int_scheme ~k:3 t in
  let lattice_size =
    List.fold_left
      (fun acc (_, h) -> acc * Dataset.Hierarchy.height h)
      1 int_scheme
  in
  Alcotest.(check bool)
    (Printf.sprintf "tested %d < lattice %d" result.Kanon.Incognito.tested lattice_size)
    true
    (result.Kanon.Incognito.tested < lattice_size)

let test_incognito_infeasible_k () =
  Alcotest.(check bool) "k > n rejected" true
    (try
       ignore (Kanon.Incognito.anonymize ~scheme:int_scheme ~k:100 (sample 10));
       false
     with Invalid_argument _ -> true)

(* --- Metrics --- *)

let test_metrics_discernibility_monotone_in_k () =
  let t = sample 100 in
  let disc k =
    Kanon.Metrics.discernibility ~qis (Kanon.Mondrian.anonymize ~k t)
  in
  Alcotest.(check bool) "higher k, higher discernibility" true (disc 10 >= disc 2)

let test_metrics_average_class_size () =
  let t = sample 100 in
  let release = Kanon.Mondrian.anonymize ~k:5 t in
  let avg = Kanon.Metrics.average_class_size ~qis release in
  Alcotest.(check bool) "at least k" true (avg >= 5.)

let test_metrics_suppressed_rows () =
  let t = sample 10 in
  let release = Kanon.Mondrian.anonymize ~k:2 t in
  let suppressed = Kanon.Generalization.suppress_rows release [| 0; 3 |] in
  Alcotest.(check int) "counted" 2 (Kanon.Metrics.suppressed_rows suppressed)

let test_metrics_generalization_intensity () =
  let t = sample 30 in
  let member = Kanon.Mondrian.anonymize ~recoding:Kanon.Mondrian.Member_level ~k:3 t in
  let class_ = Kanon.Mondrian.anonymize ~recoding:Kanon.Mondrian.Class_level ~k:3 t in
  Alcotest.(check bool) "class-level coarser" true
    (Kanon.Metrics.generalization_intensity class_
    >= Kanon.Metrics.generalization_intensity member)

(* --- Diversity --- *)

let diversity_fixture () =
  (* Two classes: one with diverse sensitive values, one uniform. *)
  let s =
    S.make
      [
        { S.name = "q"; kind = V.Kint; role = S.Quasi_identifier };
        { S.name = "dx"; kind = V.Kstring; role = S.Sensitive };
      ]
  in
  let t =
    T.make s
      [|
        [| V.Int 1; V.String "flu" |];
        [| V.Int 2; V.String "cold" |];
        [| V.Int 11; V.String "flu" |];
        [| V.Int 12; V.String "flu" |];
      |]
  in
  let gt =
    Dataset.Gtable.make s
      [|
        [| G.Int_range (0, 9); G.Exact (V.String "flu") |];
        [| G.Int_range (0, 9); G.Exact (V.String "cold") |];
        [| G.Int_range (10, 19); G.Exact (V.String "flu") |];
        [| G.Int_range (10, 19); G.Exact (V.String "flu") |];
      |]
  in
  (t, gt)

let test_l_diversity () =
  let t, gt = diversity_fixture () in
  Alcotest.(check int) "worst class has 1 distinct" 1
    (Kanon.Diversity.l_diversity ~qis:[ "q" ] ~sensitive:"dx" gt t)

let test_t_closeness () =
  let t, gt = diversity_fixture () in
  let tc = Kanon.Diversity.t_closeness ~qis:[ "q" ] ~sensitive:"dx" gt t in
  (* Global: 3/4 flu. Worst class: all flu -> TV = 1/4. *)
  Alcotest.(check (float 1e-9)) "worst-class TV" 0.25 tc

let ordered_fixture () =
  (* Sensitive salaries 1..4; one class holds the extremes' low end. *)
  let s =
    S.make
      [
        { S.name = "q"; kind = V.Kint; role = S.Quasi_identifier };
        { S.name = "salary"; kind = V.Kint; role = S.Sensitive };
      ]
  in
  let t =
    T.make s
      [|
        [| V.Int 1; V.Int 1 |];
        [| V.Int 2; V.Int 2 |];
        [| V.Int 11; V.Int 3 |];
        [| V.Int 12; V.Int 4 |];
      |]
  in
  let gt =
    Dataset.Gtable.make s
      [|
        [| G.Int_range (0, 9); G.Exact (V.Int 1) |];
        [| G.Int_range (0, 9); G.Exact (V.Int 2) |];
        [| G.Int_range (10, 19); G.Exact (V.Int 3) |];
        [| G.Int_range (10, 19); G.Exact (V.Int 4) |];
      |]
  in
  (t, gt)

let test_t_closeness_ordered () =
  let t, gt = ordered_fixture () in
  (* Global = uniform on {1,2,3,4}; class {1,2}: prefix sums of p-q are
     (1/4, 1/2, 1/4) -> EMD = 1/3. *)
  Alcotest.(check (float 1e-9)) "ordered EMD" (1. /. 3.)
    (Kanon.Diversity.t_closeness_ordered ~qis:[ "q" ] ~sensitive:"salary" gt t)

let test_t_closeness_ordered_exceeds_tv_for_shifts () =
  (* Both classes have TV 1/2 from the global, but the ordered metric sees
     the low class as a concentrated shift: EMD > ... confirms the two
     metrics genuinely differ on ordered data. *)
  let t, gt = ordered_fixture () in
  let tv = Kanon.Diversity.t_closeness ~qis:[ "q" ] ~sensitive:"salary" gt t in
  let ordered =
    Kanon.Diversity.t_closeness_ordered ~qis:[ "q" ] ~sensitive:"salary" gt t
  in
  Alcotest.(check (float 1e-9)) "tv value" 0.5 tv;
  Alcotest.(check bool) "metrics differ" true (Float.abs (tv -. ordered) > 0.05)

let test_enforce_l_diversity () =
  let t, gt = diversity_fixture () in
  let upgraded =
    Kanon.Diversity.enforce_l_diversity ~qis:[ "q" ] ~sensitive:"dx" ~l:2 gt t
  in
  (* The uniform class must now be suppressed. *)
  Alcotest.(check int) "two rows suppressed" 2
    (Kanon.Metrics.suppressed_rows upgraded);
  Alcotest.(check int) "remaining classes are 2-diverse" 2
    (Kanon.Diversity.l_diversity ~qis:[ "q" ] ~sensitive:"dx" upgraded t)

(* --- Anonymizer front-end --- *)

let test_anonymizer_mechanism () =
  let config =
    {
      Kanon.Anonymizer.algorithm = Kanon.Anonymizer.Datafly;
      k = 4;
      scheme = int_scheme;
      max_suppression = 0.05;
      recoding = Kanon.Mondrian.Member_level;
    }
  in
  let m = Kanon.Anonymizer.mechanism config in
  match Query.Mechanism.run m (rng ()) (sample 60) with
  | Query.Mechanism.Generalized g ->
    Alcotest.(check bool) "mechanism output k-anonymous" true
      (Kanon.Anonymizer.is_k_anonymous ~k:4 g)
  | _ -> Alcotest.fail "expected generalized output"

(* --- QCheck properties --- *)

let qcheck =
  let open QCheck in
  [
    Test.make ~name:"mondrian releases are k-anonymous (forall seed, k)"
      ~count:40
      (pair (int_range 1 1000) (int_range 1 8))
      (fun (seed, k) ->
        let r = Prob.Rng.create ~seed:(Int64.of_int seed) () in
        let t = Dataset.Model.sample_table r model (40 + (k * 4)) in
        Kanon.Anonymizer.is_k_anonymous ~k (Kanon.Mondrian.anonymize ~k t));
    Test.make ~name:"datafly releases are k-anonymous (forall seed, k)"
      ~count:25
      (pair (int_range 1 1000) (int_range 1 6))
      (fun (seed, k) ->
        let r = Prob.Rng.create ~seed:(Int64.of_int seed) () in
        let t = Dataset.Model.sample_table r model (40 + (k * 4)) in
        Kanon.Anonymizer.is_k_anonymous ~k
          (Kanon.Datafly.anonymize ~scheme:int_scheme ~k t).Kanon.Datafly.release);
    Test.make ~name:"mondrian released rows cover their sources" ~count:25
      (int_range 1 1000) (fun seed ->
        let r = Prob.Rng.create ~seed:(Int64.of_int seed) () in
        let t = Dataset.Model.sample_table r model 50 in
        let release = Kanon.Mondrian.anonymize ~k:3 t in
        let ok = ref true in
        T.iter
          (fun i row ->
            if not (Dataset.Gtable.matches_row (Dataset.Gtable.row release i) row)
            then ok := false)
          t;
        !ok);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "kanon"
    [
      ( "cover",
        [
          Alcotest.test_case "exact when equal" `Quick test_cover_exact_when_equal;
          Alcotest.test_case "int range" `Quick test_cover_int_range;
          Alcotest.test_case "string prefix" `Quick test_cover_string_prefix;
          Alcotest.test_case "no common prefix" `Quick test_cover_no_common_prefix;
          Alcotest.test_case "hierarchy" `Quick test_cover_hierarchy;
          Alcotest.test_case "hierarchy cross group" `Quick
            test_cover_hierarchy_cross_group;
          Alcotest.test_case "empty rejected" `Quick test_cover_empty_rejected;
        ] );
      ( "full-domain",
        [
          Alcotest.test_case "levels applied" `Quick test_full_domain_levels;
          Alcotest.test_case "unlisted exact" `Quick test_full_domain_keeps_unlisted_exact;
          Alcotest.test_case "suppress rows" `Quick test_suppress_rows;
        ] );
      ( "mondrian",
        [
          Alcotest.test_case "k-anonymous" `Quick test_mondrian_k_anonymous;
          Alcotest.test_case "covers source rows" `Quick test_mondrian_covers_source_rows;
          Alcotest.test_case "classes disjoint" `Quick test_mondrian_classes_disjoint;
          Alcotest.test_case "member-level exact" `Quick
            test_mondrian_member_level_keeps_retained_exact;
          Alcotest.test_case "class-level shared" `Quick
            test_mondrian_class_level_shares_cells;
          Alcotest.test_case "k too large" `Quick test_mondrian_k_too_large;
          Alcotest.test_case "higher k fewer classes" `Quick
            test_mondrian_higher_k_fewer_classes;
          Alcotest.test_case "generalization steps counted" `Quick
            test_generalization_steps_counted;
          Alcotest.test_case "allocation" `Quick test_mondrian_allocation;
          Alcotest.test_case "classes allocation" `Quick test_classes_allocation;
        ] );
      ( "datafly",
        [
          Alcotest.test_case "k-anonymous" `Quick test_datafly_k_anonymous;
          Alcotest.test_case "levels reported" `Quick test_datafly_levels_reported;
          Alcotest.test_case "missing hierarchy" `Quick test_datafly_missing_hierarchy;
        ] );
      ( "samarati",
        [
          Alcotest.test_case "k-anonymous and minimal" `Quick
            test_samarati_k_anonymous_and_minimal;
          Alcotest.test_case "height <= datafly" `Quick
            test_samarati_height_not_above_datafly;
        ] );
      ( "incognito",
        [
          Alcotest.test_case "frontier sound" `Quick test_incognito_frontier_sound;
          Alcotest.test_case "frontier nodes satisfy" `Quick
            test_incognito_frontier_nodes_all_satisfy;
          Alcotest.test_case "min height matches samarati" `Quick
            test_incognito_min_height_matches_samarati;
          Alcotest.test_case "pruning saves work" `Quick
            test_incognito_pruning_saves_work;
          Alcotest.test_case "infeasible k" `Quick test_incognito_infeasible_k;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "discernibility monotone" `Quick
            test_metrics_discernibility_monotone_in_k;
          Alcotest.test_case "average class size" `Quick test_metrics_average_class_size;
          Alcotest.test_case "suppressed rows" `Quick test_metrics_suppressed_rows;
          Alcotest.test_case "generalization intensity" `Quick
            test_metrics_generalization_intensity;
        ] );
      ( "diversity",
        [
          Alcotest.test_case "l-diversity" `Quick test_l_diversity;
          Alcotest.test_case "t-closeness" `Quick test_t_closeness;
          Alcotest.test_case "t-closeness ordered" `Quick test_t_closeness_ordered;
          Alcotest.test_case "ordered vs tv" `Quick
            test_t_closeness_ordered_exceeds_tv_for_shifts;
          Alcotest.test_case "enforce l-diversity" `Quick test_enforce_l_diversity;
        ] );
      ( "front-end",
        [ Alcotest.test_case "mechanism" `Quick test_anonymizer_mechanism ] );
      ("properties", qcheck);
    ]
