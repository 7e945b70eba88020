(* Tests for the legal layer: sources, the concept graph, bridge transfer
   direction, legal-theorem derivations (including the refusal rules), the
   WP29 comparison, reports, and the HIPAA safe-harbor redactor. *)

let rng () = Prob.Rng.create ~seed:2016L ()

let quick_params = { Pso.Theorems.n = 60; trials = 30; weight_exponent = 2. }

(* Hand-built verdicts so derivation tests do not depend on game runs. *)
let verdict ~id ~holds =
  {
    Pso.Theorems.id;
    title = "test";
    statement = "test";
    expectation = "test";
    measured = [];
    holds;
  }

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* --- Sources --- *)

let test_sources_complete () =
  Alcotest.(check int) "nine sources" 9 (List.length Legal.Source.all);
  List.iter
    (fun s ->
      Alcotest.(check bool) "non-empty quote" true (String.length s.Legal.Source.quote > 0);
      Alcotest.(check bool) "non-empty id" true (String.length s.Legal.Source.id > 0))
    Legal.Source.all

let test_sources_ids_unique () =
  let ids = List.map (fun s -> s.Legal.Source.id) Legal.Source.all in
  Alcotest.(check int) "unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_recital_26_mentions_singling_out () =
  Alcotest.(check bool) "the operative phrase is quoted" true
    (contains ~needle:"singling out" Legal.Source.gdpr_recital_26.Legal.Source.quote)

(* --- Concepts --- *)

let test_concept_chain () =
  Alcotest.(check bool) "singling out -> identifiability" true
    (Legal.Concept.enables_transitively Legal.Concept.Singling_out
       Legal.Concept.Identifiability);
  Alcotest.(check bool) "singling out -> personal data" true
    (Legal.Concept.enables_transitively Legal.Concept.Singling_out
       Legal.Concept.Personal_data);
  Alcotest.(check bool) "no reverse implication" false
    (Legal.Concept.enables_transitively Legal.Concept.Personal_data
       Legal.Concept.Singling_out)

let test_concept_reflexive () =
  Alcotest.(check bool) "reflexive" true
    (Legal.Concept.enables_transitively Legal.Concept.Inference
       Legal.Concept.Inference)

let test_anonymity_requirements () =
  Alcotest.(check bool) "singling out must be prevented" true
    (Legal.Concept.anonymity_requires_preventing Legal.Concept.Singling_out);
  Alcotest.(check bool) "personal data is not a means" false
    (Legal.Concept.anonymity_requires_preventing Legal.Concept.Personal_data)

(* --- Bridges --- *)

let test_bridge_directions () =
  Alcotest.(check bool) "B1 transfers failures" true
    (Legal.Bridge.failure_transfers Legal.Bridge.pso_to_gdpr_singling_out);
  Alcotest.(check bool) "B1 does not transfer successes" false
    (Legal.Bridge.success_transfers Legal.Bridge.pso_to_gdpr_singling_out);
  Alcotest.(check bool) "B2 transfers failures" true
    (Legal.Bridge.failure_transfers Legal.Bridge.singling_out_to_anonymization)

(* --- Theorem derivations --- *)

let test_kanon_theorem_established () =
  let t =
    Legal.Theorem.kanon_fails_gdpr ~variant:Legal.Technology.K_anonymity
      (verdict ~id:"Theorem 2.10" ~holds:true)
  in
  Alcotest.(check bool) "fails standard" true
    (t.Legal.Theorem.standing = Legal.Theorem.Fails_standard);
  Alcotest.(check bool) "cites recital 26" true
    (List.exists
       (function
         | Legal.Theorem.Legal_text s -> s.Legal.Source.id = "GDPR-Rec26"
         | _ -> false)
       t.Legal.Theorem.premises);
  Alcotest.(check bool) "falsifiability recorded" true
    (String.length t.Legal.Theorem.falsifiable_by > 0)

let test_kanon_theorem_undetermined_on_refuted_premise () =
  let t =
    Legal.Theorem.kanon_fails_gdpr ~variant:Legal.Technology.L_diversity
      (verdict ~id:"Theorem 2.10" ~holds:false)
  in
  Alcotest.(check bool) "undetermined" true
    (t.Legal.Theorem.standing = Legal.Theorem.Undetermined)

let test_kanon_theorem_rejects_non_family () =
  Alcotest.check_raises "dp is not a k-anon variant"
    (Invalid_argument "Theorem.kanon_fails_gdpr: not a k-anonymity variant")
    (fun () ->
      ignore
        (Legal.Theorem.kanon_fails_gdpr ~variant:Legal.Technology.Differential_privacy
           (verdict ~id:"x" ~holds:true)))

let test_corollary_adds_bridge () =
  let t =
    Legal.Theorem.kanon_fails_anonymization ~variant:Legal.Technology.K_anonymity
      (verdict ~id:"Theorem 2.10" ~holds:true)
  in
  let bridges =
    List.filter
      (function Legal.Theorem.Bridging _ -> true | _ -> false)
      t.Legal.Theorem.premises
  in
  Alcotest.(check int) "two bridges (B1 and B2)" 2 (List.length bridges)

let test_dp_gets_only_necessary_condition () =
  let t = Legal.Theorem.dp_necessary_condition (verdict ~id:"Theorem 2.9" ~holds:true) in
  Alcotest.(check bool) "necessary condition, never a pass" true
    (t.Legal.Theorem.standing = Legal.Theorem.Necessary_condition_met);
  let t' = Legal.Theorem.dp_necessary_condition (verdict ~id:"Theorem 2.9" ~holds:false) in
  Alcotest.(check bool) "undetermined when premise fails" true
    (t'.Legal.Theorem.standing = Legal.Theorem.Undetermined)

let test_count_caveat_needs_both () =
  let good = verdict ~id:"x" ~holds:true and bad = verdict ~id:"y" ~holds:false in
  let both = Legal.Theorem.count_release_caveat good good in
  let half = Legal.Theorem.count_release_caveat good bad in
  Alcotest.(check bool) "both premises" true
    (both.Legal.Theorem.standing = Legal.Theorem.Necessary_condition_met);
  Alcotest.(check bool) "one refuted" true
    (half.Legal.Theorem.standing = Legal.Theorem.Undetermined)

let test_raw_release_anchor () =
  Alcotest.(check bool) "raw release fails with no technical premise" true
    (Legal.Theorem.raw_release_fails.Legal.Theorem.standing
    = Legal.Theorem.Fails_standard)

(* --- WP29 comparison --- *)

let test_wp29_conflicts () =
  let kanon = verdict ~id:"Theorem 2.10" ~holds:true in
  let dp = verdict ~id:"Theorem 2.9" ~holds:true in
  let rows = Legal.Wp29.comparison ~kanon ~dp in
  Alcotest.(check int) "four technologies" 4 (List.length rows);
  (* All four rows conflict with the WP29 opinion — the paper's point. *)
  List.iter
    (fun r -> Alcotest.(check bool) "conflict" true r.Legal.Wp29.conflict)
    rows

let test_wp29_no_conflict_without_evidence () =
  let kanon = verdict ~id:"Theorem 2.10" ~holds:false in
  let dp = verdict ~id:"Theorem 2.9" ~holds:false in
  let rows = Legal.Wp29.comparison ~kanon ~dp in
  (* With refuted premises our side becomes "may not", matching WP29 on DP. *)
  let dp_row =
    List.find
      (fun r -> r.Legal.Wp29.technology = Legal.Technology.Differential_privacy)
      rows
  in
  Alcotest.(check bool) "dp agrees when unproven" false dp_row.Legal.Wp29.conflict

let test_wp29_assessments () =
  Alcotest.(check bool) "k-anon assessed no-risk" true
    (Legal.Wp29.wp29_assessment Legal.Technology.K_anonymity = Some Legal.Wp29.No_risk);
  Alcotest.(check bool) "raw release not assessed" true
    (Legal.Wp29.wp29_assessment Legal.Technology.Raw_release = None)

(* --- Report --- *)

let test_report_structure () =
  let report = Legal.Report.build ~context:"unit test" (rng ()) quick_params in
  Alcotest.(check int) "seven verdicts" 7 (List.length report.Legal.Report.verdicts);
  (* 1 anchor + 3 variants x 2 + dp + count caveat = 9 theorems. *)
  Alcotest.(check int) "nine legal theorems" 9 (List.length report.Legal.Report.theorems);
  Alcotest.(check int) "four comparison rows" 4 (List.length report.Legal.Report.comparison);
  let text = Format.asprintf "%a" Legal.Report.pp report in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report mentions %s" needle) true
        (contains ~needle text))
    [ "Legal Theorem 2.1"; "Legal Corollary 2.1"; "Working Party"; "falsifiable" ]

let test_report_missing_verdict_rejected () =
  Alcotest.(check bool) "missing verdict rejected" true
    (try
       ignore (Legal.Report.of_verdicts [ verdict ~id:"Theorem 2.5" ~holds:true ]);
       false
     with Invalid_argument _ -> true)

(* --- Safe harbor --- *)

let test_safe_harbor_redaction () =
  let population = Dataset.Synth.population (rng ()) ~n:50 () in
  let release = Legal.Safe_harbor.deidentify population in
  let schema = Dataset.Gtable.schema release in
  let name_j = Dataset.Schema.index_of schema "name" in
  let zip_j = Dataset.Schema.index_of schema "zip" in
  let date_j = Dataset.Schema.index_of schema "birth_date" in
  Array.iteri
    (fun i grow ->
      (match grow.(name_j) with
      | Dataset.Gvalue.Any -> ()
      | _ -> Alcotest.fail "name not suppressed");
      (match grow.(zip_j) with
      | Dataset.Gvalue.Prefix (_, 3) -> ()
      | g -> Alcotest.failf "zip not 3-prefixed: %s" (Dataset.Gvalue.to_string g));
      match grow.(date_j) with
      | Dataset.Gvalue.Int_range (lo, hi) ->
        let d = Dataset.Table.value population i "birth_date" in
        let o = match d with Dataset.Value.Date dd -> Dataset.Value.date_ordinal dd | _ -> -1 in
        if o < lo || o > hi then Alcotest.fail "year range misses the date"
      | g -> Alcotest.failf "date not year-ranged: %s" (Dataset.Gvalue.to_string g))
    (Dataset.Gtable.rows release)

let test_safe_harbor_release_table () =
  let population = Dataset.Synth.population (rng ()) ~n:30 () in
  let flat = Legal.Safe_harbor.release_table (Legal.Safe_harbor.deidentify population) in
  Alcotest.(check int) "rows preserved" 30 (Dataset.Table.nrows flat);
  (* Redaction reduces quasi-identifier uniqueness. *)
  let full = Attacks.Linkage.unique_fraction (Dataset.Synth.gic_release population)
      ~on:[ "zip"; "birth_date"; "sex" ]
  in
  let redacted =
    Attacks.Linkage.unique_fraction flat ~on:[ "zip"; "birth_date"; "sex" ]
  in
  Alcotest.(check bool) "uniqueness reduced" true (redacted <= full)

(* --- Determinations (HIPAA safe harbor / Title 13) --- *)

let test_safe_harbor_determination_material () =
  let t = Legal.Determinations.safe_harbor ~reidentification_rate:0.33 ~population:2000 in
  Alcotest.(check bool) "fails" true
    (t.Legal.Theorem.standing = Legal.Theorem.Fails_standard);
  Alcotest.(check bool) "about safe harbor" true
    (t.Legal.Theorem.about = Legal.Technology.Hipaa_safe_harbor);
  Alcotest.(check bool) "cites HIPAA" true
    (List.exists
       (function
         | Legal.Theorem.Legal_text s -> s.Legal.Source.id = "HIPAA"
         | _ -> false)
       t.Legal.Theorem.premises)

let test_safe_harbor_determination_immaterial () =
  let t =
    Legal.Determinations.safe_harbor ~reidentification_rate:0.0002 ~population:1_000_000
  in
  Alcotest.(check bool) "necessary condition met" true
    (t.Legal.Theorem.standing = Legal.Theorem.Necessary_condition_met)

let test_title_13_determination () =
  let violated = Legal.Determinations.title_13 ~confirmed_rate:0.18 ~prior_estimate:0.00003 in
  Alcotest.(check bool) "violated" true
    (violated.Legal.Theorem.standing = Legal.Theorem.Fails_standard);
  let ok = Legal.Determinations.title_13 ~confirmed_rate:0.00005 ~prior_estimate:0.00003 in
  Alcotest.(check bool) "within estimate" true
    (ok.Legal.Theorem.standing = Legal.Theorem.Undetermined)

let test_erasure_determination () =
  let bad = Legal.Determinations.erasure ~server:"cached" ~respected:false in
  Alcotest.(check bool) "retention fails Article 17" true
    (bad.Legal.Theorem.standing = Legal.Theorem.Fails_standard);
  let good = Legal.Determinations.erasure ~server:"recompute" ~respected:true in
  Alcotest.(check bool) "compliance acknowledged" true
    (good.Legal.Theorem.standing = Legal.Theorem.Necessary_condition_met);
  Alcotest.(check bool) "cites Article 17" true
    (List.exists
       (function
         | Legal.Theorem.Legal_text s -> s.Legal.Source.id = "GDPR-Art17"
         | _ -> false)
       bad.Legal.Theorem.premises)

let test_erasure_end_to_end () =
  (* Server -> isolation check -> legal determination, in one breath. *)
  let model = Dataset.Synth.kanon_pso_model ~qis:4 ~retained:6 ~domain:16 in
  let table = Dataset.Model.sample_table (rng ()) model 50 in
  let run implementation =
    let s = Query.Erasure.create implementation table in
    Query.Erasure.erase s 7;
    let respected = Query.Erasure.verify_erasure s 7 in
    (Legal.Determinations.erasure ~server:"s" ~respected).Legal.Theorem.standing
  in
  Alcotest.(check bool) "recompute passes" true
    (run Query.Erasure.Recompute = Legal.Theorem.Necessary_condition_met);
  Alcotest.(check bool) "cached fails" true
    (run Query.Erasure.Cached = Legal.Theorem.Fails_standard)

let test_determination_renders () =
  let t = Legal.Determinations.title_13 ~confirmed_rate:0.18 ~prior_estimate:0.00003 in
  let text = Format.asprintf "%a" Legal.Theorem.pp t in
  Alcotest.(check bool) "mentions Title13" true (contains ~needle:"Title13" text)

(* --- Technology --- *)

let test_technology_family () =
  Alcotest.(check bool) "k-anon in family" true
    (Legal.Technology.kanon_family Legal.Technology.K_anonymity);
  Alcotest.(check bool) "t-closeness in family" true
    (Legal.Technology.kanon_family Legal.Technology.T_closeness);
  Alcotest.(check bool) "dp not in family" false
    (Legal.Technology.kanon_family Legal.Technology.Differential_privacy)

let () =
  Alcotest.run "legal"
    [
      ( "sources",
        [
          Alcotest.test_case "complete" `Quick test_sources_complete;
          Alcotest.test_case "ids unique" `Quick test_sources_ids_unique;
          Alcotest.test_case "recital 26 quotes singling out" `Quick
            test_recital_26_mentions_singling_out;
        ] );
      ( "concepts",
        [
          Alcotest.test_case "chain" `Quick test_concept_chain;
          Alcotest.test_case "reflexive" `Quick test_concept_reflexive;
          Alcotest.test_case "anonymity requirements" `Quick test_anonymity_requirements;
        ] );
      ( "bridges",
        [ Alcotest.test_case "directions" `Quick test_bridge_directions ] );
      ( "theorems",
        [
          Alcotest.test_case "kanon established" `Quick test_kanon_theorem_established;
          Alcotest.test_case "undetermined on refuted premise" `Quick
            test_kanon_theorem_undetermined_on_refuted_premise;
          Alcotest.test_case "rejects non-family" `Quick test_kanon_theorem_rejects_non_family;
          Alcotest.test_case "corollary adds bridge" `Quick test_corollary_adds_bridge;
          Alcotest.test_case "dp necessary condition only" `Quick
            test_dp_gets_only_necessary_condition;
          Alcotest.test_case "count caveat needs both" `Quick test_count_caveat_needs_both;
          Alcotest.test_case "raw release anchor" `Quick test_raw_release_anchor;
        ] );
      ( "wp29",
        [
          Alcotest.test_case "conflicts" `Quick test_wp29_conflicts;
          Alcotest.test_case "no conflict without evidence" `Quick
            test_wp29_no_conflict_without_evidence;
          Alcotest.test_case "assessments" `Quick test_wp29_assessments;
        ] );
      ( "report",
        [
          Alcotest.test_case "structure" `Slow test_report_structure;
          Alcotest.test_case "missing verdict rejected" `Quick
            test_report_missing_verdict_rejected;
        ] );
      ( "safe harbor",
        [
          Alcotest.test_case "redaction" `Quick test_safe_harbor_redaction;
          Alcotest.test_case "release table" `Quick test_safe_harbor_release_table;
        ] );
      ( "determinations",
        [
          Alcotest.test_case "safe harbor material" `Quick
            test_safe_harbor_determination_material;
          Alcotest.test_case "safe harbor immaterial" `Quick
            test_safe_harbor_determination_immaterial;
          Alcotest.test_case "title 13" `Quick test_title_13_determination;
          Alcotest.test_case "erasure" `Quick test_erasure_determination;
          Alcotest.test_case "erasure end to end" `Quick test_erasure_end_to_end;
          Alcotest.test_case "renders" `Quick test_determination_renders;
        ] );
      ( "technology",
        [ Alcotest.test_case "family" `Quick test_technology_family ] );
    ]
