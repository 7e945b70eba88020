(* Row-level assertions on the experiment harness at quick scale: each
   experiment's rows must already show the paper's qualitative shape, so a
   regression that flattens a curve or flips a comparison fails here even
   before anyone reads the rendered tables. *)

let rng () = Prob.Rng.create ~seed:9000L ()

let scale = Experiments.Common.Quick

(* --- E1 --- *)

let test_e1_shape () =
  let rows = Experiments.E1_reconstruction.run ~scale (rng ()) in
  (* Zero noise -> blatant reconstruction, for every attack. *)
  List.iter
    (fun r ->
      if r.Experiments.E1_reconstruction.alpha = 0. then
        Alcotest.(check bool)
          (Printf.sprintf "%s noiseless is blatant" r.Experiments.E1_reconstruction.attack)
          true r.Experiments.E1_reconstruction.blatant)
    rows;
  (* Within each (attack, n), agreement is non-increasing in alpha (small
     Monte-Carlo slack). *)
  let groups = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let key = (r.Experiments.E1_reconstruction.attack, r.Experiments.E1_reconstruction.n) in
      Hashtbl.replace groups key
        (r :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
    rows;
  Hashtbl.iter
    (fun _ group ->
      let sorted =
        List.sort
          (fun a b ->
            Float.compare a.Experiments.E1_reconstruction.alpha
              b.Experiments.E1_reconstruction.alpha)
          group
      in
      let rec check = function
        | a :: b :: rest ->
          Alcotest.(check bool) "agreement non-increasing in alpha" true
            (a.Experiments.E1_reconstruction.agreement
             +. 0.12
            >= b.Experiments.E1_reconstruction.agreement);
          check (b :: rest)
        | _ -> ()
      in
      check sorted)
    groups

(* --- E2 --- *)

let test_e2_matches_analytic () =
  let rows = Experiments.E2_birthday.run ~scale (rng ()) in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "w=%g measured %.3f vs analytic %.3f"
           r.Experiments.E2_birthday.weight r.Experiments.E2_birthday.empirical
           r.Experiments.E2_birthday.analytic)
        true
        (Float.abs
           (r.Experiments.E2_birthday.empirical -. r.Experiments.E2_birthday.analytic)
        < 0.08))
    rows

(* --- E3 --- *)

let test_e3_no_plateau () =
  let rows = Experiments.E3_count_secure.run ~scale (rng ()) in
  List.iter
    (fun c ->
      match Experiments.E3_count_secure.decay rows ~c with
      | Prob.Decay.Plateau p when p > 0.05 ->
        Alcotest.failf "count mechanism plateaus at %.3f for c=%.0f" p c
      | _ -> ())
    [ 1.; 2.; 4. ]

(* --- E4 --- *)

let test_e4_margins () =
  let rows = Experiments.E4_incomposability.run ~scale (rng ()) in
  List.iter
    (fun r ->
      if r.Experiments.E4_incomposability.target = "(M1,M2) composed" then
        Alcotest.(check bool) "composed broken" true
          (r.Experiments.E4_incomposability.success > 0.9)
      else
        Alcotest.(check bool) "marginals safe" true
          (r.Experiments.E4_incomposability.success < 0.05))
    rows

(* --- E5 --- *)

let test_e5_crossover () =
  let rows = Experiments.E5_composition.run ~scale (rng ()) in
  List.iter
    (fun r ->
      let counted = r.Experiments.E5_composition.predicate_weight
                    <= r.Experiments.E5_composition.weight_bound in
      if not counted then
        Alcotest.(check (float 1e-9)) "heavy rows never formally succeed" 0.
          r.Experiments.E5_composition.success
      else if r.Experiments.E5_composition.variant = "scouted" then
        Alcotest.(check bool) "light scouted rows succeed strongly" true
          (r.Experiments.E5_composition.success > 0.7))
    rows

(* --- E6 --- *)

let test_e6_dp_cliff () =
  let rows = Experiments.E6_dp_defends.run ~scale (rng ()) in
  List.iter
    (fun r ->
      match r.Experiments.E6_dp_defends.epsilon with
      | None ->
        Alcotest.(check bool) "exact counts broken" true
          (r.Experiments.E6_dp_defends.success > 0.2)
      | Some eps when eps <= 100. ->
        Alcotest.(check bool)
          (Printf.sprintf "eps=%g safe" eps)
          true
          (r.Experiments.E6_dp_defends.success <= 0.05)
      | Some _ -> ())
    rows

(* --- E7 --- *)

let test_e7_attackers () =
  let rows = Experiments.E7_kanon.run ~scale (rng ()) in
  List.iter
    (fun r ->
      Alcotest.(check bool) "release was k-anonymous" true
        r.Experiments.E7_kanon.k_anonymous;
      match r.Experiments.E7_kanon.attacker with
      | "cohen" ->
        Alcotest.(check bool) "cohen ~1" true (r.Experiments.E7_kanon.success > 0.85)
      | "greedy" ->
        Alcotest.(check bool) "greedy in the 1/e band" true
          (r.Experiments.E7_kanon.success > 0.15
          && r.Experiments.E7_kanon.success < 0.65)
      | _ -> ())
    rows

(* --- E8 --- *)

let test_e8_safe_harbor_helps () =
  let rows = Experiments.E8_sweeney.run ~scale (rng ()) in
  let find release =
    List.find (fun r -> r.Experiments.E8_sweeney.release = release) rows
  in
  let gic = find "redacted (GIC)" and sh = find "safe harbor" in
  Alcotest.(check bool) "GIC mostly unique" true
    (gic.Experiments.E8_sweeney.qi_unique > 0.9);
  Alcotest.(check bool) "safe harbor reduces uniqueness" true
    (sh.Experiments.E8_sweeney.qi_unique < gic.Experiments.E8_sweeney.qi_unique);
  Alcotest.(check bool) "linkage is high-precision" true
    (gic.Experiments.E8_sweeney.precision > 0.95)

(* --- E9 --- *)

let test_e9_monotone_in_aux () =
  let rows = Experiments.E9_netflix.run ~scale (rng ()) in
  let sorted =
    List.sort
      (fun a b ->
        Int.compare a.Experiments.E9_netflix.aux_items b.Experiments.E9_netflix.aux_items)
      rows
  in
  let rec check = function
    | a :: b :: rest ->
      Alcotest.(check bool) "success grows with aux" true
        (a.Experiments.E9_netflix.correct -. 0.1 <= b.Experiments.E9_netflix.correct);
      check (b :: rest)
    | _ -> ()
  in
  check sorted;
  (match List.rev sorted with
  | best :: _ ->
    Alcotest.(check bool) "many items re-identify nearly always" true
      (best.Experiments.E9_netflix.correct > 0.9)
  | [] -> Alcotest.fail "no rows");
  List.iter
    (fun r ->
      Alcotest.(check bool) "wrong matches stay rare" true
        (r.Experiments.E9_netflix.wrong < 0.1))
    rows

(* --- E10 --- *)

let test_e10_shape () =
  let rows = Experiments.E10_census.run ~scale (rng ()) in
  List.iter
    (fun r ->
      Alcotest.(check bool) "age within one for most" true
        (r.Experiments.E10_census.age_within_one > 0.5);
      Alcotest.(check bool) "confirmed <= putative" true
        (r.Experiments.E10_census.confirmed <= r.Experiments.E10_census.putative +. 1e-9);
      Alcotest.(check bool) "orders of magnitude above the prior" true
        (r.Experiments.E10_census.gap_factor > 100.))
    rows;
  (* The DP ablation: noised tables confirm fewer re-identifications than
     any raw release, while raw tables reconstruct a large share of the
     population exactly (the paper's 46%). *)
  let raw, dp =
    List.partition (fun r -> r.Experiments.E10_census.protection = "none") rows
  in
  Alcotest.(check bool) "a raw and a DP row" true (raw <> [] && dp <> []);
  let raw_confirmed =
    List.fold_left
      (fun acc r -> Float.max acc r.Experiments.E10_census.confirmed)
      0. raw
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "raw tables reconstruct >= 40% exactly" true
        (r.Experiments.E10_census.exact_reconstruction >= 0.4))
    raw;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Experiments.E10_census.protection ^ " confirms fewer than raw")
        true
        (r.Experiments.E10_census.confirmed < raw_confirmed))
    dp

(* --- E11 --- *)

let test_e11_auc_grows () =
  let rows = Experiments.E11_membership.run ~scale (rng ()) in
  let sorted =
    List.sort
      (fun a b -> Int.compare a.Experiments.E11_membership.snps b.Experiments.E11_membership.snps)
      rows
  in
  match (sorted, List.rev sorted) with
  | low :: _, high :: _ ->
    Alcotest.(check bool) "AUC grows with attributes" true
      (high.Experiments.E11_membership.auc > low.Experiments.E11_membership.auc);
    Alcotest.(check bool) "strong at the top" true
      (high.Experiments.E11_membership.auc > 0.85)
  | _ -> Alcotest.fail "no rows"

(* --- E13 --- *)

let test_e13_synthetic () =
  let rows = Experiments.E13_synthetic.run ~scale (rng ()) in
  List.iter
    (fun r ->
      match r.Experiments.E13_synthetic.epsilon with
      | None ->
        Alcotest.(check bool) "verbatim release broken" true
          (r.Experiments.E13_synthetic.success > 0.9)
      | Some _ ->
        Alcotest.(check bool) "synthetic release safe" true
          (r.Experiments.E13_synthetic.success <= 0.05))
    rows

(* --- E12 --- *)

let test_e12_report () =
  let report = Experiments.E12_legal.report ~scale (rng ()) in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "%s holds at quick scale" v.Pso.Theorems.id)
        true v.Pso.Theorems.holds)
    report.Legal.Report.verdicts;
  let conflicts =
    List.filter (fun r -> r.Legal.Wp29.conflict) report.Legal.Report.comparison
  in
  Alcotest.(check int) "all four WP29 rows conflict" 4 (List.length conflicts)

let () =
  Alcotest.run "experiments"
    [
      ( "shapes",
        [
          Alcotest.test_case "E1 reconstruction" `Slow test_e1_shape;
          Alcotest.test_case "E2 birthday" `Slow test_e2_matches_analytic;
          Alcotest.test_case "E3 no plateau" `Slow test_e3_no_plateau;
          Alcotest.test_case "E4 incomposability" `Slow test_e4_margins;
          Alcotest.test_case "E5 crossover" `Slow test_e5_crossover;
          Alcotest.test_case "E6 dp cliff" `Slow test_e6_dp_cliff;
          Alcotest.test_case "E7 kanon attackers" `Slow test_e7_attackers;
          Alcotest.test_case "E8 safe harbor" `Slow test_e8_safe_harbor_helps;
          Alcotest.test_case "E9 aux monotone" `Slow test_e9_monotone_in_aux;
          Alcotest.test_case "E10 census" `Slow test_e10_shape;
          Alcotest.test_case "E11 auc growth" `Slow test_e11_auc_grows;
          Alcotest.test_case "E12 legal report" `Slow test_e12_report;
          Alcotest.test_case "E13 synthetic" `Slow test_e13_synthetic;
        ] );
    ]
