type row = {
  algorithm : string;
  recoding : string;
  k : int;
  attributes : int;
  attacker : string;
  success : float;
  isolations_any_weight : float;
  k_anonymous : bool;
  l_diversity : int;
  t_closeness : float;
}

let domain = 64

let model ~retained = Dataset.Synth.kanon_pso_model ~qis:6 ~retained ~domain

let int_scheme schema =
  List.map
    (fun qi ->
      (qi, Dataset.Hierarchy.int_ranges ~name:qi ~lo:0 ~widths:[ 2; 4; 8; 16; 32; 64 ]))
    (Dataset.Schema.with_role schema Dataset.Schema.Quasi_identifier)

let mechanism_of ~algorithm ~recoding ~k schema =
  match algorithm with
  | `Mondrian ->
    {
      Query.Mechanism.name = "mondrian";
      run =
        (fun _rng table ->
          Query.Mechanism.Generalized (Kanon.Mondrian.anonymize ~recoding ~k table));
    }
  | `Datafly ->
    let scheme = int_scheme schema in
    {
      Query.Mechanism.name = "datafly";
      run =
        (fun _rng table ->
          Query.Mechanism.Generalized
            (Kanon.Datafly.anonymize ~scheme ~k table).Kanon.Datafly.release);
    }

let measure rng ~trials ~n ~k ~retained ~algorithm ~recoding ~attacker =
  let model = model ~retained in
  let schema = Dataset.Model.schema model in
  let mech = mechanism_of ~algorithm ~recoding ~k schema in
  let att =
    match attacker with
    | `Greedy -> Pso.Kanon_attack.greedy ()
    | `Cohen -> Pso.Kanon_attack.cohen ()
  in
  let outcome =
    Pso.Game.run rng ~model ~n ~mechanism:mech ~attacker:att
      ~weight_bound:(Pso.Isolation.negligible_bound ~n ~c:2.)
      ~trials
  in
  (* Invariant + variant checks on one sample release. *)
  let sample = Dataset.Model.sample_table rng model n in
  let release =
    match Query.Mechanism.run mech rng sample with
    | Query.Mechanism.Generalized g -> g
    | _ -> assert false
  in
  let qis = Dataset.Schema.with_role schema Dataset.Schema.Quasi_identifier in
  let sensitive =
    match Dataset.Schema.with_role schema Dataset.Schema.Sensitive with
    | s :: _ -> s
    | [] -> List.hd (Dataset.Schema.names schema)
  in
  {
    algorithm = (match algorithm with `Mondrian -> "mondrian" | `Datafly -> "datafly");
    recoding =
      (match recoding with
      | Kanon.Mondrian.Class_level -> "class-level"
      | Kanon.Mondrian.Member_level -> "member-level");
    k;
    attributes = Dataset.Schema.arity schema;
    attacker = (match attacker with `Greedy -> "greedy" | `Cohen -> "cohen");
    success = outcome.Pso.Game.success_rate;
    isolations_any_weight =
      float_of_int outcome.Pso.Game.isolations /. float_of_int outcome.Pso.Game.trials;
    k_anonymous = Kanon.Anonymizer.is_k_anonymous ~k release;
    l_diversity = Kanon.Diversity.l_diversity ~qis ~sensitive release sample;
    t_closeness = Kanon.Diversity.t_closeness ~qis ~sensitive release sample;
  }

let run ~scale rng =
  let trials, n, ks =
    match scale with
    | Common.Quick -> (60, 120, [ 5 ])
    | Common.Full -> (300, 150, [ 2; 5; 10; 20 ])
  in
  let main =
    List.concat_map
      (fun k ->
        [
          measure rng ~trials ~n ~k ~retained:42 ~algorithm:`Mondrian
            ~recoding:Kanon.Mondrian.Class_level ~attacker:`Greedy;
          measure rng ~trials ~n ~k ~retained:42 ~algorithm:`Mondrian
            ~recoding:Kanon.Mondrian.Member_level ~attacker:`Cohen;
        ])
      ks
  in
  let ablations =
    match scale with
    | Common.Quick -> []
    | Common.Full ->
      [
        (* Few attributes: class predicates too heavy, formal attack fails
           even though isolations persist. *)
        measure rng ~trials ~n ~k:5 ~retained:2 ~algorithm:`Mondrian
          ~recoding:Kanon.Mondrian.Class_level ~attacker:`Greedy;
        (* Full-domain algorithm, member-level semantics. *)
        measure rng ~trials:(trials / 3) ~n ~k:5 ~retained:42 ~algorithm:`Datafly
          ~recoding:Kanon.Mondrian.Member_level ~attacker:`Cohen;
      ]
  in
  main @ ablations

let print ~scale rng fmt =
  Common.banner fmt ~id:"E7"
    ~title:"k-anonymity enables PSO (Theorem 2.10 + Cohen)"
    ~claim:
      "Typical k-anonymizers yield equivalence-class predicates of \
       negligible weight; refining within a class isolates with probability \
       ~37% (greedy) and ~100% (Cohen's released-unique attack). The \
       analysis extends to l-diversity and t-closeness (footnote 3).";
  let rows = run ~scale rng in
  Common.table fmt
    ~header:
      [
        "algorithm"; "recoding"; "k"; "attrs"; "attacker"; "PSO success";
        "isolations"; "k-anon?"; "l-div"; "t-close";
      ]
    (List.map
       (fun r ->
         [
           r.algorithm;
           r.recoding;
           string_of_int r.k;
           string_of_int r.attributes;
           r.attacker;
           Common.pct r.success;
           Common.pct r.isolations_any_weight;
           (if r.k_anonymous then "yes" else "NO");
           string_of_int r.l_diversity;
           Printf.sprintf "%.2f" r.t_closeness;
         ])
       rows);
  Format.fprintf fmt
    "@.(greedy reference line: (1-1/k)^(k-1); 1/e = %s)@."
    (Common.pct Pso.Isolation.one_over_e);
  (* Composition ablation (Sec 1.1 / Ganta et al.): two independent
     5-anonymizations of the same data, attacked by intersecting the
     covering classes' sensitive-value sets. *)
  let model = model ~retained:6 in
  let schema = Dataset.Model.schema model in
  let table = Dataset.Model.sample_table rng model 150 in
  let release1 =
    Kanon.Mondrian.anonymize ~recoding:Kanon.Mondrian.Member_level ~k:5 table
  in
  let release2 =
    (Kanon.Datafly.anonymize ~scheme:(int_scheme schema) ~k:5 table)
      .Kanon.Datafly.release
  in
  let sensitive =
    List.hd (Dataset.Schema.with_role schema Dataset.Schema.Sensitive)
  in
  let stats =
    Attacks.Intersection.evaluate ~table ~release1 ~release2 ~sensitive
  in
  Format.fprintf fmt
    "composition ablation (two independent k=5 releases, %d targets): \
     sensitive value disclosed for %s from one release, %s after \
     intersecting — k-anonymity does not compose.@."
    stats.Attacks.Intersection.targets
    (Common.pct stats.Attacks.Intersection.rate_one)
    (Common.pct stats.Attacks.Intersection.rate_combined)
