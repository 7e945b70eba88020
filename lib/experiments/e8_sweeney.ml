type row = {
  population : int;
  release : string;
  qi_unique : float;
  voter_coverage : float;
  claims : int;
  correct : int;
  precision : float;
  reidentified : float;
}

let qis = [ "zip"; "birth_date"; "sex" ]

let measure rng ~n ~coverage ~safe_harbor =
  let population = Dataset.Synth.population rng ~n () in
  let release, on, name_attr =
    if safe_harbor then begin
      (* Safe-harbor both sides identically so the join keys align. *)
      let redact t = Legal.Safe_harbor.release_table (Legal.Safe_harbor.deidentify t) in
      let medical = redact population in
      (medical, qis, "name")
    end
    else (Dataset.Synth.gic_release population, qis, "name")
  in
  let voters =
    if safe_harbor then begin
      let redacted = Legal.Safe_harbor.release_table (Legal.Safe_harbor.deidentify population) in
      (* Voter list keeps names: restore the name column from the population
         before projecting, then sample coverage. *)
      let rows =
        Array.mapi
          (fun i row ->
            let name_idx =
              Dataset.Schema.index_of (Dataset.Table.schema redacted) "name"
            in
            let copy = Array.copy row in
            copy.(name_idx) <- Dataset.Table.value population i "name";
            copy)
          (Dataset.Table.rows redacted)
      in
      let full = Dataset.Table.make (Dataset.Table.schema redacted) rows in
      let projected = Dataset.Table.project full ("name" :: qis) in
      let kept =
        Array.of_list
          (List.filter
             (fun _ -> Prob.Sampler.bernoulli rng ~p:coverage)
             (List.init (Dataset.Table.nrows projected) Fun.id))
      in
      Dataset.Table.select projected kept
    end
    else Dataset.Synth.voter_list rng population ~coverage
  in
  let stats =
    if safe_harbor then begin
      (* Release rows are population-aligned in both branches. *)
      let population_names = Dataset.Table.project population [ "name" ] in
      ignore population_names;
      Attacks.Linkage.reidentify
        ~population:
          (Dataset.Table.make (Dataset.Table.schema release)
             (Array.mapi
                (fun i row ->
                  let copy = Array.copy row in
                  let name_idx =
                    Dataset.Schema.index_of (Dataset.Table.schema release) "name"
                  in
                  copy.(name_idx) <- Dataset.Table.value population i "name";
                  copy)
                (Dataset.Table.rows release)))
        ~release ~aux:voters ~on ~name_attr
    end
    else
      Attacks.Linkage.reidentify ~population ~release ~aux:voters ~on ~name_attr
  in
  {
    population = n;
    release = (if safe_harbor then "safe harbor" else "redacted (GIC)");
    qi_unique = Attacks.Linkage.unique_fraction release ~on;
    voter_coverage = coverage;
    claims = stats.Attacks.Linkage.claims;
    correct = stats.Attacks.Linkage.correct;
    precision = stats.Attacks.Linkage.precision;
    reidentified = stats.Attacks.Linkage.reidentification_rate;
  }

let run ~scale rng =
  let sizes =
    match scale with Common.Quick -> [ 2000 ] | Common.Full -> [ 2000; 10000; 40000 ]
  in
  List.concat_map
    (fun n ->
      [
        measure rng ~n ~coverage:0.55 ~safe_harbor:false;
        measure rng ~n ~coverage:0.55 ~safe_harbor:true;
      ])
    sizes

let print ~scale rng fmt =
  Common.banner fmt ~id:"E8" ~title:"Quasi-identifier linkage (Sweeney / GIC)"
    ~claim:
      "The combination of ZIP code, birth date and sex is unique for a vast \
       majority of the population; matching it against an identified voter \
       list re-identifies the redacted medical records.";
  let rows = run ~scale rng in
  Common.table fmt
    ~header:
      [
        "population"; "release"; "QI-unique"; "voter cov."; "claims";
        "correct"; "precision"; "re-identified";
      ]
    (List.map
       (fun r ->
         [
           string_of_int r.population;
           r.release;
           Common.pct r.qi_unique;
           Common.pct r.voter_coverage;
           string_of_int r.claims;
           string_of_int r.correct;
           Common.pct r.precision;
           Common.pct r.reidentified;
         ])
       rows);
  (* The measured safe-harbor residual risk, folded into its legal
     determination. *)
  (match
     List.filter (fun r -> r.release = "safe harbor") rows
     |> List.sort (fun a b -> Int.compare b.population a.population)
   with
  | worst :: _ ->
    let det =
      Legal.Determinations.safe_harbor
        ~reidentification_rate:worst.reidentified ~population:worst.population
    in
    Format.fprintf fmt "@.%a@." Legal.Theorem.pp det
  | [] -> ())
