type entry = {
  id : string;
  title : string;
  print : scale:Common.scale -> Prob.Rng.t -> Format.formatter -> unit;
}

(* Every registry entry gets a root span: "experiment:E#" around the printed
   table. *)
let instrument e =
  {
    e with
    print =
      (fun ~scale rng fmt ->
        Obs.with_span
          ("experiment:" ^ e.id)
          ~args:[ ("title", e.title) ]
          (fun () -> e.print ~scale rng fmt));
  }

let all =
  List.map instrument
  [
    {
      id = "E1";
      title = "Database reconstruction (Theorem 1.1)";
      print = E1_reconstruction.print;
    };
    {
      id = "E2";
      title = "Trivial isolation baseline (birthday example)";
      print = E2_birthday.print;
    };
    {
      id = "E3";
      title = "Count mechanism prevents PSO (Theorem 2.5)";
      print = E3_count_secure.print;
    };
    {
      id = "E4";
      title = "Incomposability pair (Theorem 2.7)";
      print = E4_incomposability.print;
    };
    {
      id = "E5";
      title = "Count composition breaks PSO (Theorem 2.8)";
      print = E5_composition.print;
    };
    {
      id = "E6";
      title = "Differential privacy prevents PSO (Theorem 2.9)";
      print = E6_dp_defends.print;
    };
    {
      id = "E7";
      title = "k-anonymity enables PSO (Theorem 2.10 + Cohen)";
      print = E7_kanon.print;
    };
    {
      id = "E8";
      title = "Quasi-identifier linkage (Sweeney / GIC)";
      print = E8_sweeney.print;
    };
    {
      id = "E9";
      title = "Sparse-data de-anonymization (Netflix)";
      print = E9_netflix.print;
    };
    {
      id = "E10";
      title = "Census reconstruction + re-identification";
      print = E10_census.print;
    };
    {
      id = "E11";
      title = "Membership inference from aggregates (Homer)";
      print = E11_membership.print;
    };
    {
      id = "E12";
      title = "Legal theorems and the WP29 comparison";
      print = E12_legal.print;
    };
    {
      id = "E13";
      title = "Synthetic data and singling out (extension)";
      print = E13_synthetic.print;
    };
    {
      id = "E14";
      title = "Census-scale sharded reconstruction (streaming)";
      print = E14_scale.print;
    };
  ]

let find id =
  let target = String.lowercase_ascii id in
  List.find_opt (fun e -> String.lowercase_ascii e.id = target) all
