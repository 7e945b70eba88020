type row = {
  mechanism : string;
  epsilon : float option;
  success : float;
  isolations : float;
  marginal_tv_error : float;
}

let attributes = 12

let domain = 16

let model = Dataset.Synth.kanon_pso_model ~qis:6 ~retained:(attributes - 6) ~domain

let domains () =
  let schema = Dataset.Model.schema model in
  List.map
    (fun name -> (name, List.init domain (fun v -> Dataset.Value.Int v)))
    (Dataset.Schema.names schema)

let measure ~pool rng ~trials ~n ~epsilon =
  let mechanism =
    match epsilon with
    | None -> Query.Mechanism.identity_release
    | Some eps -> Dp.Synthetic.mechanism ~epsilon:eps ~domains:(domains ()) ~rows:n
  in
  let outcome =
    Pso.Game.run ~pool rng ~model ~n ~mechanism
      ~attacker:(Pso.Attacker.release_row ())
      ~weight_bound:(Pso.Isolation.negligible_bound ~n ~c:2.)
      ~trials
  in
  (* Utility on one fitted generator (not defined for the verbatim release:
     report 0 error there). *)
  let tv =
    match epsilon with
    | None -> 0.
    | Some eps ->
      let table = Dataset.Model.sample_table rng model n in
      let g = Dp.Synthetic.fit rng ~epsilon:eps ~domains:(domains ()) table in
      Dp.Synthetic.total_variation_error g model
  in
  {
    mechanism = mechanism.Query.Mechanism.name;
    epsilon;
    success = outcome.Pso.Game.success_rate;
    isolations =
      float_of_int outcome.Pso.Game.isolations /. float_of_int outcome.Pso.Game.trials;
    marginal_tv_error = tv;
  }

let run ?pool ~scale rng =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let trials, n, epsilons =
    match scale with
    | Common.Quick -> (80, 150, [ 1. ])
    | Common.Full -> (300, 300, [ 0.1; 1.; 10. ])
  in
  measure ~pool rng ~trials ~n ~epsilon:None
  :: List.map (fun eps -> measure ~pool rng ~trials ~n ~epsilon:(Some eps)) epsilons

let print ~scale rng fmt =
  Common.banner fmt ~id:"E13"
    ~title:"Synthetic data and singling out (extension)"
    ~claim:
      "A verbatim table release is singled out by quoting any released row; \
       DP synthetic data of the same shape is post-processing of eps-DP \
       histograms and prevents predicate singling out (Theorems 2.6/2.9), \
       at a marginal-accuracy cost that shrinks with eps.";
  let rows = run ~scale rng in
  Common.table fmt
    ~header:[ "release"; "epsilon"; "PSO success"; "isolations"; "marginal TV err" ]
    (List.map
       (fun r ->
         [
           r.mechanism;
           (match r.epsilon with None -> "-" | Some e -> Common.g3 e);
           Common.pct r.success;
           Common.pct r.isolations;
           Printf.sprintf "%.3f" r.marginal_tv_error;
         ])
       rows)
