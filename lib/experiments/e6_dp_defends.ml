type row = {
  epsilon : float option;
  per_query_scale : float;
  success : float;
  ci : float * float;
}

let model = Dataset.Synth.pso_model ~attributes:3 ~values_per_attribute:64

let measure rng ~trials ~n ~epsilon =
  let scheme =
    Pso.Composition.single_bucket ~salt:(Prob.Rng.bits64 rng) ~buckets:n ~ell:40
  in
  let nq = Array.length scheme.Pso.Composition.queries in
  let mechanism, per_query_scale =
    match epsilon with
    | None -> (scheme.Pso.Composition.mechanism, 0.)
    | Some eps ->
      ( Query.Mechanism.laplace_counts_batch ~epsilon:eps
          scheme.Pso.Composition.batch,
        float_of_int nq /. eps )
  in
  let outcome =
    Pso.Game.run rng ~model ~n ~mechanism
      ~attacker:scheme.Pso.Composition.attacker
      ~weight_bound:(Pso.Isolation.negligible_bound ~n ~c:2.)
      ~trials
  in
  {
    epsilon;
    per_query_scale;
    success = outcome.Pso.Game.success_rate;
    ci = outcome.Pso.Game.success_ci;
  }

let run ~scale rng =
  let trials, n, epsilons =
    match scale with
    | Common.Quick -> (100, 128, [ 1.; 100.; 2000. ])
    | Common.Full -> (400, 128, [ 0.1; 1.; 10.; 100.; 500.; 2000. ])
  in
  measure rng ~trials ~n ~epsilon:None
  :: List.map (fun eps -> measure rng ~trials ~n ~epsilon:(Some eps)) epsilons

let print ~scale rng fmt =
  Common.banner fmt ~id:"E6"
    ~title:"Differential privacy prevents PSO (Theorem 2.9)"
    ~claim:
      "If M is eps-differentially private for constant eps, M prevents \
       predicate singling out: the attack that defeats exact counts fails \
       once answers carry calibrated noise.";
  let rows = run ~scale rng in
  Common.table fmt
    ~header:[ "epsilon"; "per-answer Lap scale"; "PSO success"; "95% CI" ]
    (List.map
       (fun r ->
         let lo, hi = r.ci in
         [
           (match r.epsilon with None -> "none (exact)" | Some e -> Common.g3 e);
           Common.g3 r.per_query_scale;
           Common.pct r.success;
           Printf.sprintf "[%s, %s]" (Common.pct lo) (Common.pct hi);
         ])
       rows)
