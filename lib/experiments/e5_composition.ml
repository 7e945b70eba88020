type row = {
  n : int;
  ell : int;
  variant : string;
  queries : int;
  predicate_weight : float;
  weight_bound : float;
  success : float;
  isolations_any_weight : float;
}

let model = Dataset.Synth.pso_model ~attributes:3 ~values_per_attribute:64

let measure ~pool rng ~trials ~n ~ell ~variant =
  let salt = Prob.Rng.bits64 rng in
  let scheme =
    match variant with
    | `Single -> Pso.Composition.single_bucket ~salt ~buckets:n ~ell
    | `Scouted -> Pso.Composition.scouted ~salt ~buckets:n ~ell ~scouts:6
  in
  let c = 2. in
  let outcome =
    Pso.Game.run ~pool rng ~model ~n
      ~mechanism:scheme.Pso.Composition.mechanism
      ~attacker:scheme.Pso.Composition.attacker
      ~weight_bound:(Pso.Isolation.negligible_bound ~n ~c)
      ~trials
  in
  {
    n;
    ell;
    variant = (match variant with `Single -> "single" | `Scouted -> "scouted");
    queries = Array.length scheme.Pso.Composition.queries;
    predicate_weight = Pso.Composition.weight_of_success ~buckets:n ~ell;
    weight_bound = Pso.Isolation.negligible_bound ~n ~c;
    success = outcome.Pso.Game.success_rate;
    isolations_any_weight =
      float_of_int outcome.Pso.Game.isolations /. float_of_int outcome.Pso.Game.trials;
  }

let run ?pool ~scale rng =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let trials, ns, ells =
    match scale with
    | Common.Quick -> (100, [ 128 ], [ 4; 12; 24; 40 ])
    | Common.Full -> (400, [ 128; 512 ], [ 2; 4; 8; 12; 16; 24; 32; 40; 48 ])
  in
  List.concat_map
    (fun n ->
      List.concat_map
        (fun ell ->
          [
            measure ~pool rng ~trials ~n ~ell ~variant:`Single;
            measure ~pool rng ~trials ~n ~ell ~variant:`Scouted;
          ])
        ells)
    ns

let print ~scale rng fmt =
  Common.banner fmt ~id:"E5"
    ~title:"Composed count mechanisms enable PSO (Theorem 2.8)"
    ~claim:
      "omega(log n) composed count queries let an attacker learn one record \
       bit by bit and isolate it with a negligible-weight predicate; below \
       ~log n bits, the predicate is too heavy to count.";
  let rows = run ~scale rng in
  Common.table fmt
    ~header:
      [
        "n"; "ell"; "variant"; "queries"; "pred weight"; "bound n^-2";
        "PSO success"; "isolations";
      ]
    (List.map
       (fun r ->
         [
           string_of_int r.n;
           string_of_int r.ell;
           r.variant;
           string_of_int r.queries;
           Common.g3 r.predicate_weight;
           Common.g3 r.weight_bound;
           Common.pct r.success;
           Common.pct r.isolations_any_weight;
         ])
       rows)
