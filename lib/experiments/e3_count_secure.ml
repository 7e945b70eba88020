type row = {
  n : int;
  c : float;
  success : float;
  isolations_any_weight : float;
}

let model = Dataset.Synth.pso_model ~attributes:3 ~values_per_attribute:16

let mechanism =
  Query.Mechanism.exact_count
    (Query.Predicate.Atom (Query.Predicate.Range ("a0", 0., 8.)))

let measure ~pool rng ~trials ~n ~c =
  let buckets = int_of_float (Float.pow (float_of_int n) (c +. 1.)) in
  let outcome =
    Pso.Game.run ~pool rng ~model ~n ~mechanism
      ~attacker:(Pso.Attacker.hash_bucket ~buckets)
      ~weight_bound:(Pso.Isolation.negligible_bound ~n ~c)
      ~trials
  in
  {
    n;
    c;
    success = outcome.Pso.Game.success_rate;
    isolations_any_weight =
      float_of_int outcome.Pso.Game.isolations /. float_of_int trials;
  }

let run ?pool ~scale rng =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let trials, ns =
    match scale with
    | Common.Quick -> (400, [ 16; 32; 64 ])
    | Common.Full -> (3000, [ 16; 32; 64; 128; 256 ])
  in
  List.concat_map
    (fun c -> List.map (fun n -> measure ~pool rng ~trials ~n ~c) ns)
    [ 1.; 2.; 4. ]

let decay rows ~c =
  let points =
    rows
    |> List.filter (fun r -> r.c = c)
    |> List.map (fun r -> (r.n, r.success))
    |> Array.of_list
  in
  Prob.Decay.classify points

let print ~scale rng fmt =
  Common.banner fmt ~id:"E3"
    ~title:"Count mechanism prevents PSO (Theorem 2.5)"
    ~claim:
      "M#q (an exact count) prevents predicate singling out: \
       negligible-weight attackers succeed with probability ~n.w, decaying \
       with n at every weight-bound exponent.";
  let rows = run ~scale rng in
  Common.table fmt
    ~header:[ "n"; "bound exp c"; "PSO success"; "isolations (any weight)" ]
    (List.map
       (fun r ->
         [
           string_of_int r.n;
           Printf.sprintf "%.0f" r.c;
           Common.pct r.success;
           Common.pct r.isolations_any_weight;
         ])
       rows);
  List.iter
    (fun c ->
      Format.fprintf fmt "decay at c=%.0f: %s@." c
        (Prob.Decay.to_string (decay rows ~c)))
    [ 1.; 2.; 4. ]
