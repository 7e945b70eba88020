type row = {
  n : int;
  target : string;
  success : float;
  ci : float * float;
}

let model = Dataset.Synth.pso_model ~attributes:4 ~values_per_attribute:16

let games ~pool rng ~trials ~n =
  let pad = Pso.Pad.make ~salt:(Prob.Rng.bits64 rng) in
  let play target mechanism attacker =
    let outcome =
      Pso.Game.run ~pool rng ~model ~n ~mechanism ~attacker
        ~weight_bound:(Pso.Isolation.negligible_bound ~n ~c:2.)
        ~trials
    in
    {
      n;
      target;
      success = outcome.Pso.Game.success_rate;
      ci = outcome.Pso.Game.success_ci;
    }
  in
  [
    play "M1 alone" pad.Pso.Pad.m1 pad.Pso.Pad.marginal_attacker;
    play "M2 alone" pad.Pso.Pad.m2 pad.Pso.Pad.marginal_attacker;
    play "(M1,M2) composed" pad.Pso.Pad.composed pad.Pso.Pad.joint_attacker;
  ]

let run ?pool ~scale rng =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let trials, ns =
    match scale with
    | Common.Quick -> (150, [ 100 ])
    | Common.Full -> (800, [ 50; 200; 800 ])
  in
  List.concat_map (fun n -> games ~pool rng ~trials ~n) ns

let print ~scale rng fmt =
  Common.banner fmt ~id:"E4"
    ~title:"PSO security does not compose (Theorem 2.7)"
    ~claim:
      "There exist M1, M2, each preventing predicate singling out, whose \
       composition enables isolation with probability ~1 at weight 2^-64.";
  let rows = run ~scale rng in
  Common.table fmt
    ~header:[ "n"; "attacked output"; "PSO success"; "95% CI" ]
    (List.map
       (fun r ->
         let lo, hi = r.ci in
         [
           string_of_int r.n;
           r.target;
           Common.pct r.success;
           Printf.sprintf "[%s, %s]" (Common.pct lo) (Common.pct hi);
         ])
       rows)
