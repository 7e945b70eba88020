let version = "1.0.0"

module Prob = Prob
module Linalg = Linalg
module Dataset = Dataset
module Query = Query
module Dp = Dp
module Kanon = Kanon
module Attacks = Attacks
module Pso = Pso
module Legal = Legal
(* Json lives in the standalone lib/json library (so lower layers like
   lib/obs can render documents without a cycle through this facade);
   re-exported here to keep the Core.Json path stable. *)
module Json = Json
module Obs = Obs

module Audit = struct
  type finding = { attacker : string; outcome : Pso.Game.outcome }

  let standard_attackers ~n ~weight_exponent =
    let light_buckets =
      int_of_float (Float.pow (float_of_int n) (weight_exponent +. 1.))
    in
    [
      Pso.Attacker.hash_bucket ~buckets:n;
      Pso.Attacker.hash_bucket ~buckets:light_buckets;
      Pso.Attacker.release_row ();
      Pso.Kanon_attack.greedy ();
      Pso.Kanon_attack.cohen ();
    ]

  let mechanism rng ~model ~n ~trials ?(weight_exponent = 2.) m =
    let weight_bound = Pso.Isolation.negligible_bound ~n ~c:weight_exponent in
    List.map
      (fun attacker ->
        {
          attacker = attacker.Pso.Attacker.name;
          outcome =
            Pso.Game.run rng ~model ~n ~mechanism:m ~attacker ~weight_bound
              ~trials;
        })
      (standard_attackers ~n ~weight_exponent)

  let worst_success findings =
    List.fold_left
      (fun acc f -> Float.max acc f.outcome.Pso.Game.success_rate)
      0. findings
end
