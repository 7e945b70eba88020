type kind =
  | Laplace_half_scale
  | Geometric_triple_epsilon
  | Exponential_missing_half
  | Randomized_response_double_epsilon

type spec = {
  name : string;
  kind : kind;
  claimed_epsilon : float;
  actual_epsilon : float;
}

let all =
  [
    (* Laplace count at half the required noise scale (2x privacy loss) *)
    {
      name = "broken-laplace";
      kind = Laplace_half_scale;
      claimed_epsilon = 1.0;
      actual_epsilon = 2.0;
    };
    (* geometric perturbation with alpha = exp(-3 eps) (3x privacy loss) *)
    {
      name = "broken-geometric";
      kind = Geometric_triple_epsilon;
      claimed_epsilon = 1.0;
      actual_epsilon = 3.0;
    };
    (* exponential mechanism missing the factor 2 in exp(eps u / 2) *)
    {
      name = "broken-exponential";
      kind = Exponential_missing_half;
      claimed_epsilon = 1.0;
      actual_epsilon = 2.0;
    };
    (* randomized response biased as if eps were doubled *)
    {
      name = "broken-randomized-response";
      kind = Randomized_response_double_epsilon;
      claimed_epsilon = 1.0;
      actual_epsilon = 2.0;
    };
  ]
