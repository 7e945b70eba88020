(** The Gaussian mechanism: (ε, δ)-differential privacy via normal noise of
    standard deviation [σ = Δ · sqrt(2 ln(1.25/δ)) / ε]. *)

val sigma : epsilon:float -> delta:float -> sensitivity:float -> float
(** The calibrated standard deviation. Raises [Invalid_argument] unless
    [0 < epsilon], [0 < delta < 1] and [sensitivity >= 0]. *)

val count :
  Prob.Rng.t -> epsilon:float -> delta:float -> Dataset.Table.t -> Query.Predicate.t -> float
(** (ε, δ)-DP count (sensitivity 1). *)

val counts :
  Prob.Rng.t ->
  epsilon:float ->
  delta:float ->
  Dataset.Table.t ->
  Query.Predicate.t array ->
  float array
(** (ε, δ)-DP answers to a count-query vector, both budgets split evenly
    ([epsilon / #queries], [delta / #queries]), evaluated as one batch
    with a bulk noise draw — byte-identical to per-query {!count} calls
    at the split budgets. *)
