(** Differentially private histograms and marginal tables.

    A histogram over a data-independent partition of the domain has
    sensitivity 1 (a record moves between at most two cells... in fact
    changes one cell by one), so every cell can receive Laplace(1/ε) noise
    under a single ε — no budget splitting. Noisy marginals are the DP
    stand-in for the census tabulations of Experiment E10. *)

type cell = { label : string; pred : Query.Predicate.t }

val partition_by_attribute : Dataset.Model.t -> string -> cell array
(** One cell per support value of the attribute's marginal — a
    data-independent partition derived from the model, not the data. *)

val noisy : Prob.Rng.t -> epsilon:float -> Dataset.Table.t -> cell array -> (string * float) array
(** ε-DP histogram: exact cell counts plus i.i.d. Laplace(1/ε) noise.
    Raises [Invalid_argument] if [epsilon <= 0]. *)

val exact : Dataset.Table.t -> cell array -> (string * int) array
