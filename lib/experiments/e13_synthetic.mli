(** E13 (extension) — synthetic data and singling out.

    Section 1.2 notes that legal concepts like linkability are unclear
    "when PII is replaced with 'synthetic data'". The PSO lens gives a
    crisp answer for the simplest DP synthetic-data pipeline: the release
    is post-processing of ε-DP histograms, so by Theorems 2.6/2.9 it
    prevents predicate singling out — while the verbatim release of the
    same table falls to the release-row attacker with probability ≈ 1.
    The utility column (marginal TV error) shows what the guarantee
    costs. *)

type row = {
  mechanism : string;
  epsilon : float option;  (** [None] = verbatim release *)
  success : float;  (** PSO success of the release-row attacker *)
  isolations : float;
  marginal_tv_error : float;  (** mean TV distance of fitted vs true marginals *)
}

val run : ?pool:Parallel.Pool.t -> scale:Common.scale -> Prob.Rng.t -> row list

val print : scale:Common.scale -> Prob.Rng.t -> Format.formatter -> unit
