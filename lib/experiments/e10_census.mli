(** E10 — the 2010 Census reconstruction-abetted re-identification
    (Section 1).

    Publishes block-level marginal tables from a synthetic population,
    reconstructs each block's microdata with {!Attacks.Census_scale}'s box
    least-squares solver (exact publication, one cold solve per block),
    links against a synthetic commercial database, and confirms putative
    re-identifications against the confidential truth. The paper's quoted shape: age within one
    year for ~71% of the population, ~17% confirmed re-identified, versus a
    prior agency estimate of 0.003% — a gap of ~4500x. *)

type row = {
  population : int;
  records : int;
      (** reconstructed records: the population on exact tables, several
          times it on DP tables, whose noise is clamped at zero over the
          full age domain *)
  blocks : int;
  protection : string;  (** "none", or the ε of DP-protected tables *)
  commercial_coverage : float;
  exact_reconstruction : float;
  age_within_one : float;
  putative : float;
  confirmed : float;
  prior_estimate : float;  (** the 0.003% the Census Bureau expected *)
  gap_factor : float;  (** confirmed / prior *)
}

val run : ?pool:Parallel.Pool.t -> scale:Common.scale -> Prob.Rng.t -> row list

val print : scale:Common.scale -> Prob.Rng.t -> Format.formatter -> unit
