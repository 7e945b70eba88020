(** E7 — Theorem 2.10 and Cohen's strengthening: k-anonymity enables
    predicate singling out.

    Sweeps k and the anonymization algorithm for both attackers:
    the Theorem 2.10 greedy attacker against class-level Mondrian releases
    (≈ 37%, the (1−1/k')^{k'−1} line) and the Cohen-style released-unique
    attacker against member-level releases (≈ 100%). An attribute-count
    ablation shows the "typical datasets have many attributes" hedge doing
    real work: with few attributes the class predicates are too heavy and
    the formal attack fails even though isolations still happen. Each row
    also verifies the attacked releases are genuinely k-anonymous and
    reports their l-diversity / t-closeness, confirming footnote 3. *)

type row = {
  algorithm : string;
  recoding : string;
  k : int;
  attributes : int;  (** total attribute count in the data model *)
  attacker : string;
  success : float;
  isolations_any_weight : float;
  k_anonymous : bool;  (** invariant check on a sample release *)
  l_diversity : int;  (** of a sample release *)
  t_closeness : float;
}

val run : scale:Common.scale -> Prob.Rng.t -> row list

val print : scale:Common.scale -> Prob.Rng.t -> Format.formatter -> unit
