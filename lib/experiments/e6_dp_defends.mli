(** E6 — Theorem 2.9: differential privacy prevents predicate singling out.

    The exact-count composition attacker of E5 is re-run against
    Laplace-noised counts across ε. The shape: at any constant ε the attack
    collapses to ~0; only absurdly large budgets (ε in the hundreds for this
    workload, i.e. per-query noise below half a count) restore the
    exact-count behaviour. A "no noise" row anchors the comparison. *)

type row = {
  epsilon : float option;  (** [None] = exact counts *)
  per_query_scale : float;  (** Laplace scale actually applied per answer *)
  success : float;
  ci : float * float;
}

val run : scale:Common.scale -> Prob.Rng.t -> row list

val print : scale:Common.scale -> Prob.Rng.t -> Format.formatter -> unit
