(** E3 — Theorem 2.5: the count mechanism prevents predicate singling out.

    Runs the PSO game against M#q across dataset sizes and fits the decay of
    the best-effort negligible-weight attacker's success; ablates the
    concrete negligible-weight exponent c (bound n^-c). The shape: success
    decays polynomially in n at every c, i.e. no plateau a secure mechanism
    would forbid. *)

type row = {
  n : int;
  c : float;  (** weight-bound exponent *)
  success : float;
  isolations_any_weight : float;  (** incl. heavy predicates, for context *)
}

val run : ?pool:Parallel.Pool.t -> scale:Common.scale -> Prob.Rng.t -> row list

val decay : row list -> c:float -> Prob.Decay.shape
(** Decay classification of success vs n at a fixed exponent. *)

val print : scale:Common.scale -> Prob.Rng.t -> Format.formatter -> unit
