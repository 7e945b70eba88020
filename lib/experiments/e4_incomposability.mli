(** E4 — Theorem 2.7: the explicit incomposable pair.

    Runs the pad construction's three games (attack M1 alone, M2 alone, and
    the composition) across dataset sizes. The shape: marginal attacks stay
    at 0, the joint attack stays at ~100%, independent of n. *)

type row = {
  n : int;
  target : string;  (** "M1", "M2" or "(M1,M2)" *)
  success : float;
  ci : float * float;
}

val run : ?pool:Parallel.Pool.t -> scale:Common.scale -> Prob.Rng.t -> row list

val print : scale:Common.scale -> Prob.Rng.t -> Format.formatter -> unit
