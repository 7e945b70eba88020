(** E2 — the trivial-attacker baseline (Section 2.2's birthday example).

    A weight-w predicate chosen without looking at the data isolates with
    probability n·w·(1−w)^{n−1}; at w = 1/n this is ≈ 37%. The experiment
    reproduces the paper's 365-birthday computation analytically and
    empirically, and sweeps w to show the two negligible regimes on either
    side — the fact that forces Definition 2.3 to be weakened into
    Definition 2.4. *)

val model : Dataset.Model.t
(** 365 uniform birthdays and a 4096-valued noise attribute: the data
    model every trial's table is sampled from. *)

type row = {
  n : int;
  weight : float;
  analytic : float;
  empirical : float;
  ci : float * float;
}

val run : ?pool:Parallel.Pool.t -> scale:Common.scale -> Prob.Rng.t -> row list

val print : scale:Common.scale -> Prob.Rng.t -> Format.formatter -> unit
