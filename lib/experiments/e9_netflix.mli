(** E9 — Narayanan–Shmatikov sparse-data de-anonymization (Section 1).

    For each trial a random subscriber is targeted; the attacker knows a few
    imprecise (movie, rating, date) triples and runs Scoreboard-RH against
    the released ratings. The shape: success climbs steeply with the amount
    of auxiliary knowledge — "little partial knowledge ... can lead to the
    exact re-identification of the subscriber". *)

type row = {
  users : int;
  movies : int;
  aux_items : int;
  correct : float;  (** matched and it was the right subscriber *)
  wrong : float;  (** matched someone else (eccentricity fooled) *)
  abstained : float;  (** eccentricity test withheld a guess *)
}

val run : scale:Common.scale -> Prob.Rng.t -> row list

val print : scale:Common.scale -> Prob.Rng.t -> Format.formatter -> unit
