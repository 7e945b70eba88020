(** E1 — Theorem 1.1 / the Fundamental Law of Information Recovery.

    Sweeps the answer-error magnitude α for the three reconstruction
    attackers and reports the fraction of the dataset recovered. The shape
    to reproduce: near-perfect reconstruction while α ≪ √n (polynomial
    attacks) or α ≪ n (exhaustive attack), collapsing toward the 50%
    guessing floor once the error crosses the theorem's thresholds. *)

type row = {
  attack : string;
  n : int;
  queries : int;
  alpha : float;
  agreement : float;  (** mean fraction of entries recovered *)
  blatant : bool;  (** agreement above the blatant-non-privacy threshold *)
}

val run : ?pool:Parallel.Pool.t -> scale:Common.scale -> Prob.Rng.t -> row list
(** Trials fan out across [pool] (default {!Parallel.Pool.default}); rows
    are identical at every pool size for a given generator state. *)

val print : scale:Common.scale -> Prob.Rng.t -> Format.formatter -> unit
