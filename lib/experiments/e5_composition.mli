(** E5 — Theorem 2.8: composing count mechanisms breaks PSO, with the
    crossover governed by the number of digest bits learned.

    Sweeps ℓ (bits per bucket). The attacker's predicate has weight
    [2^{-ℓ}/n]; it only counts as a PSO success once that weight crosses
    below the bound [n^{-c}], i.e. once [ℓ > (c−1)·log2 n] — the concrete
    face of the theorem's ω(log n) threshold. Also ablates the
    single-bucket (≈37%-capped) vs scouted (→100%) attacker. *)

val model : Dataset.Model.t
(** The data model every trial's table is sampled from. *)

type row = {
  n : int;
  ell : int;
  variant : string;  (** "single" or "scouted" *)
  queries : int;
  predicate_weight : float;
  weight_bound : float;
  success : float;
  isolations_any_weight : float;
}

val run : ?pool:Parallel.Pool.t -> scale:Common.scale -> Prob.Rng.t -> row list

val print : scale:Common.scale -> Prob.Rng.t -> Format.formatter -> unit
