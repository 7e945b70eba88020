(** Database reconstruction attacks (Dinur–Nissim, PODS 2003 — the paper's
    Theorem 1.1, and the engine of its title).

    Setting: a dataset [x ∈ {0,1}^n] behind a subset-count oracle with
    per-answer error at most α. Theorem 1.1: reconstruction to within a
    small Hamming fraction is possible (i) with all [2^n] queries when
    [α = O(n)], and (ii) with polynomially many random queries when
    [α = O(√n)]. Three attackers are provided: the exhaustive
    consistency-search of (i), and least-squares and LP-decoding versions
    of (ii). *)

type result = {
  estimate : int array;  (** the reconstructed candidate x̃ ∈ {0,1}^n *)
  hamming_errors : int;  (** #entries where x̃ disagrees with the truth *)
  agreement : float;  (** 1 − errors/n *)
  queries_used : int;
  converged : bool;
      (** whether the decode's solver met its stopping test: always true
          for {!exhaustive}; {!least_squares}' box solve flag; for
          {!lp_decode}, false when the simplex stalled at its pivot cap
          ([Linalg.Simplex.Stalled], whose vertex is still rounded) *)
}

val blatant_non_privacy_threshold : float
(** The fraction-correct bound (95%) above which the paper calls a mechanism
    "blatantly non-private". *)

val exhaustive : Query.Oracle.t -> truth:int array -> result
(** Theorem 1.1(i): asks all [2^n] subset queries and returns the candidate
    minimizing the maximum answer violation. Exponential: rejects [n > 16]
    with [Invalid_argument]. *)

val least_squares :
  Prob.Rng.t -> Query.Oracle.t -> queries:int -> truth:int array -> result
(** Theorem 1.1(ii): asks [queries] random subset queries (each index
    included with probability 1/2), solves the box-constrained least-squares
    problem [min_{z∈[0,1]^n} ‖Az − a‖²] and rounds. [converged] is false
    when the solve stopped at its 2,000-iteration cap. *)

val lp_decode :
  Prob.Rng.t -> Query.Oracle.t -> queries:int -> truth:int array -> result
(** LP-decoding variant (Dwork–McSherry–Talwar 2007): minimize total slack
    [Σ s_q] subject to [|(Az)_q − a_q| ≤ s_q, 0 ≤ z ≤ 1], then round.
    More robust to adversarial (non-random) noise; slower. *)

val agreement : int array -> int array -> float
(** Fraction of agreeing entries. Raises [Invalid_argument] on length
    mismatch. *)
