(** Interactive subset-count oracles over a binary dataset.

    The reconstruction setting of Theorem 1.1: the dataset is
    [x ∈ {0,1}^n]; an analyst issues subset queries [q ⊆ [n]] and receives
    [a_q ≈ Σ_{i∈q} x_i]. The oracle counts the queries asked and adds the
    noise of one of the two defenses the theorem leaves ("introduce
    sufficiently large error"); the other, "limit the number of queries",
    is {!Curator}'s [Limited] policy. *)

type t

val n : t -> int

val asked : t -> int
(** Number of queries served so far. *)

val ask : t -> int array -> float
(** Answer one subset query (indices into [0, n)); raises
    [Invalid_argument] on out-of-range indices. *)

val ask_many : t -> int array array -> float array
(** Answer a batch, drawing noise in ascending index order — identical
    answers to asking each query in turn. *)

val exact : int array -> t
(** Noise-free answers. Dataset entries must be 0/1. *)

val bounded_noise : Prob.Rng.t -> magnitude:float -> int array -> t
(** Answers perturbed by independent uniform noise in [[-magnitude,
    +magnitude]] — "query answers guaranteed to be within error α". *)

val laplace : Prob.Rng.t -> scale:float -> int array -> t
(** Laplace-mechanism answers with per-query scale (unbounded error tails,
    bounded expectation). *)

val true_answer : t -> int array -> float
(** The noiseless answer — for harness-side error measurement only; not
    counted in {!asked}. *)
