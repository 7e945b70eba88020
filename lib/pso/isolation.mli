(** Isolation (Definition 2.1) and its baseline probabilities (Section 2.2).

    A predicate [p] isolates in [x = (x_1..x_n)] when [Σ p(x_i) = 1]. A
    predicate of weight [w] chosen independently of the data isolates with
    probability [n·w·(1−w)^{n−1} ≈ n·w·e^{−n·w}], maximized at [w = 1/n]
    where it is ≈ 1/e ≈ 37% — the paper's birthday example. This module
    provides the analytics the experiments compare against. *)

val isolates : Dataset.Model.t -> Query.Predicate.t -> Dataset.Table.t -> bool
(** Definition 2.1 against a concrete dataset (the model supplies the
    schema). *)

val trivial_isolation_probability : n:int -> w:float -> float
(** [n·w·(1−w)^{n−1}], the exact isolation probability of a data-independent
    weight-[w] predicate against [x ~ D^n]. *)

val max_trivial_probability : n:int -> float
(** The value at the optimum: [(1 − 1/n)^{n−1}], approaching [1/e]. *)

val one_over_e : float

val heavy_band_probability : n:int -> multiplier:float -> float
(** Isolation probability at the paper's "heavy" boundary
    [w = multiplier·log n / n] (footnote 11): [≈ n·w·e^{−n·w} =
    multiplier·log n · n^{−multiplier}] — negligible for [multiplier > 1],
    which is why Definition 2.4 can ignore the heavy band. *)

val negligible_bound : n:int -> c:float -> float
(** The concrete stand-in for "negligible weight" used by the experiments:
    [n^{-c}]. A weight-[n^{-c}] predicate chosen independently of the data
    isolates with probability at most [n·n^{-c} = n^{1-c}] — itself
    vanishing for [c > 1], which is what makes PSO success at such weights
    attributable to the mechanism's leakage. *)
