(** Descriptive statistics and interval estimates for experiment reporting. *)

type summary = {
  count : int;
  mean : float;
  variance : float;  (** unbiased sample variance *)
  std : float;
  min : float;
  max : float;
}

val summarize : float array -> summary
(** Raises [Invalid_argument] on an empty array. *)

val mean : float array -> float

val variance : float array -> float
(** Unbiased sample variance ([0.] for arrays of length < 2). *)

val std : float array -> float

val quantile : float array -> float -> float
(** [quantile xs q] with [0 <= q <= 1], linear interpolation between order
    statistics. *)

val proportion_ci : successes:int -> trials:int -> float * float
(** 95% Wilson score interval for a binomial proportion — used to report
    attack success probabilities with honest error bars. *)

val histogram : bins:int -> lo:float -> hi:float -> float array -> int array
(** Fixed-width histogram; values outside [\[lo, hi\]] are clamped into the
    first/last bin. *)

val pearson : float array -> float array -> float
(** Pearson correlation coefficient. Raises [Invalid_argument] on length
    mismatch or arrays shorter than 2. *)

val fraction : ('a -> bool) -> 'a array -> float
(** Fraction of elements satisfying a predicate ([0.] for empty input). *)
