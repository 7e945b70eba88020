(** CI-based assertions: the replacement for magic-number tolerances in
    statistical tests.

    Each assertion raises {!Failed} with a diagnostic message when the
    claimed population quantity falls outside the sample's confidence
    interval (or a goodness-of-fit p-value falls below [alpha]). With
    seeded generators the outcome is deterministic; the confidence level
    states the false-alarm probability the tolerance corresponds to {e had}
    the seed been random. Defaults: [confidence = 0.999],
    [alpha = 0.001]. *)

exception Failed of string

val mean : ?confidence:float -> expected:float -> string -> float array -> unit
(** Asserts the population mean equals [expected], by normal interval. *)

val variance : ?confidence:float -> expected:float -> string -> float array -> unit
(** Asserts the population variance equals [expected], by chi-square
    interval. *)

val proportion :
  ?confidence:float -> expected:float -> string -> successes:int -> trials:int -> unit
(** Asserts the success probability equals [expected], by Clopper–Pearson
    interval. *)

val proportion_within :
  ?confidence:float -> lo:float -> hi:float -> string -> successes:int -> trials:int -> unit
(** Asserts the whole Clopper–Pearson interval sits inside [[lo, hi]] —
    for banded claims without an exact analytic value. *)

val uniform : ?alpha:float -> string -> int array -> unit
(** Chi-square test of uniformity over the cells. *)

val ks_cdf : ?alpha:float -> cdf:(float -> float) -> string -> float array -> unit
(** One-sample Kolmogorov–Smirnov against a continuous CDF. *)
