(** Interleaved A/B performance gates: the repository's perf gates as one
    fixed table, each a pair of sides timed on the same host in the same
    run.

    A gate times a reference side A and a measured side B in alternating
    rounds (A first in even rounds, B first in odd ones), each side over a
    repetition count calibrated once so that one sample lasts
    milliseconds. Both samples of a round see the same host load, so their
    ratio needs no host-speed reference loop. The statistic is the median
    of the per-round ratios; its interval is a seeded percentile bootstrap,
    deterministic for given samples. A gate fails only when the whole
    interval is on the wrong side of its bound, passes when the whole
    interval is on the right side, and is unresolved when the interval
    straddles the bound. *)

type bound =
  | Overhead of float
      (** B may take at most this multiple of A's time: the per-round
          ratio is [time B / time A]. *)
  | Speedup of float
      (** B must be at least this many times faster than A: the
          per-round ratio is [time A / time B]. *)

type verdict = Pass | Fail | Unresolved

type summary = {
  ratio : float;  (** median per-round ratio *)
  lo : float;  (** 95% bootstrap interval of the median *)
  hi : float;
  verdict : verdict;
}

val min_rounds : int
(** The fewest rounds {!judge} accepts (5). *)

val judge : bound -> a:float array -> b:float array -> summary
(** [judge bound ~a ~b] reads round [i]'s times [a.(i)] and [b.(i)].
    The bootstrap draws 2,000 resamples from a [Prob.Rng] with a fixed
    seed, so the same samples always give the same interval. Raises
    [Invalid_argument] when the arrays differ in length, hold fewer than
    {!min_rounds} rounds, or hold a time that is not finite and
    positive. *)

(** {1 The gate table} *)

type t
(** One gate: a name, a bound, the least time one timed sample lasts,
    and a fixture builder returning its two sides. *)

val all : t list
(** In the order bench/main.exe runs them: SpMV sparse vs dense, the
    ledger and timeline overheads on the batched count, the three predicate
    engine steps (interpreter → compiled, compiled → cached bitsets,
    per-predicate loop → [count_many]) and the noise loop → [Dp.Bulk]. *)

val exercise : t -> unit
(** Run each side once, untimed, with its cross-checks: a cheap
    equivalence test of every pair. Raises [Failure] when a cross-check
    fails. *)

val measure : t -> summary
(** Calibrate, time 21 interleaved rounds and {!judge} them. *)

val pp_line : Format.formatter -> t * summary -> unit
(** One line: name, statistic, interval, bound and verdict. *)
