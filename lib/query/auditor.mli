(** Exact-disclosure query auditing.

    Theorem 1.1 leaves a curator two defenses: add enough noise, or limit
    the queries. A crude limit is a counter ({!Curator}'s [Limited]); this
    module implements the classical {e auditing} alternative for exact
    subset-sum queries over a binary dataset: refuse a query if answering
    it (together with everything already answered) would determine some
    individual's bit exactly.

    Deciding boolean auditability is coNP-hard in general
    (Kleinberg–Papadimitriou–Raghavan 2000), so two modes are provided:

    - [Exact]: maintain the full set of datasets consistent with the
      answers (enumeration; restricted to small [n]). Sound and complete
      by construction.
    - [Heuristic]: two scalable detectors — {e linear} (a unit vector
      enters the row space of the answered queries; catches differencing
      like (x₀+x₁+x₂) − (x₁+x₂)) and {e integrality propagation}
      (a subset answered 0 or its full size pins every member, cascading).
      Sound queries are never refused, but rare disclosures slip through:
      a consistent system whose real solution set is a fractional line can
      have a unique 0/1 point. The tests pin one such instance.

    Either way, auditing illustrates {e why} the noise defense won: even
    refusing every provably-unsafe query, the answered remainder falls to
    least-squares reconstruction — approximate recovery needs no exactly
    determined bit (see the tests). *)

type mode =
  | Exact  (** enumeration over all consistent datasets; requires [n <= 20] *)
  | Heuristic  (** linear elimination + integrality propagation; any [n] *)

type t

type answer =
  | Answered of float
  | Refused  (** answering would fully determine some record's bit *)

val create : ?mode:mode -> int array -> t
(** Audit an exact oracle over the given binary dataset. The default mode
    is [Exact] when [n <= 16] and [Heuristic] otherwise. Raises
    [Invalid_argument] on non-0/1 entries, or on [Exact] with [n > 20]. *)

val mode : t -> mode

val ask : t -> int array -> answer
(** Submit a subset query (indices into [0, n)). Answered queries are added
    to the audit state. Raises [Invalid_argument] on out-of-range
    indices. *)

val answered : t -> int
(** Number of queries answered so far. *)

val refused : t -> int

val would_disclose : t -> int array -> bool
(** The audit predicate itself, without consuming the query. *)
