(** Privacy-loss accounting.

    Tracks the (ε, δ) cost of a sequence of differentially private analyses
    over the same data. Two bounds are provided: basic (sequential)
    composition, where budgets add up, and the advanced composition theorem
    (Dwork–Rothblum–Vadhan 2010), which trades a small δ' for a
    ~sqrt(k) dependence on the number of analyses. The paper leans on
    closure under composition as a key advantage of differential privacy
    over k-anonymity (Section 1.1); this module makes the cost concrete. *)

type t

val create : unit -> t

val spend : t -> epsilon:float -> ?delta:float -> string -> unit
(** Record one analysis (default [delta = 0.]). Raises [Invalid_argument]
    on negative arguments or [epsilon = 0]. *)

val spend_many : t -> epsilon:float -> ?delta:float -> n:int -> string -> unit
(** Record a batched release of [n] analyses at [epsilon] (and [delta])
    each, under one label: the composition bounds count [n] steps, the
    telemetry one spend event. [n = 0] records nothing. Raises
    [Invalid_argument] on a negative [n] or invalid budgets. *)

val steps : t -> (string * float * float) list
(** [(label, epsilon, delta)] in the order spent. *)

val basic : t -> float * float
(** Sequential composition: [(Σ εᵢ, Σ δᵢ)]. *)

val advanced : t -> delta_slack:float -> float * float
(** Advanced composition for [k] mechanisms at their maximum ε:
    [ε' = sqrt(2k ln(1/δ')) ε + k ε (e^ε − 1)], [δ' = k·δ_max + δ_slack].
    Raises [Invalid_argument] unless [0 < delta_slack < 1]. *)

val best : t -> delta_slack:float -> float * float
(** The smaller of {!basic} and {!advanced} in ε (with its δ). *)
