(** Deterministic pseudo-random number generator.

    All randomness in the library flows through this module so that every
    experiment, attack and mechanism is exactly reproducible from a seed.
    The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): fast,
    statistically strong for simulation purposes, and cheap to split into
    independent streams. It is {e not} cryptographically secure; where the
    paper needs "cryptographic" objects (hash-bucket predicates, one-time
    pads) we only need their statistical behaviour at simulation scale. *)

type t
(** Mutable generator state: 64 bits, updated in place, so advancing the
    generator allocates nothing. [int], [int_in] and [bool] allocate no
    word per draw; [uniform] and [bits64] allocate only their boxed
    result when called from another module. *)

val create : ?seed:int64 -> unit -> t
(** [create ~seed ()] makes a fresh generator. The default seed is fixed so
    that unseeded runs are reproducible. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]; the two
    subsequent streams are (statistically) independent. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val uniform : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] is a sorted [k]-subset of
    [\[0, n)]. Raises [Invalid_argument] if [k > n] or [k < 0]. *)
