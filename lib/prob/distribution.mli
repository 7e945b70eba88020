(** Finite discrete probability distributions.

    The paper's data-generation model draws dataset records i.i.d. from a
    fixed distribution [D] over a data universe [X] (Section 2.2). This
    module represents such distributions with exact point masses, so that
    predicate weights [w_D(p) = Pr_{x ~ D} (p x = 1)] can be computed exactly
    rather than merely estimated. *)

type 'a t
(** A distribution over finitely many values of type ['a]. *)

val of_weights : ('a * float) list -> 'a t
(** [of_weights assoc] normalizes nonnegative weights into a distribution.
    Zero-weight items are dropped. Raises [Invalid_argument] if the list is
    empty, all weights are zero, or any weight is negative or not finite. *)

val uniform : 'a list -> 'a t
(** Uniform distribution over a non-empty list of distinct values. *)

val singleton : 'a -> 'a t
(** Point mass. *)

val support : 'a t -> 'a array
(** Values with nonzero mass, in insertion order. *)

val prob : 'a t -> 'a -> float
(** Point mass of a value ([0.] off-support). Uses structural equality. *)

val sample : Rng.t -> 'a t -> 'a
(** Draw one value: inverse CDF over the stored cumulative table, through a
    guide table built once by [of_weights] (Chen–Asau indexed search, at
    most [2n] words), so a draw costs O(1) expected steps. It consumes one
    {!Rng.uniform} and maps it to exactly the value a binary search of the
    cumulative table would: the first whose cumulative mass exceeds it. *)

val map : ('a -> 'b) -> 'a t -> 'b t
(** Pushforward; masses of values that collide under [f] are merged. *)

val product : 'a t -> 'b t -> ('a * 'b) t
(** Independent product distribution. *)

val expect : ('a -> float) -> 'a t -> float
(** Exact expectation of a function. *)

val entropy : 'a t -> float
(** Shannon entropy in bits. *)

val min_entropy : 'a t -> float
(** Min-entropy [-log2 (max_x Pr x)] in bits. The paper invokes moderate
    min-entropy as the condition under which Leftover-Hash-Lemma-style
    predicates of any prescribed weight exist. *)

val total_variation : 'a t -> 'a t -> float
(** Total-variation distance (used by the t-closeness check). *)

val zipf : int -> int t
(** [zipf k] is the Zipf distribution on ranks [0..k-1] with exponent 1
    (rank [i] has weight [1/(i+1)]); used to model movie-popularity skew. *)
