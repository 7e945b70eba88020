(** Salted hashing into buckets.

    The paper (Section 2.2) invokes the Leftover Hash Lemma to construct,
    from any distribution with moderate min-entropy, predicates of any
    prescribed weight — e.g. a weight-[1/n] predicate that isolates with
    probability ≈ 37% without looking at the mechanism's output. We realise
    such predicates by hashing a record's serialized form into [m] buckets
    with a salted 64-bit mixer: over a distribution with enough min-entropy
    the bucket indicator has weight ≈ [1/m]. *)

val hash64 : salt:int64 -> string -> int64
(** Salted FNV-1a-then-mixed 64-bit hash of a string: FNV-1a over the
    bytes from the offset basis XOR [salt], then the SplitMix64 finalizer
    of the state plus [salt]. Deterministic across runs; allocates nothing
    per byte. *)

val hash64_prefix : salt:int64 -> Bytes.t -> int -> int64
(** [hash64_prefix ~salt b len] is [hash64 ~salt (Bytes.sub_string b 0 len)]
    without the copy, for callers that write their input into a reused
    buffer. Raises [Invalid_argument] unless [0 <= len <= Bytes.length b]. *)

val bucket : salt:int64 -> buckets:int -> string -> int
(** [bucket ~salt ~buckets s] maps [s] into [\[0, buckets)]. Raises
    [Invalid_argument] if [buckets <= 0]. *)

val bit : salt:int64 -> index:int -> string -> bool
(** [bit ~salt ~index s] is the [index]-th bit (0..63) of [hash64 ~salt s];
    the composition attacker of Theorem 2.8 learns these bits one count
    query at a time. *)
