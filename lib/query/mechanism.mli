(** Mechanisms: randomized maps [M : X^n -> Y] (Section 2.2).

    A mechanism consumes a dataset and produces a value in a structured
    output domain: statistical answers, an anonymized release, raw 64-bit
    words (for the pad constructions of Theorem 2.7), or tuples of other
    outputs (composition). Attackers in the PSO game consume exactly this
    output type, so that "the predicate produced by A acts on the records of
    the original dataset and not the output y" is enforced by construction. *)

type output =
  | Scalar of float
  | Vector of float array
  | Release of Dataset.Table.t  (** a (possibly transformed) raw-value table *)
  | Generalized of Dataset.Gtable.t  (** a k-anonymized release *)
  | Words of int64 array  (** opaque fixed-width outputs *)
  | Pair of output * output

type t = {
  name : string;
  run : Prob.Rng.t -> Dataset.Table.t -> output;
}

val run : t -> Prob.Rng.t -> Dataset.Table.t -> output

(** {1 Constructors} *)

val exact_count : Predicate.t -> t
(** Theorem 2.5's [M#q]: the exact number of records satisfying [q]. *)

val exact_counts : Predicate.t array -> t
(** Tuple of exact counts — the composed mechanism of Theorem 2.8.
    Equivalent to [exact_counts_batch (batch qs)]. *)

val laplace_counts : epsilon:float -> Predicate.t array -> t
(** Counts with i.i.d. Laplace([len/epsilon]) noise: an [epsilon]-DP answer
    to the whole vector (sensitivity 1 per query, budget split evenly). *)

(** {1 Batched query sets}

    A [batch] is a predicate array plus its compilation, resolved once per
    schema and reused across every run of every mechanism built from it —
    the PSO game replays one mechanism thousands of times, and schemes like
    {!Pso.Composition} build several mechanisms over the same queries.
    Counts are evaluated through {!Engine.counts}: one shared columnar
    scan with batch-wide atom dedup (and under the [Checked] engine, every
    batch answer compared with the interpreter's). Outputs are identical
    to the unbatched constructors on every input. *)

type batch

val batch : Predicate.t array -> batch

val batch_queries : batch -> Predicate.t array

val exact_counts_batch : ?pool:Parallel.Pool.t -> batch -> t
(** [exact_counts] evaluating through the shared batch. With [?pool],
    large batches fan across the domain pool (deterministic in-order
    combine — see {!Engine.count_many}). *)

val laplace_counts_batch :
  ?pool:Parallel.Pool.t -> epsilon:float -> batch -> t
(** [laplace_counts] over a shared batch: batched exact counts, then one
    bulk noise pass drawing in ascending index order — byte-identical to
    the sequential per-count draws at every [--jobs]. *)

val identity_release : t
(** Publishes the dataset as-is (the trivially non-anonymous baseline). *)

val compose : t -> t -> t
(** [compose m1 m2] runs both on the same dataset with independent
    randomness and pairs the outputs — the object whose PSO security
    Theorem 2.7 shows can be strictly worse than its parts'. *)

val post_process : string -> (output -> output) -> t -> t
(** [post_process name f m] applies a data-independent transformation to
    [m]'s output — the operation Theorem 2.6 proves cannot create a PSO
    violation. *)

(** {1 Projections} *)

val as_vector : output -> float array option
(** [Scalar] and [Vector] outputs as an array; flattens [Pair]s of such. *)
