(** A fixed-size mergeable quantile sketch (HDR-histogram style log-linear
    buckets, 64 octaves x 16 sub-buckets): the one distribution metric
    for noise magnitudes, latencies and per-query costs.

    Quantile reads carry a bounded ~3% relative error and are clamped into
    the exact observed [min, max]. All state is integer bucket counts plus
    the two extrema, so {!merge_into} is commutative and associative:
    sketches merged in any grouping yield identical quantiles, which keeps
    sketch-derived metrics byte-identical at every [--jobs] for a
    deterministic sample stream. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one sample. Zero, negative and non-finite samples land in a
    dedicated underflow bucket (reported as [0.] by quantile reads). *)

val add_n : t -> float -> int -> unit
(** Record [k] copies of one sample in O(1). Raises [Invalid_argument] on
    a negative [k]. *)

val merge_into : into:t -> t -> unit
(** Accumulate [src] into [into]; [src] is unchanged. *)

val copy : t -> t

val diff : newer:t -> older:t -> t
(** [diff ~newer ~older] is the window sketch between two cumulative
    captures of one sample stream (bucket-wise subtraction; negative
    deltas clamp to zero). Window extrema are estimated from the occupied
    bucket range, so quantile reads keep the ~3% bucket error but lose
    the exact [min, max] clamp of a directly-built sketch. *)

val reset : t -> unit

val is_empty : t -> bool

val count : t -> int

val min_value : t -> float
(** Exact smallest finite positive sample ([nan] if none). *)

val max_value : t -> float
(** Exact largest finite positive sample ([nan] if none). *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0, 1] (clamped): the bucket-midpoint value
    at rank [ceil q*n], clamped into [min, max]; [nan] on an empty
    sketch. *)
