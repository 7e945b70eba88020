(** Dense float vectors ([float array] with checked operations). *)

type t = float array

val create : int -> float -> t

val dim : t -> int

val dot : t -> t -> float
(** Raises [Invalid_argument] on dimension mismatch. *)

val norm2 : t -> float
(** Euclidean norm. *)

val sub : t -> t -> t

val axpy : float -> t -> t -> unit
(** [axpy a x y] sets [y := a*x + y] in place. *)

val clamp : lo:float -> hi:float -> t -> t
(** Entrywise clamping into [\[lo, hi\]] (projection onto the box). *)

val round01 : t -> t
(** Entrywise rounding to the nearer of [0.] and [1.] — the rounding step of
    the least-squares reconstruction attack. *)

val hamming : t -> t -> int
(** Number of coordinates that differ (exact comparison); callers round
    first. *)
