(** Dense row-major float matrices. *)

type t

val create : rows:int -> cols:int -> float -> t

val of_rows : float array array -> t
(** Raises [Invalid_argument] if rows have differing lengths or there are no
    rows. The row arrays are copied. *)

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val mul_vec : t -> Vector.t -> Vector.t
(** [mul_vec a x] is [A x]. Raises [Invalid_argument] on dimension
    mismatch. *)

val mul_vec_into : t -> Vector.t -> Vector.t -> unit
(** [mul_vec_into a x y] stores [A x] into [y] with no allocation.
    {!mul_vec} is this kernel writing into a fresh vector. Raises
    [Invalid_argument] on dimension mismatch. *)

val tmul_vec_into : t -> Vector.t -> Vector.t -> unit
(** [tmul_vec_into a y out] stores [Aᵀ y] into [out] (zeroing it first)
    with no allocation. *)

val mul : t -> t -> t
(** Matrix product. *)

val transpose : t -> t

val identity : int -> t

val of_subset_queries : query:int array array -> n:int -> t
(** [of_subset_queries ~query ~n] builds the 0/1 query matrix whose row [q]
    has 1 at the indices in [query.(q)] — so that [A x] computes the vector
    of exact subset-count answers for dataset [x]. *)
