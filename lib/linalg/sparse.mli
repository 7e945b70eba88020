(** Compressed sparse row (CSR) matrices.

    The dense [Matrix] representation materializes m×n floats, which caps
    reconstruction at block-toy scale. A census block system has 133 rows
    over 2400 joint cells but under 10k nonzeros, and the solvers only ever
    need [A x] and [Aᵀ y] — so CSR (row pointers + column indices + values)
    is the scale-out representation. The SpMV kernels run in C with no
    per-row allocation and are bit-identical to the dense loops for finite
    inputs (same ascending-column accumulation order, no FMA contraction). *)

type t = private {
  m : int;
  n : int;
  row_ptr : int array;
      (** length [m + 1]; row [i] occupies [\[row_ptr.(i), row_ptr.(i+1))] *)
  col_idx : int array;  (** length [nnz], ascending within each row *)
  values : float array;  (** length [nnz] *)
}
(** Readable so that hot loops can walk the rows without a closure per
    entry; only the builders below can make one, so the invariants hold. *)

val of_rows : cols:int -> (int * float) list array -> t
(** [of_rows ~cols rows] builds a CSR matrix from per-row association lists
    of [(column, value)] entries. Entries are sorted by column; duplicate
    columns within a row and out-of-range columns raise
    [Invalid_argument]. Explicit zero entries are kept. *)

val of_subset_queries : query:int array array -> n:int -> t
(** Sparse equivalent of {!Matrix.of_subset_queries}: row [q] has value 1 at
    the indices of [query.(q)]. Duplicate indices within a query are
    collapsed to a single 1 (the dense builder's [set] is idempotent). *)

val of_matrix : Matrix.t -> t
(** Drops exact-zero entries. *)

val to_matrix : t -> Matrix.t

val rows : t -> int

val cols : t -> int

val row_nnz : t -> int -> int
(** Number of stored entries in one row. *)

val fold_row : t -> int -> init:'a -> f:('a -> int -> float -> 'a) -> 'a
(** [fold_row a i ~init ~f] folds [f acc j a_ij] over the stored entries of
    row [i] in ascending column order, without copying. *)

val mul_vec : t -> Vector.t -> Vector.t
(** [mul_vec a x] is [A x] via the C SpMV kernel. Raises [Invalid_argument]
    on dimension mismatch. *)

val mul_vec_into : t -> Vector.t -> Vector.t -> unit
(** [mul_vec_into a x y] stores [A x] into [y] with no allocation. *)

val tmul_vec_into : t -> Vector.t -> Vector.t -> unit
(** [tmul_vec_into a y out] stores [Aᵀ y] into [out] (zeroing it first) with
    no allocation. *)

val mul_vec_ml : t -> Vector.t -> Vector.t
(** Pure-OCaml reference implementation of {!mul_vec}; the property tests
    cross-check the C kernel against it. *)

val tmul_vec_ml : t -> Vector.t -> Vector.t
(** Pure-OCaml reference implementation of {!tmul_vec_into}, returning a
    fresh vector. *)

val restrict_cols : t -> keep:int array -> t
(** [restrict_cols a ~keep] is the submatrix of the columns listed in
    [keep] (strictly increasing), renumbered to [0 .. length keep - 1].
    Used to eliminate variables pinned by interval propagation before a
    solve. Raises [Invalid_argument] if [keep] is not strictly increasing
    or out of range. *)

val scale_rows : t -> w:float array -> t
(** [scale_rows a ~w] multiplies row [i] by [w.(i)] — row equilibration
    for ill-conditioned systems (e.g. a dense total row next to sparse
    marginal rows). Raises [Invalid_argument] on a length mismatch. *)
