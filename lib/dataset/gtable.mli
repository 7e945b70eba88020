(** Generalized tables: the output format of k-anonymizers.

    A generalized table has the same schema and row count as its source, but
    each cell holds a {!Gvalue.t}. Rows that carry identical generalized
    values form the release's "equivalence classes" — the objects the PSO
    attack of Theorem 2.10 converts into isolating predicates. *)

type grow = Gvalue.t array

type t

val make : Schema.t -> grow array -> t
(** Raises [Invalid_argument] if any row's arity differs from the schema's. *)

val schema : t -> Schema.t

val nrows : t -> int

val row : t -> int -> grow

val rows : t -> grow array

type eclass = { rep : grow; members : int array }
(** An equivalence class: the shared generalized row and the indices of the
    source rows it covers. *)

val classes : t -> eclass list
(** Equivalence classes in first-appearance order. Two rows are equivalent
    when all their generalized cells are {!Gvalue.equal} — also when they
    render differently ([0.] and [-0.], two dates of one ordinal). Rows
    are bucketed by {!Gvalue.hash} of their cells and compared cell by
    cell within a bucket: expected time linear in the cells read, with no
    cell rendered or copied. *)

val classes_on : t -> string list -> eclass list
(** Equivalence classes computed on the named attributes only (the class
    [rep] keeps the full row of the class's first member; cells outside the
    named attributes may differ between members). k-anonymity proper is
    defined on the quasi-identifier columns. Raises [Not_found] on unknown
    attribute names. *)

val min_class_size_on : t -> string list -> int
(** The size of the smallest of the {!classes_on} the named attributes
    (typically the quasi-identifiers); 0 when there are none. *)

val matches_row : grow -> Table.row -> bool
(** Does a raw row fall under every cell of a generalized row? *)

val pp : ?max_rows:int -> Format.formatter -> t -> unit
