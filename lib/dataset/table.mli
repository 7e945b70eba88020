(** In-memory tables: a schema plus an array of rows.

    A table is the paper's dataset [x = (x_1, ..., x_n) ∈ X^n]; row order is
    meaningful only as storage — the formalization explicitly rules out
    isolation "by position", and nothing in the attack code depends on it. *)

type row = Value.t array

type t

val make : Schema.t -> row array -> t
(** Validates that every row has the schema's arity and every value matches
    its attribute's kind (or is [Null]). Rows are not copied; treat them as
    immutable after construction. Raises [Invalid_argument] on violations. *)

val schema : t -> Schema.t

val nrows : t -> int

val id : t -> int
(** A process-unique generation id. Every table — including every derived
    table ([filter], [select], [append], [project], [map_rows]) — gets a
    fresh id, so caches keyed by [(id, key)] are invalidated by
    construction when the table changes. *)

val row : t -> int -> row

val rows : t -> row array
(** The underlying storage (not a copy). *)

val value : t -> int -> string -> Value.t
(** [value t i name] is row [i]'s value for the named attribute. *)

val project : t -> string list -> t
(** Column subset/reorder. *)

val filter : (row -> bool) -> t -> t

val count : (row -> bool) -> t -> int

val select : t -> int array -> t
(** Row subset by indices (rows shared, not copied). *)

val append : t -> t -> t
(** Raises [Invalid_argument] if the schemas differ. *)

val group_by : t -> string list -> (Value.t list * int array) list
(** Partition row indices by their values on the named attributes; group keys
    are in first-appearance order. *)

val distinct : t -> string list -> int
(** Number of distinct value combinations on the named attributes. *)

val map_rows : (row -> row) -> t -> t
(** Applies a row transformation; the result is re-validated against the
    schema. *)

val fold : ('acc -> row -> 'acc) -> 'acc -> t -> 'acc

val iter : (int -> row -> unit) -> t -> unit

val pp : ?max_rows:int -> Format.formatter -> t -> unit
(** Fixed-width textual rendering (for examples and reports). *)

(** {1 Columnar view}

    Per-attribute dictionary-encoded columns for the compiled query engine:
    categorical scans compare int codes, numeric range scans read a flat
    float array, and per-value predicates need evaluating only once per
    distinct value instead of once per row. Each column is built on its
    own, the first time a query reads that attribute, so a query that
    reads one attribute of a wide table pays for one column. *)

type column = {
  codes : int array;  (** dictionary code per row (dense, first-appearance) *)
  dict : Value.t array;  (** code -> value *)
  code_index : int Map.Make(Value).t;  (** value -> code ({!Value.compare}) *)
  floats : float array;  (** [Value.to_float] per row; [nan] when absent *)
}

val column : t -> int -> column
(** [column t j] is the columnar view of schema attribute [j]. Built
    lazily on first use and cached on the table; safe to call from
    several domains (an idempotent race at worst). Raises
    [Invalid_argument] if [j] is not an attribute index. *)

val code_of : column -> Value.t -> int option
(** Dictionary lookup under {!Value.compare} equality — exactly the
    equality [Predicate] atoms use, so a value absent from the dictionary
    matches no row. *)
