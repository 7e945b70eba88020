(** Shared generalization machinery.

    A {e scheme} assigns a generalization hierarchy to each quasi-identifier.
    Full-domain recoding (used by Datafly and Samarati) applies one level per
    attribute uniformly; {!cover} computes the tightest single generalized
    value covering a set of raw values (used by Mondrian's local
    recoding). *)

type scheme = (string * Dataset.Hierarchy.t) list
(** Hierarchy per quasi-identifier attribute name. *)

val full_domain :
  Dataset.Schema.t -> scheme -> levels:(string * int) list -> Dataset.Table.t -> Dataset.Gtable.t
(** Recode every row: [Identifier] attributes are always fully suppressed;
    each scheme attribute is generalized to its level from [levels]
    (default level 0); all other attributes are kept exact. Raises
    [Invalid_argument] if [levels] names an attribute without a
    hierarchy. *)

val suppress_rows : Dataset.Gtable.t -> int array -> Dataset.Gtable.t
(** Replace the given rows by all-[Any] rows (outlier suppression). *)

val cover : ?hierarchy:Dataset.Hierarchy.t -> Dataset.Value.t array -> Dataset.Gvalue.t
(** Tightest covering generalized value for a non-empty array: equal values
    give [Exact]; same-length strings give their common [Prefix]; numeric
    values (ints, dates, floats) give a range; with a categorical hierarchy,
    the lowest common ancestor; otherwise [Any]. Decided in one pass over
    the values (all equal, all strings, numeric, integral, and the float
    extrema) before one more over the strings or the hierarchy when those
    branches need it. Raises [Invalid_argument] on an empty array. *)

val quasi_identifiers : Dataset.Schema.t -> string list
(** Shorthand for the schema's quasi-identifier attribute names. *)
