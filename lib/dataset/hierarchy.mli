(** Generalization hierarchies.

    A hierarchy is a ladder of increasingly coarse views of one attribute:
    level 0 is the exact value, the top level is full suppression. This is
    the "hierarchical generalization" of Samarati–Sweeney (footnote 4 of the
    paper: drop trailing ZIP digits, widen age into ranges, climb a disease
    taxonomy). *)

type t

val height : t -> int
(** Number of levels, including level 0 (exact) and the top ([Any]). At
    least 2. *)

val apply : t -> level:int -> Value.t -> Gvalue.t
(** Generalize a value to the given level. Levels at or above
    [height - 1] yield [Gvalue.Any]; level 0 yields [Exact]. Raises
    [Invalid_argument] on negative levels. *)

val zip_prefix : digits:int -> t
(** ZIP-code ladder for [digits]-character string codes: level l keeps the
    first [digits - l] characters. Height is [digits + 1]. *)

val int_ranges : name:string -> lo:int -> widths:int list -> t
(** Numeric ladder: level l >= 1 buckets integers into width [List.nth widths
    (l-1)] intervals aligned to [lo]. Widths must be strictly increasing and
    positive. *)

val date_ladder : t
(** Dates: exact → calendar month → year → decade → [Any]. *)

type tree = Leaf of Value.t | Node of string * tree list

val categorical : name:string -> tree -> t
(** Taxonomy ladder: level l maps a leaf to its ancestor l steps up (clamped
    at the root, which still renders as a labelled category; the level above
    the root is [Any]). Raises [Invalid_argument] if the tree has duplicate
    leaves or is a bare leaf. *)

val leaves : t -> Value.t list
(** For categorical hierarchies, the leaf domain; [[]] otherwise. *)
