(** Packed bitsets: the row sets of the compiled query engine.

    One bit per table row, packed 63 to a native int word, so the boolean
    connectives of a predicate become word-wise [land]/[lor]/[lnot] (run
    by the word machine in {!Predicate}) and a count query becomes a
    popcount loop — the same columnar-engine shape as
    Dinur–Nissim-style reconstruction tooling. *)

type t

val create : int -> t
(** All-zeros bitset of the given length. Raises [Invalid_argument] on a
    negative length (here and in [ones]/[init]). *)

val ones : int -> t
(** All-ones bitset (tail bits beyond the length stay clear). *)

val init : int -> (int -> bool) -> t
(** [init n f] sets bit [i] iff [f i], filling word by word. *)

val get : t -> int -> bool
(** Raises [Invalid_argument] out of range. *)

val count : t -> int
(** Number of set bits. *)

val indices : t -> int array
(** Positions of the set bits, ascending. *)

val popcount16 : int -> int
(** Set bits of the low 16 bits only — one table load, for masks already
    known to fit (e.g. the reconstruction attack's [n <= 16] subsets). *)

(** {1 Packed representation}

    The word machine ({!Predicate.count_many}) runs a predicate's
    connectives one word-wise loop per operator, reading many atom
    bitsets' words directly. That needs the representation; nothing else
    should. *)

val word_count : int -> int
(** Words backing a bitset of the given length. *)

val live_mask : int -> int
(** Mask of the tail word's live bits for a bitset of the given length
    (all ones for a full tail). *)

val unsafe_words : t -> int array
(** The packed words. Treat as read-only: mutating them breaks the
    clear-tail invariant [count] relies on. *)

val unsafe_of_words : len:int -> int array -> t
(** Adopt an array as a bitset (no copy). The caller must have cleared
    the tail bits beyond [len]. Raises [Invalid_argument] on a negative
    length or a word count that does not match [word_count len]. *)

val unsafe_count_words : int array -> int -> int -> int
(** [unsafe_count_words words nw tail]: popcount of [words.(0 .. nw-1)]
    with the final word masked by [tail] ([-1] for no masking). C kernel;
    [nw] must not exceed the array length. *)

val unsafe_count_and : int array -> int array -> int -> int -> int
(** Popcount of the word-wise [land] of two arrays, final word masked —
    a root [And] fused into the counting pass without a destination. *)

val unsafe_count_or : int array -> int array -> int -> int -> int
(** Popcount of the word-wise [lor] of two arrays, final word masked. *)
