(** Generalized attribute values.

    A k-anonymizer replaces exact cell values with coarser descriptions —
    ranges, truncated ZIP prefixes, hierarchy categories, or full
    suppression. A generalized value is exactly a unary predicate on raw
    values; the PSO attack on k-anonymity (Theorem 2.10) turns each released
    equivalence class into the conjunction of its cells' {!matches}
    predicates. *)

type t =
  | Exact of Value.t
  | Int_range of int * int  (** inclusive bounds *)
  | Float_range of float * float  (** [lo, hi) half-open *)
  | Prefix of string * int  (** [Prefix (s, k)]: first [k] characters of [s] retained *)
  | Category of { label : string; members : Value.t list }
      (** a generalization-hierarchy node and the leaf values beneath it *)
  | Any  (** fully suppressed: matches everything *)

val matches : t -> Value.t -> bool
(** Does a raw value fall under this generalized description? [Null] matches
    only [Any]. *)

val of_value : Value.t -> t

val is_suppressed : t -> bool

val to_string : t -> string
(** Human rendering: ["1234*"], ["30-39"], ["PULM"], ["*"]. *)

val span : t -> domain_size:float -> float
(** Fraction of a numeric domain of the given size covered by this value —
    the ingredient of NCP-style information-loss metrics. [Exact] spans 0,
    [Any] spans 1. For categorical values, the fraction of members. *)

val equal : t -> t -> bool

val hash : t -> int
(** A hash that agrees with {!equal}: equal generalized values hash alike
    (a [Prefix] by its kept characters and length, a [Category] by its
    label, [Exact] values as {!Value.hash}). Non-negative. *)
