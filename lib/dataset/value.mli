(** Attribute values.

    A dataset record (the paper's [x_i ∈ X]) is an array of these values,
    one per schema attribute. *)

type date = { year : int; month : int; day : int }

type t =
  | Int of int
  | Float of float
  | String of string
  | Date of date
  | Bool of bool
  | Null  (** missing / suppressed source value *)

type kind = Kint | Kfloat | Kstring | Kdate | Kbool

val kind_of : t -> kind option
(** [None] for [Null]. *)

val kind_name : kind -> string

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order; values of different kinds compare by kind, [Null] first. *)

val hash : t -> int
(** A hash that agrees with {!equal}: equal values (dates of one ordinal,
    every [nan], both zeros) hash alike. Non-negative. *)

val hash_mix : int -> int
(** A finaliser for an int hash: spreads every bit of its argument into
    the low bits, so keys that share a power-of-two factor or a low-bit
    pattern (aligned ranges, rounded amounts) still fill the buckets of a
    table that masks the low bits. Non-negative; allocates nothing. *)

val to_string : t -> string
(** Round-trippable with {!of_string} given the kind. *)

val of_string : kind -> string -> t
(** Parses the {!to_string} rendering (and plain literals). Raises
    [Failure] on malformed input. The empty string parses as [Null]. *)

val to_float : t -> float option
(** Numeric view: ints and floats as themselves, dates as their day ordinal,
    bools as 0/1; [None] for strings and [Null]. *)

val date_ordinal : date -> int
(** Monotone day encoding (not a true calendar count; only order and rough
    spacing matter here). *)

val make_date : year:int -> month:int -> day:int -> t
(** Raises [Invalid_argument] on out-of-range month or day. *)
