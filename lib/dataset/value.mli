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
