(** Table schemas: named, typed attributes annotated with their privacy role.

    The role annotations drive the anonymizers (quasi-identifiers are the
    generalization targets; identifiers are dropped or redacted; sensitive
    attributes are preserved and checked by l-diversity / t-closeness). *)

type role =
  | Identifier  (** directly identifying: name, SSN, medical record number *)
  | Quasi_identifier  (** linkable in combination: ZIP, birth date, sex *)
  | Sensitive  (** the protected payload: disease, rating, income *)
  | Insensitive

type attribute = { name : string; kind : Value.kind; role : role }

type t

val make : attribute list -> t
(** Raises [Invalid_argument] on duplicate or empty attribute names, or an
    empty attribute list. *)

val arity : t -> int

val attributes : t -> attribute array
(** A copy, in declaration order. *)

val attribute : t -> int -> attribute

val names : t -> string list

val index_of : t -> string -> int
(** Raises [Not_found] for unknown names. *)

val mem : t -> string -> bool

val with_role : t -> role -> string list
(** Names of the attributes holding a given role. *)

val equal : t -> t -> bool

val project : t -> string list -> t
(** Schema restricted to the named attributes, in the given order. Raises
    [Not_found] on unknown names. *)
