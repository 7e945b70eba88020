(** Minimal JSON: an AST, a canonical serializer and a strict parser.

    The toolchain has no JSON dependency, and the telemetry artifacts and
    benchmark results need a machine-readable output contract that
    downstream tooling can rely on.
    Serialization is canonical — object keys are emitted in ascending
    lexicographic order regardless of construction order, and floats use
    the shortest decimal form that round-trips — so equal documents have
    equal renderings and diffs are stable across runs. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val number : float -> t
(** [Number f], except non-finite floats (which JSON cannot express)
    become [Null]. *)

val to_string : ?pretty:bool -> t -> string
(** Canonical rendering: object keys sorted, no trailing whitespace.
    [pretty] (default false) adds newlines and two-space indentation.
    Non-finite [Number]s render as [null]. *)

val of_string : string -> (t, string) result
(** Strict RFC 8259 parser (UTF-8, [\uXXXX] escapes decoded, no trailing
    garbage). Errors carry the byte offset. *)

val equal : t -> t -> bool
(** Structural equality, insensitive to object key order. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing keys or non-objects. *)

val to_float : t -> float option
(** [Number] payload. *)

val to_int : t -> int option
(** [Number] payload when integral. *)

val to_list : t -> t list option

val to_string_opt : t -> string option
(** [String] payload. *)
