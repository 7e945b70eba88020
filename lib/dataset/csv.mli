(** Minimal CSV serialization for tables (RFC-4180-style quoting).

    Used by the CLI (`pso_audit synth --out data.csv`) and tested for
    round-tripping; the library itself works on in-memory tables. *)

val to_string : Table.t -> string
(** Header line of attribute names, then one line per row. Cells containing
    commas, quotes or newlines are quoted; [Null] renders as the empty
    cell. *)

val of_string : Schema.t -> string -> Table.t
(** Parses output of {!to_string}. The header must match the schema's
    attribute names exactly. Raises [Failure] on malformed input. *)

val write_file : string -> Table.t -> unit

val gtable_to_string : Gtable.t -> string
(** Generalized releases as CSV, cells rendered with
    {!Gvalue.to_string} ("1234*", "30-39", "PULM", "*"). One-way: the
    rendering is for release/export, not for parsing back. *)

val write_gtable_file : string -> Gtable.t -> unit
