(** The privacy technologies whose legal standing the paper analyzes. *)

type t =
  | Raw_release  (** publishing the data as-is *)
  | Hipaa_safe_harbor  (** redaction of enumerated identifiers *)
  | K_anonymity
  | L_diversity
  | T_closeness
  | Count_release  (** a single exact count (Theorem 2.5's M#q) *)
  | Differential_privacy

val name : t -> string

val kanon_family : t -> bool
(** k-anonymity or one of the variants the paper's footnote 3 extends the
    analysis to. *)
