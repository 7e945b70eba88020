(** Assembled legal-technical audit reports.

    A report bundles the measured technical verdicts, the legal theorems
    derived from them, and the WP29 comparison into one printable document —
    the artifact a data-protection officer (or the EDPB) would actually
    read. *)

type t = {
  generated_for : string;  (** free-form context line *)
  verdicts : Pso.Theorems.verdict list;
  theorems : Theorem.t list;
  comparison : Wp29.row list;
}

val build : ?context:string -> Prob.Rng.t -> Pso.Theorems.params -> t
(** Run the full theorem battery at the given parameters and derive every
    legal theorem the paper states (Legal Theorem 2.1 and Corollary 2.1 for
    the k-anonymity family, the differential-privacy determination, the
    count-release caveat, the raw-release anchor). *)

val of_verdicts : ?context:string -> Pso.Theorems.verdict list -> t
(** Same derivations from precomputed verdicts (matched by verdict [id]);
    verdicts for Theorems 2.5, 2.8, 2.9 and 2.10 must be present — raises
    [Invalid_argument] otherwise. *)

val pp : Format.formatter -> t -> unit
