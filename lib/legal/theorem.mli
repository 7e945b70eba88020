(** The legal-theorem engine (Section 2.4).

    A legal theorem is a derived claim about a technology's standing under a
    legal standard, with an explicit derivation: technical premises
    (empirically checked {!Pso.Theorems.verdict}s), bridges (modeling
    assumptions with explicit transfer direction), and quoted legal text.
    The engine refuses to derive a positive legal conclusion through a
    weaker-than-legal bridge — only failures transfer — which is exactly
    why differential privacy earns "necessary condition met, further
    analysis required" while k-anonymity earns a definite failure. *)

type standing =
  | Fails_standard  (** definite negative legal conclusion *)
  | Necessary_condition_met
      (** the technology clears the necessary condition; sufficiency is
          beyond the model *)
  | Undetermined  (** a required technical premise did not hold *)

type certificate = {
  mechanism : string;  (** e.g. ["laplace"] *)
  claim : string;  (** the certified bound, e.g. ["e^eps = 2 (eps = ln 2)"] *)
  certified : bool;
      (** [true] when the mechanical checker verified the certificate;
          [false] demotes the premise to "audited only" *)
}
(** A machine-checked ε-DP premise: the summary of a [Cert.Registry]
    verdict, carried as plain data so the legal layer stays independent of
    the certificate checker's types. Every certified premise rests on an
    alignment found by the complete search and re-verified by the trusted
    checker, so it is printed as [certified: search-derived alignment]. *)

type premise =
  | Technical of Pso.Theorems.verdict
  | Bridging of Bridge.t
  | Legal_text of Source.t
  | Machine_checked of certificate

type t = {
  name : string;  (** e.g. "Legal Theorem 2.1" *)
  about : Technology.t;
  standard : string;  (** e.g. "GDPR prevention of singling out" *)
  standing : standing;
  conclusion : string;
  premises : premise list;
  falsifiable_by : string;
      (** the measurement that would refute this theorem — the paper's
          Section 2.4.3 demand that such statements be mathematically
          falsifiable *)
}

val kanon_fails_gdpr : variant:Technology.t -> Pso.Theorems.verdict -> t
(** Legal Theorem 2.1 (and its footnote-3 variants): from the Theorem 2.10
    verdict, through bridges B1 and B2. [variant] must satisfy
    {!Technology.kanon_family}; raises [Invalid_argument] otherwise. If the
    verdict does not hold, the standing is [Undetermined] — a failed
    empirical premise refutes the derivation, not the technology. *)

val kanon_fails_anonymization : variant:Technology.t -> Pso.Theorems.verdict -> t
(** Legal Corollary 2.1: failure to prevent singling out implies failure of
    the Recital 26 anonymization standard. *)

val dp_necessary_condition :
  ?certificates:certificate list -> Pso.Theorems.verdict -> t
(** Section 2.4.1: from Theorem 2.9, differential privacy prevents PSO; the
    bridge direction forbids concluding more than "necessary condition
    met". When [certificates] are supplied they are cited as premises; if
    every one is certified the conclusion upgrades its ε-DP premises from
    "statistically audited" to "machine-checked". *)

val count_release_caveat : Pso.Theorems.verdict -> Pso.Theorems.verdict -> t
(** From Theorems 2.5 and 2.8: a single count release meets the necessary
    condition, but the conclusion is void under composition — any
    formalization deeming counts secure must fail to compose. *)

val raw_release_fails : t
(** The degenerate anchor case: publishing data verbatim permits singling
    out trivially (no technical premise needed — the identity predicate on
    any record isolates). *)

val pp : Format.formatter -> t -> unit
