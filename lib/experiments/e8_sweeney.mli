(** E8 — Sweeney's GIC re-identification (Section 1).

    Measures (i) quasi-identifier uniqueness of (ZIP, birth date, sex) in a
    synthetic population — the paper's "unique for a vast majority" — and
    (ii) the end-to-end linkage attack joining the de-identified medical
    release with a voter list. A HIPAA-safe-harbor ablation shows how much
    the prescribed redaction actually reduces the risk. *)

type row = {
  population : int;
  release : string;  (** "redacted (GIC)" or "safe harbor" *)
  qi_unique : float;  (** fraction unique on the quasi-identifiers *)
  voter_coverage : float;
  claims : int;
  correct : int;
  precision : float;
  reidentified : float;  (** fraction of the release re-identified *)
}

val run : scale:Common.scale -> Prob.Rng.t -> row list

val print : scale:Common.scale -> Prob.Rng.t -> Format.formatter -> unit
