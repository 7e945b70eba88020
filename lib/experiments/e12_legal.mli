(** E12 — the legal layer (Section 2.4): derive the paper's legal theorems
    from the measured technical verdicts and render the Article 29 Working
    Party comparison.

    This is the experiment that exercises the paper's actual contribution:
    the verdict battery (Theorems 1.3, 2.5–2.10) feeds the legal-theorem
    engine, which produces Legal Theorem 2.1, Legal Corollary 2.1 (for the
    whole k-anonymity family), the differential-privacy determination, the
    count-release composition caveat — and the WP29 conflict table the
    paper asks the EDPB to reconsider. *)

val report : scale:Common.scale -> Prob.Rng.t -> Legal.Report.t

val print : scale:Common.scale -> Prob.Rng.t -> Format.formatter -> unit
