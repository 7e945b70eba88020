(** E11 — Homer et al. membership inference from aggregate genomic
    statistics (Section 1).

    Publishes only per-attribute frequencies of a study pool; the Homer
    statistic distinguishes members from non-members. The shape: AUC rises
    from chance toward 1 as the number of published attributes grows —
    aggregation alone is not anonymization. *)

type row = {
  people : int;
  snps : int;
  auc : float;
  accuracy : float;
  mean_member : float;
  mean_outsider : float;
}

val run : scale:Common.scale -> Prob.Rng.t -> row list

val print : scale:Common.scale -> Prob.Rng.t -> Format.formatter -> unit
