(** Information-loss metrics for anonymized releases.

    The paper notes that k-anonymizers "attempt to retain as much as
    possible information" — these metrics quantify that retention, and the
    E7 ablation uses them to show the attack succeeds {e because} information
    is retained (low loss ⇒ negligible-weight class predicates). *)

val discernibility : qis:string list -> Dataset.Gtable.t -> float
(** Discernibility metric (Bayardo–Agrawal): [Σ_classes |C|²], with fully
    suppressed rows charged [n] each. Lower is better. *)

val average_class_size : qis:string list -> Dataset.Gtable.t -> float
(** [n / #classes] over non-suppressed rows ([infinity] if everything is
    suppressed). *)

val suppressed_rows : Dataset.Gtable.t -> int
(** Rows whose every cell is [Any]. *)

val generalization_intensity : Dataset.Gtable.t -> float
(** Fraction of cells that are not [Exact] — a crude overall measure. *)
