(** The Article 29 Working Party comparison (Section 2.4.3).

    The WP29 Opinion on Anonymisation Techniques answers "Is singling out
    still a risk?" with "no" for k-anonymity and l-diversity and "may not"
    for differential privacy. The paper's analysis reverses the k-anonymity
    answers — this module renders both columns side by side, which is the
    paper's only table-like artifact (Experiment E12). *)

type risk =
  | Risk  (** singling out remains a risk *)
  | No_risk
  | May_not_be_risk

val wp29_assessment : Technology.t -> risk option
(** The Working Party's published answer ([None] where the opinion does not
    assess the technology). *)

type row = {
  technology : Technology.t;
  wp29 : risk option;
  ours : risk;
  evidence : string;  (** which theorem/verdict drives our answer *)
  conflict : bool;
}

val comparison :
  kanon:Pso.Theorems.verdict ->
  dp:Pso.Theorems.verdict ->
  row list
(** Our column is derived from the supplied verdicts: the k-anonymity family
    is [Risk] when Theorem 2.10's check holds; differential privacy is
    [No_risk] (within the PSO model) when Theorem 2.9's check holds. *)

val pp_table : Format.formatter -> row list -> unit
