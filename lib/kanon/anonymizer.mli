(** Unified front-end over the k-anonymization algorithms, and their
    packaging as mechanisms for the PSO game. *)

type algorithm =
  | Mondrian  (** local recoding, data-dependent partitioning *)
  | Datafly  (** greedy full-domain generalization + outlier suppression *)
  | Samarati  (** minimal-height full-domain generalization *)
  | Incognito  (** full minimal-frontier enumeration, no suppression *)

type config = {
  algorithm : algorithm;
  k : int;
  scheme : Generalization.scheme;
      (** hierarchies; required for Datafly/Samarati, optional aid for
          Mondrian's categorical covers *)
  max_suppression : float;
  recoding : Mondrian.recoding;  (** honored by Mondrian only *)
}

val anonymize : config -> Dataset.Table.t -> Dataset.Gtable.t

val is_k_anonymous : k:int -> Dataset.Gtable.t -> bool
(** Checks the invariant on the quasi-identifier columns of the release's
    schema (suppressed rows count as one big class). *)

val mechanism : config -> Query.Mechanism.t
(** The anonymizer as a mechanism [M : X^n → generalized release]. *)
