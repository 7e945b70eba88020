(** Mondrian multidimensional k-anonymity (LeFevre–DeWitt–Ramakrishnan,
    ICDE 2006).

    Greedy top-down partitioning: recursively split the row set on the
    quasi-identifier with the widest normalized span, at the median, as long
    as both sides keep at least [k] rows; each final partition becomes one
    equivalence class, locally recoded to the tightest covering generalized
    values. This is the "typical implementation trying to optimize
    information content" of Theorem 2.10 — precisely the behaviour that
    keeps class predicates' weights negligible and enables the PSO attack.

    Cost: one sort per quasi-identifier (its column's distinct values,
    ranked once per table; the ranking builds the table's columnar view
    of that attribute, which predicates over the table reuse) and a
    counting sort of the rows by rank, then work linear in each partition
    node's size per quasi-identifier: distinct counts and medians come
    from one pass over the node's rows in rank order, and each cut is a
    stable in-place pass over the node's index arrays. *)

type recoding =
  | Member_level
      (** non-quasi-identifier attributes are released exactly, per row —
          the information-maximizing style Cohen's attack exploits *)
  | Class_level
      (** every non-identifier attribute is generalized to the tightest
          cover of its class's values — the style of the paper's toy
          example ("Disease → PULM"), attacked by Theorem 2.10's proof *)

val anonymize :
  ?hierarchies:Generalization.scheme ->
  ?recoding:recoding ->
  k:int ->
  Dataset.Table.t ->
  Dataset.Gtable.t
(** Quasi-identifiers are taken from the schema roles; [Identifier]
    attributes are fully suppressed; other attributes are treated per
    [recoding] (default [Member_level]). Categorical quasi-identifiers
    split on their sorted distinct values. Raises [Invalid_argument] if
    [k < 1] or the table has fewer than [k] rows. *)
