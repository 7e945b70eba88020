(** QCheck generators for the dataset layer: random schemas, product
    models, sampled tables, generalization hierarchies and predicate ASTs.
    These drive the property-based tests of the [dataset] / [query] /
    [kanon] / [pso] invariants; all table randomness flows through a
    {!Prob.Rng.t} seeded from the generator, so shrunk counterexamples
    replay deterministically. *)

val model : Dataset.Model.t QCheck.Gen.t
(** A product model over a random schema of 1–5 attributes ["a0"],
    ["a1"], ... of int/string/bool kinds with mixed privacy roles:
    per-attribute supports of 2–5 values with random positive weights. *)

val model_table : (Dataset.Model.t * Dataset.Table.t) QCheck.Gen.t
(** A model and a table of 0–60 rows sampled i.i.d. from it. *)

val nonempty_model_table : (Dataset.Model.t * Dataset.Table.t) QCheck.Gen.t
(** Same with at least one row. *)

val predicate : Dataset.Model.t -> Query.Predicate.t QCheck.Gen.t
(** A predicate AST of depth <= 3 over the model's attributes: Eq/Member
    atoms on support values, Range atoms on numeric attributes,
    hash-bucket and hash-bit atoms, combined with And/Or/Not. *)

val model_table_predicate :
  (Dataset.Model.t * Dataset.Table.t * Query.Predicate.t) QCheck.Gen.t

val int_hierarchy : (Dataset.Hierarchy.t * int) QCheck.Gen.t
(** An [int_ranges] ladder together with a value from its base domain. *)

val kanon_table : Dataset.Table.t QCheck.Gen.t
(** A table shaped for the k-anonymizers: 2–4 integer quasi-identifier
    columns plus one sensitive column, 8–60 rows — the input family the
    Mondrian invariant properties quantify over. *)
