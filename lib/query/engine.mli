(** Batch evaluation layer of the query engine.

    The attacks in this repo — reconstruction (Section 1), the PSO
    composition game (Section 4), the dpcheck audits — each evaluate
    hundreds to thousands of count queries against one table. This module
    is their entry point: it runs whole predicate arrays through the
    compiled evaluator ({!Predicate.count_many}: one columnar scan,
    batch-wide atom dedup, fused word-machine evaluation), and can
    optionally fan a large batch across a {!Parallel.Pool} in contiguous
    chunks combined in chunk order — the answers are byte-identical at
    every [jobs] count. The tests hold its answers to
    {!Predicate.count_interpreted}, the reference interpreter. *)

val counts :
  ?pool:Parallel.Pool.t ->
  ?compiled:Predicate.compiled array ->
  Dataset.Table.t ->
  Predicate.t array ->
  int array
(** Batch counts of predicates: {!Predicate.count_many} over [?compiled], or over
    a fresh compilation of [qs]. Pass [?compiled] to reuse an existing
    compilation of [qs] (they must correspond index-wise). Charges
    [query.predicate_evals] with rows × queries, keeping the counter
    batch-invariant. *)
