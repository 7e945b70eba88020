(** Batch evaluation layer of the query engine.

    The attacks in this repo — reconstruction (Section 1), the PSO
    composition game (Section 4), the dpcheck audits — each evaluate
    hundreds to thousands of count queries against one table. This module
    is their entry point: it switches on the process-wide
    {!Predicate.engine} mode through {!Predicate.by_engine}, runs whole
    predicate arrays through the compiled evaluator
    ({!Predicate.count_many}: one columnar scan, batch-wide atom dedup,
    fused word-machine evaluation) or through one rows-outer interpreted
    pass, and can optionally fan a large batch across a {!Parallel.Pool}
    in contiguous chunks combined in chunk order — the answers are
    byte-identical at every [jobs] count. *)

val count_many :
  ?pool:Parallel.Pool.t ->
  ?cache:bool ->
  Dataset.Table.t ->
  Predicate.compiled array ->
  int array
(** [count_many table cs] is {!Predicate.count_many}. With [?pool], the
    batch is split into contiguous chunks (at least 64 predicates each —
    below that the pool's per-item overhead swamps the work) evaluated in
    parallel and concatenated in chunk order, so results do not depend on
    pool size. *)

val isolates_many :
  ?pool:Parallel.Pool.t ->
  ?cache:bool ->
  Dataset.Table.t ->
  Predicate.compiled array ->
  bool array
(** Batched Definition 2.1, same fan-out contract as {!count_many}. *)

val counts :
  ?pool:Parallel.Pool.t ->
  ?compiled:Predicate.compiled array ->
  Dataset.Table.t ->
  Predicate.t array ->
  int array
(** Engine-dispatched batch counts: the [Interpreted] engine runs the
    reference interpreter over the rows once, evaluating every predicate
    per row (so hash-atom digests are computed once per record), the
    [Compiled] engine runs {!count_many}, and [Checked] runs both and
    raises [Failure] if any answer differs. Pass [?compiled] to reuse an
    existing compilation of [qs] (they must correspond index-wise);
    otherwise the predicates are compiled on the fly under
    [Compiled]/[Checked].
    Charges [query.predicate_evals] with rows × queries regardless of
    engine, keeping the counter batch-invariant. *)

val isolations :
  ?pool:Parallel.Pool.t ->
  ?compiled:Predicate.compiled array ->
  Dataset.Table.t ->
  Predicate.t array ->
  bool array
(** Engine-dispatched batched isolation tests; contract as {!counts}. *)
