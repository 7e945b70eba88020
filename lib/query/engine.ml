(* The batch evaluation layer of the query engine.

   Predicate.count_many is the single-domain kernel: shared columnar scan,
   batch-wide atom dedup, fused word-machine evaluation. This module adds
   the two things the kernel deliberately does not know about:

   - a predicate-level entry point: [counts] compiles the batch (or
     reuses the caller's compilation) and charges
     [query.predicate_evals];

   - optional domain fan-out: [?pool] splits a large batch into contiguous
     chunks evaluated by Parallel.Pool workers and concatenated in chunk
     order, so the result is byte-identical at every pool size (each
     chunk's counts are pure; workers dedup atoms chunk-locally in their
     own domain-local caches). *)

module Table = Dataset.Table

(* Same handle as Predicate's per-query accounting (Counter.make is
   idempotent by name): a batched count still charges one logical
   row-evaluation per row per predicate, so query.predicate_evals stays
   batch-invariant. *)
let c_evals = Obs.Counter.make "query.predicate_evals"

(* Fan a batch of independent per-predicate results over the pool in
   contiguous chunks, combining in chunk order. Small batches stay on the
   caller: the pool's per-item overhead would swamp microsecond chunks. *)
let min_chunk = 64

let fan_out pool n eval_slice =
  let jobs = Parallel.Pool.jobs pool in
  let chunks = min jobs (max 1 (n / min_chunk)) in
  if chunks <= 1 then eval_slice 0 n
  else begin
    let base = n / chunks and rem = n mod chunks in
    let start k = (k * base) + min k rem in
    let parts =
      Parallel.Pool.parallel_init_array pool chunks (fun k ->
          eval_slice (start k) (start (k + 1) - start k))
    in
    Array.concat (Array.to_list parts)
  end

let count_many ?pool ?cache table cs =
  match pool with
  | None -> Predicate.count_many ?cache table cs
  | Some pool ->
    fan_out pool (Array.length cs) (fun off len ->
        Predicate.count_many ?cache table (Array.sub cs off len))

(* Charge the batch and return its compilation: [?compiled], or a fresh
   compilation of [qs]. *)
let compiled_batch ?compiled table qs =
  Obs.Counter.add c_evals (Table.nrows table * Array.length qs);
  match compiled with
  | Some cs -> cs
  | None -> Array.map (Predicate.compile (Table.schema table)) qs

let counts ?pool ?compiled table qs =
  count_many ?pool table (compiled_batch ?compiled table qs)
