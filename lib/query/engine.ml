(* The batch evaluation layer of the query engine.

   Predicate.count_many is the single-domain kernel: shared columnar scan,
   batch-wide atom dedup, fused word-machine evaluation. This module adds
   the two things the kernel deliberately does not know about:

   - engine dispatch: [counts]/[isolations] go through
     Predicate.by_engine, whose interpreted side is the one interpreted
     batch below and whose [Checked] mode compares the two;

   - optional domain fan-out: [?pool] splits a large batch into contiguous
     chunks evaluated by Parallel.Pool workers and concatenated in chunk
     order, so the result is byte-identical at every pool size (each
     chunk's counts are pure; workers dedup atoms chunk-locally in their
     own domain-local caches). *)

module Table = Dataset.Table

(* Same handle as Predicate's per-query accounting (Counter.make is
   idempotent by name): a batched count still charges one logical
   row-evaluation per row per predicate, so query.predicate_evals stays
   engine- and batch-invariant. *)
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

let isolates_many ?pool ?cache table cs =
  match pool with
  | None -> Predicate.isolates_many ?cache table cs
  | Some pool ->
    fan_out pool (Array.length cs) (fun off len ->
        Predicate.isolates_many ?cache table (Array.sub cs off len))

let compile_all schema qs = Array.map (Predicate.compile schema) qs

(* The interpreted batch: rows outer, queries inner, so hash-atom digests
   (cached per row by the interpreter) are paid once per record for the
   whole batch. *)
let count_interpreted_many schema qs table =
  let counts = Array.make (Array.length qs) 0 in
  Array.iter
    (fun row ->
      Array.iteri
        (fun i q ->
          if Predicate.eval schema q row then counts.(i) <- counts.(i) + 1)
        qs)
    (Table.rows table);
  counts

let show_array show a =
  "[" ^ String.concat "; " (Array.to_list (Array.map show a)) ^ "]"

(* Charge the batch, then switch engines: [interp] derives the answer
   from the interpreted counts, [compiled] runs the word machine over
   [?compiled] or a fresh compilation of [qs]. *)
let dispatch what ~show ?compiled table qs ~interp run =
  Obs.Counter.add c_evals (Table.nrows table * Array.length qs);
  let schema = Table.schema table in
  Predicate.by_engine
    ~what:(fun () ->
      Printf.sprintf "Engine.%s on %d queries" what (Array.length qs))
    ~show:(show_array show)
    (fun () -> interp (count_interpreted_many schema qs table))
    (fun () ->
      run (match compiled with Some cs -> cs | None -> compile_all schema qs))

let counts ?pool ?compiled table qs =
  dispatch "counts" ~show:string_of_int ?compiled table qs ~interp:Fun.id
    (count_many ?pool table)

let isolations ?pool ?compiled table qs =
  dispatch "isolations" ~show:string_of_bool ?compiled table qs
    ~interp:(Array.map (fun n -> n = 1))
    (isolates_many ?pool table)
