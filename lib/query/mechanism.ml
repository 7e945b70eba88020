type output =
  | Scalar of float
  | Vector of float array
  | Release of Dataset.Table.t
  | Generalized of Dataset.Gtable.t
  | Words of int64 array
  | Pair of output * output

type t = { name : string; run : Prob.Rng.t -> Dataset.Table.t -> output }

let run t rng table = t.run rng table

(* Deterministic cost sketch (rows touched — the ledger's latency proxy,
   shared by name with Curator/Oracle) and a wall-clock latency sketch,
   which is timing-flagged and so excluded from cross-jobs checks. *)
let sk_cost = Obs.Sketchm.make "query.cost_rows"

let sk_latency = Obs.Sketchm.make ~timing:true "query.latency_ns"

(* A mechanism's ledger digest, computed on its first journaled run and
   kept. An Atomic cell, not [lazy]: Pso.Game fans trials across domains,
   so several can journal a mechanism's first run at once, and forcing
   one [lazy] from two domains raises [CamlinternalLazy.Undefined]. A
   race computes the (pure) digest twice and one result wins, like
   [batch_compiled] below. *)
let digest_once f =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some d -> d
    | None ->
      let d = f () in
      Atomic.set cell (Some d);
      d

(* Journal one mechanism run. The digest is only computed when telemetry
   or the ledger is on, so with both off a run costs one flag read. *)
let log_run ~digest ~noised ~cost f =
  if not (Obs.enabled () || Obs.Ledger.enabled ()) then f ()
  else begin
    let t0 = Obs.now_ns () in
    let out = f () in
    Obs.Sketchm.observe sk_latency (Int64.to_float (Int64.sub (Obs.now_ns ()) t0));
    Obs.Sketchm.observe sk_cost (float_of_int cost);
    Obs.Ledger.query ~analyst:Obs.Ledger.ambient_analyst ~kind:"mechanism"
      ~digest:(digest ())
      ~engine:(Predicate.engine_name (Predicate.engine ()))
      ~noised ~cost;
    out
  end

let exact_count q =
  let digest = digest_once (fun () -> Predicate.digest q) in
  {
    name = Printf.sprintf "count[%s]" (Predicate.to_string q);
    run =
      (fun _rng table ->
        log_run ~digest ~noised:false ~cost:(Dataset.Table.nrows table)
          (fun () ->
            Scalar
              (float_of_int
                 (Predicate.count (Dataset.Table.schema table) q table))));
  }

(* A query batch carries its compilation: the PSO game runs the same
   mechanism across thousands of trials, and recompiling the predicate
   array per run (or once per mechanism wrapping the same array — the old
   exact_counts/laplace_counts pairing did exactly that) is pure waste.
   The cache is keyed by the schema the compilation was resolved against;
   a mechanism handed a table with a different schema just recompiles.
   Atomic because Pso.Game fans trials across domains: a race compiles
   twice and one result wins, which is wasteful but correct. *)
type batch = {
  queries : Predicate.t array;
  cache : (Dataset.Schema.t * Predicate.compiled array) option Atomic.t;
}

let batch queries = { queries; cache = Atomic.make None }

let batch_queries b = b.queries

let batch_compiled b schema =
  match Atomic.get b.cache with
  | Some (s, cs) when s == schema || s = schema -> cs
  | Some _ | None ->
    let cs = Array.map (Predicate.compile schema) b.queries in
    Atomic.set b.cache (Some (schema, cs));
    cs

(* The shared, non-journaling counts kernel: both the exact and the
   Laplace batch mechanisms call this and then emit their *own* single
   query event, so a noised release is never double-logged as an exact
   one. Engine.counts switches engines and reuses the batch's
   compilation on the compiled side. *)
let batch_counts ?pool b table =
  let compiled = batch_compiled b (Dataset.Table.schema table) in
  Array.map float_of_int (Engine.counts ?pool ~compiled table b.queries)

(* One digest for the whole batch: the hash of all member renderings. *)
let batch_digest b =
  digest_once (fun () ->
      Printf.sprintf "%016Lx"
        (Prob.Hashing.hash64 ~salt:0L
           (String.concat "|"
              (Array.to_list (Array.map Predicate.to_string b.queries)))))

let batch_cost b table = Dataset.Table.nrows table * Array.length b.queries

let exact_counts_batch ?pool b =
  let digest = batch_digest b in
  {
    name = Printf.sprintf "counts[%d queries]" (Array.length b.queries);
    run =
      (fun _rng table ->
        log_run ~digest ~noised:false ~cost:(batch_cost b table) (fun () ->
            Vector (batch_counts ?pool b table)));
  }

let exact_counts qs = exact_counts_batch (batch qs)

(* Same handles as lib/dp (Counter.make is idempotent by name): noise
   added by the Laplace-counts mechanism is accounted with the rest. *)
let c_noise_draws = Obs.Counter.make "dp.noise_draws"

let h_noise_magnitude = Obs.Histogram.make "dp.noise_magnitude"

let laplace_counts_batch ?pool ~epsilon b =
  if epsilon <= 0. then invalid_arg "Mechanism.laplace_counts: epsilon";
  let nq = Array.length b.queries in
  let scale = float_of_int (max 1 nq) /. epsilon in
  let digest = batch_digest b in
  {
    name = Printf.sprintf "laplace-counts[%d queries, eps=%g]" nq epsilon;
    run =
      (fun rng table ->
        log_run ~digest ~noised:true ~cost:(batch_cost b table) (fun () ->
            let counts = batch_counts ?pool b table in
            (* One bulk pass in explicit ascending index order: the exact
               draw sequence of the old per-count Array.map, so released
               vectors are byte-identical — at every --jobs, since counts
               never touch the rng. *)
            let n = Array.length counts in
            let out = Array.make n 0. in
            for i = 0 to n - 1 do
              let noise = Prob.Sampler.laplace rng ~scale in
              Obs.Histogram.observe h_noise_magnitude (Float.abs noise);
              out.(i) <- counts.(i) +. noise
            done;
            Obs.Counter.add c_noise_draws n;
            if n > 0 then
              Obs.Ledger.noise ~analyst:Obs.Ledger.ambient_analyst
                ~mechanism:"laplace" ~scale ~n;
            Vector out));
  }

let laplace_counts ~epsilon qs = laplace_counts_batch ~epsilon (batch qs)

let identity_release =
  { name = "identity-release"; run = (fun _rng table -> Release table) }

let compose m1 m2 =
  {
    name = Printf.sprintf "(%s, %s)" m1.name m2.name;
    run = (fun rng table -> Pair (m1.run rng table, m2.run rng table));
  }

let post_process name f m =
  {
    name = Printf.sprintf "%s . %s" name m.name;
    run = (fun rng table -> f (m.run rng table));
  }

let as_vector output =
  let rec collect acc = function
    | Scalar v -> Some (v :: acc)
    | Vector vs -> Some (List.rev_append (Array.to_list vs) acc)
    | Pair (a, b) -> Option.bind (collect acc a) (fun acc -> collect acc b)
    | Release _ | Generalized _ | Words _ -> None
  in
  Option.map (fun l -> Array.of_list (List.rev l)) (collect [] output)
