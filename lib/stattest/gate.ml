type bound = Overhead of float | Speedup of float

type verdict = Pass | Fail | Unresolved

type summary = { ratio : float; lo : float; hi : float; verdict : verdict }

let min_rounds = 5

let rounds = 21

let resamples = 2_000

let median xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let judge bound ~a ~b =
  let n = Array.length a in
  if Array.length b <> n then
    invalid_arg "Stattest.Gate.judge: a and b differ in length";
  if n < min_rounds then
    invalid_arg
      (Printf.sprintf "Stattest.Gate.judge: %d rounds, need at least %d" n
         min_rounds);
  let valid t = Float.is_finite t && t > 0. in
  if not (Array.for_all valid a && Array.for_all valid b) then
    invalid_arg "Stattest.Gate.judge: times must be finite and positive";
  let ratios =
    Array.init n (fun i ->
        match bound with
        | Overhead _ -> b.(i) /. a.(i)
        | Speedup _ -> a.(i) /. b.(i))
  in
  let rng = Prob.Rng.create ~seed:0x6a7eL () in
  let medians =
    Array.init resamples (fun _ ->
        median (Array.init n (fun _ -> ratios.(Prob.Rng.int rng n))))
  in
  Array.sort Float.compare medians;
  let pct p = medians.(int_of_float (p *. float_of_int (resamples - 1))) in
  let lo = pct 0.025 and hi = pct 0.975 in
  let verdict =
    match bound with
    | Overhead x -> if hi <= x then Pass else if lo > x then Fail else Unresolved
    | Speedup x -> if lo >= x then Pass else if hi < x then Fail else Unresolved
  in
  { ratio = median ratios; lo; hi; verdict }

(* --- the gate table --- *)

type side = {
  enter : unit -> unit;  (* untimed, before a sample *)
  run : unit -> unit;  (* one repetition, its cross-check included *)
  leave : unit -> unit;  (* untimed, after a sample *)
}

type t = {
  name : string;
  bound : bound;
  min_sample_ms : float;
  sides : unit -> side * side;
}

let nothing () = ()

let side ?(enter = nothing) ?(leave = nothing) run = { enter; run; leave }

let agree what expected got =
  if got <> expected then failwith (what ^ ": engines disagree")

(* The predicate fixture: one fixed predicate over a fixed 10k-row
   synthetic table. [batch] adds 1000 random conjunctions (some negated,
   a slice duplicated wholesale) over a shared pool of 64 atoms on the
   same table -- the shape of a reconstruction or composition workload,
   where batch-wide atom dedup has real work to do. Every expected count
   comes from the reference interpreter. *)
type predicates = {
  table : Dataset.Table.t;
  schema : Dataset.Schema.t;
  one : Query.Predicate.t;
  one_compiled : Query.Predicate.compiled;
  one_expected : int;
}

let predicates () =
  let model = Dataset.Synth.pso_model ~attributes:6 ~values_per_attribute:12 in
  let table =
    Dataset.Model.sample_table (Prob.Rng.create ~seed:77L ()) model 10_000
  in
  let schema = Dataset.Model.schema model in
  let open Query.Predicate in
  let one =
    And
      ( Atom (Member ("a0", [ Dataset.Value.Int 0; Dataset.Value.Int 3; Dataset.Value.Int 7 ])),
        Or (Atom (Range ("a1", 2., 9.)), Not (Atom (Eq ("a2", Dataset.Value.Int 3)))) )
  in
  {
    table;
    schema;
    one;
    one_compiled = compile schema one;
    one_expected = count_interpreted schema one table;
  }

let batch_size = 1_000

let batch f =
  let rng = Prob.Rng.create ~seed:78L () in
  let open Query.Predicate in
  let attr i = Printf.sprintf "a%d" (i mod 6) in
  let v k = Dataset.Value.Int (k mod 12) in
  let atom_pool =
    Array.init 64 (fun i ->
        match i mod 4 with
        | 0 -> Atom (Eq (attr i, v i))
        | 1 -> Atom (Member (attr i, [ v i; v (i + 5) ]))
        | 2 ->
          let lo = float_of_int (i mod 8) in
          Atom (Range (attr i, lo, lo +. 4.))
        | _ -> Not (Atom (Eq (attr i, v i))))
  in
  let pick () = atom_pool.(Prob.Rng.int rng (Array.length atom_pool)) in
  let draw () =
    match Prob.Rng.int rng 3 with
    | 0 -> pick ()
    | 1 ->
      let r = pick () in
      And (pick (), r)
    | _ ->
      let r2 = pick () in
      let r1 = pick () in
      And (pick (), Or (r1, r2))
  in
  let qs = Array.init batch_size (fun _ -> draw ()) in
  Array.blit qs 0 qs (batch_size - 50) 50;
  let expected = Array.map (fun q -> count_interpreted f.schema q f.table) qs in
  (qs, Array.map (compile f.schema) qs, expected)

(* A subset-query-shaped 512x4096 system at ~2% density, as a dense
   row-major matrix and as CSR. *)
let spmv_fixture () =
  let rows = 512 and cols = 4096 in
  let rng = Prob.Rng.create ~seed:81L () in
  let per_row = cols / 50 in
  let query =
    Array.init rows (fun _ ->
        let seen = Hashtbl.create (2 * per_row) in
        let rec draw k acc =
          if k = 0 then acc
          else
            let j = Prob.Rng.int rng cols in
            if Hashtbl.mem seen j then draw k acc
            else begin
              Hashtbl.add seen j ();
              draw (k - 1) (j :: acc)
            end
        in
        Array.of_list (draw per_row []))
  in
  let x = Array.init cols (fun j -> float_of_int ((j mod 13) - 6) /. 3.) in
  ( Linalg.Matrix.of_subset_queries ~query ~n:cols,
    Linalg.Sparse.of_subset_queries ~query ~n:cols,
    x )

let spmv =
  {
    name = "spmv";
    bound = Speedup 10.;
    min_sample_ms = 20.;
    sides =
      (fun () ->
        let dense, sparse, x = spmv_fixture () in
        let expected = Linalg.Matrix.mul_vec dense x in
        let bitwise got =
          if Array.length got <> Array.length expected then
            failwith "spmv: dimension mismatch";
          Array.iteri
            (fun i e ->
              if Int64.bits_of_float got.(i) <> Int64.bits_of_float e then
                failwith "spmv: sparse and dense disagree")
            expected
        in
        ( side (fun () -> bitwise (Linalg.Matrix.mul_vec dense x)),
          side (fun () -> bitwise (Linalg.Sparse.mul_vec sparse x)) ));
  }

(* The audit-ledger pair: the batched exact-counts mechanism with the
   ledger off and on. The on side starts each sample from an empty
   journal, so the buffer never grows across samples. *)
let ledger =
  {
    name = "ledger";
    bound = Overhead 1.10;
    min_sample_ms = 20.;
    sides =
      (fun () ->
        let f = predicates () in
        let qs, _, expected = batch f in
        let mech = Query.Mechanism.exact_counts_batch (Query.Mechanism.batch qs) in
        let rng = Prob.Rng.create ~seed:80L () in
        let want = Query.Mechanism.Vector (Array.map float_of_int expected) in
        let count () = agree "ledger" want (Query.Mechanism.run mech rng f.table) in
        let journal () =
          Obs.Ledger.reset ();
          Obs.Ledger.enable ()
        in
        ( side ~enter:Obs.Ledger.disable count,
          side ~enter:journal ~leave:Obs.Ledger.disable count ));
  }

(* The snapshot-overhead pair: the batched count with the Timeline ticker
   stopped and ticking at 10 Hz. The ticker starts just before each B
   sample and stops just after it, outside the timed region; a sample
   lasts at least 200 ms, so it spans at least two captures. *)
let timeline =
  {
    name = "timeline";
    bound = Overhead 1.10;
    min_sample_ms = 200.;
    sides =
      (fun () ->
        let f = predicates () in
        let _, cs, expected = batch f in
        let count () =
          agree "timeline" expected (Query.Predicate.count_many f.table cs)
        in
        let tick () = Obs.Timeline.start ~period_ns:100_000_000L () in
        (side count, side ~enter:tick ~leave:Obs.Timeline.stop count));
  }

let interp f () =
  agree "interp" f.one_expected
    (Query.Predicate.count_interpreted f.schema f.one f.table)

let compiled_cold f () =
  agree "compiled" f.one_expected
    (Query.Predicate.count_compiled ~cache:false f.one_compiled f.table)

let cached_bitset f () =
  agree "bitset" f.one_expected
    (Query.Predicate.count_compiled f.one_compiled f.table)

let predicate_gate name bound a b =
  {
    name;
    bound;
    min_sample_ms = 20.;
    sides =
      (fun () ->
        let f = predicates () in
        (side (a f), side (b f)));
  }

(* The engine-step bounds are 0.8x the median ratio of 10 bench/main.exe
   runs on a shared 2-core x86-64 host (7.10x, 110.7x and 5.57x), so a
   30% slowdown of the measured side (a ratio 0.77x its own) lands below
   them. *)
let predicate_compiled =
  predicate_gate "predicate-compiled" (Speedup 5.68) interp compiled_cold

let predicate_bitset =
  predicate_gate "predicate-bitset" (Speedup 88.6) compiled_cold cached_bitset

let predicate_batched =
  {
    name = "predicate-batched";
    bound = Speedup 4.46;
    min_sample_ms = 20.;
    sides =
      (fun () ->
        let f = predicates () in
        let _, cs, expected = batch f in
        ( side (fun () ->
              agree "loop" expected
                (Array.map (fun c -> Query.Predicate.count_compiled c f.table) cs)),
          side (fun () ->
              agree "count_many" expected (Query.Predicate.count_many f.table cs)) ));
  }

(* The noise pair: the per-draw path (sampler plus per-draw telemetry)
   against one bulk draw of the same size and scale, bounded like the
   engine steps (0.8x a 10-run median of 1.27x) and never below 1. *)
let noise_bulk =
  {
    name = "noise-bulk";
    bound = Speedup 1.02;
    min_sample_ms = 20.;
    sides =
      (fun () ->
        let rng = Prob.Rng.create ~seed:79L () in
        ( side (fun () ->
              for _ = 1 to batch_size do
                ignore (Dp.Telemetry.noise (Prob.Sampler.laplace rng ~scale:100.))
              done),
          side (fun () ->
              ignore (Dp.Bulk.laplace_many rng ~scale:100. batch_size)) ));
  }

let all =
  [
    spmv; ledger; timeline; predicate_compiled; predicate_bitset;
    predicate_batched; noise_bulk;
  ]

(* --- measurement --- *)

(* Nanoseconds per repetition over one sample of [reps] repetitions. The
   untimed full major collection first means each side pays for its own
   garbage, not for what the other side left behind. *)
let sample s reps =
  Gc.full_major ();
  s.enter ();
  Fun.protect ~finally:s.leave (fun () ->
      let t0 = Obs.now_ns () in
      for _ = 1 to reps do
        s.run ()
      done;
      let t1 = Obs.now_ns () in
      Int64.to_float (Int64.sub t1 t0) /. float_of_int reps)

let exercise g =
  let a, b = g.sides () in
  ignore (sample a 1);
  ignore (sample b 1)

(* A repetition count whose sample lasts [min_ns] with a quarter to
   spare, so a side that speeds up once warm still lasts [min_ns]; one
   sample of a single repetition warms the side up first. *)
let calibrate ~min_ns s =
  ignore (sample s 1);
  let rec go reps =
    let total = sample s reps *. float_of_int reps in
    if total >= 1.25 *. min_ns then reps
    else
      let scaled = float_of_int reps *. 1.3 *. min_ns /. Float.max total 1. in
      go (max (reps + 1) (int_of_float (Float.min scaled 1e9)))
  in
  go 1

let measure g =
  let a, b = g.sides () in
  let min_ns = g.min_sample_ms *. 1e6 in
  let reps_a = calibrate ~min_ns a in
  let reps_b = calibrate ~min_ns b in
  let ta = Array.make rounds 0. and tb = Array.make rounds 0. in
  for i = 0 to rounds - 1 do
    if i mod 2 = 0 then begin
      ta.(i) <- sample a reps_a;
      tb.(i) <- sample b reps_b
    end
    else begin
      tb.(i) <- sample b reps_b;
      ta.(i) <- sample a reps_a
    end
  done;
  judge g.bound ~a:ta ~b:tb

let pp_line ppf (g, s) =
  let kind, rel, x =
    match g.bound with
    | Overhead x -> ("overhead", "<=", x)
    | Speedup x -> ("speedup", ">=", x)
  in
  Format.fprintf ppf "%-20s %-8s %9.3fx  95%% [%9.3f, %9.3f]  bound %s %5.2fx  %s"
    g.name kind s.ratio s.lo s.hi rel x
    (match s.verdict with Pass -> "PASS" | Fail -> "FAIL" | Unresolved -> "unresolved")
