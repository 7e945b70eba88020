(* The benchmark harness.

   Part 1 regenerates every experiment table (E1..E13 from DESIGN.md's
   index) — the paper-shaped results. Part 2 times each experiment's kernel
   operation with Bechamel (one Test.make per experiment).

   `dune exec bench/main.exe` runs both at Quick scale;
   `dune exec bench/main.exe -- --full` uses the EXPERIMENTS.md parameters;
   `dune exec bench/main.exe -- --only E7` restricts to one experiment;
   `--jobs K` sets the Monte Carlo worker count (default: cores - 1);
   `--speedup` times every experiment at jobs=1 vs jobs=K and checks the
   two tables are byte-identical;
   `--json FILE` writes the kernel timings as JSON;
   `--no-perf` / `--no-tables` skip a part.

   Telemetry (--trace, --metrics, --ledger, --timeline, --prom, --watch)
   is not a bench option: `pso_audit run E7 [--full]` runs the
   same registry entry under the one telemetry lifecycle. *)

open Bechamel
open Toolkit

let selected only (e : Experiments.Registry.entry) =
  match only with
  | Some id ->
    String.lowercase_ascii id = String.lowercase_ascii e.Experiments.Registry.id
  | None -> true

let experiment_tables ~scale ~only () =
  let rng = Prob.Rng.create ~seed:20210621L () in
  let fmt = Format.std_formatter in
  List.iter
    (fun (e : Experiments.Registry.entry) ->
      if selected only e then begin
        let t0 = Unix.gettimeofday () in
        e.Experiments.Registry.print ~scale rng fmt;
        Format.fprintf fmt "[%s finished in %.1fs]@."
          e.Experiments.Registry.id
          (Unix.gettimeofday () -. t0)
      end)
    Experiments.Registry.all

(* One experiment rendered to a string at a given pool size, from a fresh
   generator: the unit of the sequential-vs-parallel comparison. *)
let render (e : Experiments.Registry.entry) ~scale ~jobs =
  Parallel.Pool.set_default_jobs jobs;
  let rng = Prob.Rng.create ~seed:20210621L () in
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  let t0 = Unix.gettimeofday () in
  e.Experiments.Registry.print ~scale rng fmt;
  Format.pp_print_flush fmt ();
  (Buffer.contents buf, Unix.gettimeofday () -. t0)

let speedup_tables ~scale ~only ~jobs () =
  let any_differ = ref false in
  List.iter
    (fun (e : Experiments.Registry.entry) ->
      if selected only e then begin
        let sequential, t_seq = render e ~scale ~jobs:1 in
        let parallel_, t_par = render e ~scale ~jobs in
        print_string parallel_;
        let identical = String.equal sequential parallel_ in
        if not identical then any_differ := true;
        Format.printf "[%s jobs=1: %.2fs, jobs=%d: %.2fs, speedup %.1fx, tables %s]@."
          e.Experiments.Registry.id t_seq jobs t_par
          (t_seq /. Float.max t_par 1e-9)
          (if identical then "identical" else "DIFFER")
      end)
    Experiments.Registry.all;
  if !any_differ then begin
    Format.printf "determinism violation: some tables differ between jobs=1 and jobs=%d@." jobs;
    exit 1
  end

(* The --json output contract (see EXPERIMENTS.md, "Statistical
   methodology"): a single object with fields "schema" (the string below),
   "version" (integer, bumped on breaking changes), "jobs", and "kernels" —
   an array of {"name", "ns_per_run", "r_square"} in ascending name order.
   Core.Json renders canonically (keys sorted, round-tripping floats), so
   the bytes are stable for a given measurement. *)
let json_schema = "bench-kernels/v1"

let json_schema_version = 1

let kernel_json (name, ns, r2) =
  Core.Json.Obj
    [
      ("name", Core.Json.String name);
      ("ns_per_run", Core.Json.number ns);
      ("r_square", Core.Json.number r2);
    ]

let write_json path ~jobs rows =
  let doc =
    Core.Json.Obj
      [
        ("schema", Core.Json.String json_schema);
        ("version", Core.Json.Number (float_of_int json_schema_version));
        ("jobs", Core.Json.Number (float_of_int jobs));
        ("kernels", Core.Json.List (List.map kernel_json rows));
      ]
  in
  let oc =
    try open_out path
    with Sys_error msg ->
      Format.eprintf "bench: cannot write --json file: %s@." msg;
      exit 2
  in
  output_string oc (Core.Json.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "wrote kernel timings to %s@." path

(* The telemetry-overhead pair: the same counter+sketch loop timed with
   the sink disabled (sealed no-op path) and enabled. Both rows land in the
   bench-kernels/v1 JSON, so CI can watch the no-op cost stay near zero.
   No spans inside the loop: span events accumulate in the event buffer and
   would measure allocation, not the hot-path branch. *)
let obs_overhead_iters = 4096

let c_overhead = Obs.Counter.make ~timing:true "bench.obs_overhead"

let sk_overhead = Obs.Sketchm.make ~timing:true "bench.obs_overhead_magnitude"

let obs_overhead_loop () =
  for i = 1 to obs_overhead_iters do
    Obs.Counter.incr c_overhead;
    Obs.Sketchm.observe sk_overhead (float_of_int i)
  done

let obs_overhead_tests () =
  [
    Test.make ~name:"obs-overhead-noop"
      (Staged.stage (fun () ->
           let was = Obs.enabled () in
           Obs.disable ();
           obs_overhead_loop ();
           if was then Obs.enable ()));
    Test.make ~name:"obs-overhead-instrumented"
      (Staged.stage (fun () ->
           let was = Obs.enabled () in
           Obs.enable ();
           obs_overhead_loop ();
           if not was then Obs.disable ()));
  ]

(* The query-engine kernel triple: one fixed predicate counted over a fixed
   10k-row synthetic table by each evaluation strategy. "interp" walks rows
   through the reference interpreter; "compiled" rematerializes the atom
   bitsets every run (~cache:false — the cold cost); "bitset" hits the
   domain-local atom cache, so a count is word-wise combines plus a
   popcount loop (the steady state inside the PSO game, where many
   predicates probe one trial table). Each run cross-checks the count
   against the interpreter's answer, so the timing rows double as an
   equivalence assertion. *)
let predicate_bench_rows = 10_000

let predicate_bench =
  lazy
    (let model = Dataset.Synth.pso_model ~attributes:6 ~values_per_attribute:12 in
     let rng = Prob.Rng.create ~seed:77L () in
     let table = Dataset.Model.sample_table rng model predicate_bench_rows in
     let schema = Dataset.Model.schema model in
     let open Query.Predicate in
     let p =
       And
         ( Atom (Member ("a0", [ Dataset.Value.Int 0; Dataset.Value.Int 3; Dataset.Value.Int 7 ])),
           Or
             ( Atom (Range ("a1", 2., 9.)),
               Not (Atom (Eq ("a2", Dataset.Value.Int 3))) ) )
     in
     (schema, table, p))

(* The batch fixture: 1000 random conjunctions (some negated, some
   duplicated) over a shared pool of 64 atoms on the same 10k-row table —
   the shape of a reconstruction or composition workload. The pool is much
   smaller than the batch, so batch-wide atom dedup has real work to do. *)
let predicate_batch_size = 1_000

let predicate_batch =
  lazy
    (let schema, table, _ = Lazy.force predicate_bench in
     let rng = Prob.Rng.create ~seed:78L () in
     let open Query.Predicate in
     let atom_pool =
       Array.init 64 (fun i ->
           match i mod 4 with
           | 0 -> Atom (Eq (Printf.sprintf "a%d" (i mod 6), Dataset.Value.Int (i mod 12)))
           | 1 ->
             Atom
               (Member
                  ( Printf.sprintf "a%d" (i mod 6),
                    [ Dataset.Value.Int (i mod 12); Dataset.Value.Int ((i + 5) mod 12) ] ))
           | 2 ->
             let lo = float_of_int (i mod 8) in
             Atom (Range (Printf.sprintf "a%d" (i mod 6), lo, lo +. 4.))
           | _ -> Not (Atom (Eq (Printf.sprintf "a%d" (i mod 6), Dataset.Value.Int (i mod 12)))))
     in
     let pick () = atom_pool.(Prob.Rng.int rng (Array.length atom_pool)) in
     let one () =
       match Prob.Rng.int rng 3 with
       | 0 -> pick ()
       | 1 -> And (pick (), pick ())
       | _ -> And (pick (), Or (pick (), pick ()))
     in
     let qs = Array.init predicate_batch_size (fun _ -> one ()) in
     (* Duplicate a slice wholesale: batches repeat whole predicates too. *)
     Array.blit qs 0 qs (predicate_batch_size - 50) 50;
     let cs = Array.map (compile schema) qs in
     (table, qs, cs))

let predicate_kernel_tests () =
  let schema, table, p = Lazy.force predicate_bench in
  let compiled = Query.Predicate.compile schema p in
  let expected = Query.Predicate.count_interpreted schema p table in
  let check got =
    if got <> expected then failwith "predicate kernel: engines disagree"
  in
  let btable, bqs, bcs = Lazy.force predicate_batch in
  let bexpected =
    Array.map (fun c -> Query.Predicate.count_compiled c btable) bcs
  in
  let bcheck got =
    if got <> bexpected then failwith "predicate batch kernel: engines disagree"
  in
  (* The bulk-vs-loop noise pair shares one scale and one rng; the loop
     side is the old per-draw path (sampler + per-draw telemetry). *)
  let noise_rng = Prob.Rng.create ~seed:79L () in
  let noise_scale = 100. in
  (* The audit-ledger overhead pair: the same batched exact-counts
     mechanism run with the ledger off and on. The on side resets the
     journal per run so the buffer never grows across Bechamel samples;
     CI holds the pair within a relative tolerance (scripts/ci.sh,
     pso_audit bench-pair). *)
  let ledger_mech = Query.Mechanism.exact_counts_batch (Query.Mechanism.batch bqs) in
  let ledger_rng = Prob.Rng.create ~seed:80L () in
  [
    Test.make ~name:"predicate-count-interp"
      (Staged.stage (fun () ->
           check (Query.Predicate.count_interpreted schema p table)));
    Test.make ~name:"predicate-count-compiled"
      (Staged.stage (fun () ->
           check (Query.Predicate.count_compiled ~cache:false compiled table)));
    Test.make ~name:"predicate-count-bitset"
      (Staged.stage (fun () ->
           check (Query.Predicate.count_compiled compiled table)));
    Test.make ~name:"predicate-count-batch-loop"
      (Staged.stage (fun () ->
           bcheck (Array.map (fun c -> Query.Predicate.count_compiled c btable) bcs)));
    Test.make ~name:"predicate-count-batched"
      (Staged.stage (fun () -> bcheck (Query.Predicate.count_many btable bcs)));
    Test.make ~name:"ledger-off-count-batched"
      (Staged.stage (fun () ->
           let was = Obs.Ledger.enabled () in
           Obs.Ledger.disable ();
           ignore (Query.Mechanism.run ledger_mech ledger_rng btable);
           if was then Obs.Ledger.enable ()));
    Test.make ~name:"ledger-on-count-batched"
      (Staged.stage (fun () ->
           let was = Obs.Ledger.enabled () in
           Obs.Ledger.reset ();
           Obs.Ledger.enable ();
           ignore (Query.Mechanism.run ledger_mech ledger_rng btable);
           if not was then Obs.Ledger.disable ()));
    Test.make ~name:"mechanism-noise-loop"
      (Staged.stage (fun () ->
           for _ = 1 to predicate_batch_size do
             ignore
               (Dp.Telemetry.noise (Prob.Sampler.laplace noise_rng ~scale:noise_scale))
           done));
    Test.make ~name:"mechanism-noise-bulk"
      (Staged.stage (fun () ->
           ignore
             (Dp.Bulk.laplace_many noise_rng ~scale:noise_scale
                predicate_batch_size)));
    (* The snapshot-overhead pair: the same batched count with the
       Timeline ticker stopped and ticking at 10 Hz. Captures steal CPU
       from a core and contend on the quiescence gate, so CI holds the
       pair within a relative tolerance (scripts/ci.sh, pso_audit
       bench-pair). Last in the list; main stops any leftover ticker
       after the perf run. *)
    Test.make ~name:"timeline-off-count-batched"
      (Staged.stage (fun () ->
           if Obs.Timeline.running () then Obs.Timeline.stop ();
           bcheck (Query.Predicate.count_many btable bcs)));
    Test.make ~name:"timeline-10hz-count-batched"
      (Staged.stage (fun () ->
           if not (Obs.Timeline.running ()) then
             Obs.Timeline.start ~period_ns:100_000_000L ();
           bcheck (Query.Predicate.count_many btable bcs)));
  ]

(* The linalg kernel quartet. spmv-dense / spmv-sparse multiply the same
   subset-query-shaped 512x4096 system (~2% density) through the dense
   row-major loop and the CSR C kernel; the results are checked bitwise
   identical every run, and CI gates the sparse side at >= 10x faster
   (scripts/ci.sh, pso_audit bench-pair --min-ratio). The census pair
   solves one fixed suppressed block cold and warm-started from a
   neighboring block's raked relaxed solution — the per-block unit of the
   E14 scale-out. *)
let spmv_rows = 512

let spmv_cols = 4096

let spmv_fixture =
  lazy
    (let rng = Prob.Rng.create ~seed:81L () in
     let per_row = spmv_cols / 50 in
     let query =
       Array.init spmv_rows (fun _ ->
           let seen = Hashtbl.create (2 * per_row) in
           let rec draw k acc =
             if k = 0 then acc
             else
               let j = Prob.Rng.int rng spmv_cols in
               if Hashtbl.mem seen j then draw k acc
               else begin
                 Hashtbl.add seen j ();
                 draw (k - 1) (j :: acc)
               end
           in
           Array.of_list (draw per_row []))
     in
     let dense = Linalg.Matrix.of_subset_queries ~query ~n:spmv_cols in
     let sparse = Linalg.Sparse.of_subset_queries ~query ~n:spmv_cols in
     let x = Array.init spmv_cols (fun j -> float_of_int ((j mod 13) - 6) /. 3.) in
     (dense, sparse, x))

let census_solve_fixture =
  lazy
    (let rng = Prob.Rng.create ~seed:82L () in
     let mean_block_size = 40 in
     let tab b =
       let people = Dataset.Synth.census_block rng ~block:b ~mean_block_size in
       Attacks.Census_scale.suppress ~threshold:3
         (Attacks.Census.tabulate_block ~block:b people)
     in
     let neighbor = tab 0 in
     let sup = tab 1 in
     let sol = Attacks.Census_scale.solve_block neighbor in
     let x0 =
       Attacks.Census_scale.warm_seed sup sol.Attacks.Census_scale.relaxed
     in
     (sup, x0))

let linalg_kernel_tests () =
  let dense, sparse, x = Lazy.force spmv_fixture in
  let expected = Linalg.Matrix.mul_vec dense x in
  let check got =
    let n = Array.length expected in
    if Array.length got <> n then failwith "spmv kernel: dimension mismatch";
    for i = 0 to n - 1 do
      if Int64.bits_of_float got.(i) <> Int64.bits_of_float expected.(i) then
        failwith "spmv kernel: sparse and dense disagree"
    done
  in
  let sup, x0 = Lazy.force census_solve_fixture in
  [
    Test.make ~name:"spmv-dense"
      (Staged.stage (fun () -> check (Linalg.Matrix.mul_vec dense x)));
    Test.make ~name:"spmv-sparse"
      (Staged.stage (fun () -> check (Linalg.Sparse.mul_vec sparse x)));
    Test.make ~name:"census-block-solve-cold"
      (Staged.stage (fun () -> ignore (Attacks.Census_scale.solve_block sup)));
    Test.make ~name:"census-block-solve-warm"
      (Staged.stage (fun () ->
           ignore (Attacks.Census_scale.solve_block ~x0 sup)));
  ]

let predicates_only only =
  match only with
  | Some s -> String.lowercase_ascii s = "predicates"
  | None -> false

let linalg_only only =
  match only with
  | Some s -> String.lowercase_ascii s = "linalg"
  | None -> false

let perf_benchmarks ~only ~json ~jobs () =
  let tests =
    if predicates_only only then predicate_kernel_tests ()
    else if linalg_only only then linalg_kernel_tests ()
    else
      Experiments.Registry.all
      |> List.filter (selected only)
      |> List.map (fun (e : Experiments.Registry.entry) ->
             Test.make
               ~name:(Printf.sprintf "%s-kernel" e.Experiments.Registry.id)
               (Staged.stage (fun () ->
                    (* A fresh deterministic generator per run keeps the work
                       identical across samples. *)
                    e.Experiments.Registry.kernel (Prob.Rng.create ~seed:1L ()))))
  in
  (* --only narrows to one experiment kernel or the predicate triple (a
     contract test_json pins); the extras ride along only on full runs. *)
  let tests =
    if only = None then
      tests @ predicate_kernel_tests () @ linalg_kernel_tests ()
      @ obs_overhead_tests ()
    else tests
  in
  let grouped = Test.make_grouped ~name:"experiments" tests in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
        in
        let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
        (name, estimate, r2) :: acc)
      results []
    |> List.sort compare
  in
  Format.printf "@.== Kernel timings (Bechamel, monotonic clock) ==@.";
  Format.printf "%-36s  %14s  %8s@." "kernel" "time/run" "r^2";
  Format.printf "%s@." (String.make 64 '-');
  List.iter
    (fun (name, ns, r2) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Format.printf "%-36s  %14s  %8.4f@." name human r2)
    rows;
  match json with None -> () | Some path -> write_json path ~jobs rows

let () =
  let full = ref false in
  let tables = ref true in
  let perf = ref true in
  let only = ref None in
  let jobs = ref (Parallel.Pool.recommended_jobs ()) in
  let speedup = ref false in
  let json = ref None in
  let args =
    [
      ("--full", Arg.Set full, "full-scale experiment parameters (slow)");
      ("--no-tables", Arg.Clear tables, "skip the experiment tables");
      ("--no-perf", Arg.Clear perf, "skip the Bechamel timings");
      ( "--only",
        Arg.String (fun s -> only := Some s),
        "run a single experiment id ('predicates' selects the query-engine kernels, 'linalg' the SpMV + census-solve kernels)" );
      ("--jobs", Arg.Set_int jobs, "worker domains for Monte Carlo trials (default: cores - 1)");
      ( "--speedup",
        Arg.Set speedup,
        "time each experiment at jobs=1 vs --jobs and diff the tables" );
      ("--json", Arg.String (fun s -> json := Some s), "write kernel timings to FILE as JSON");
    ]
  in
  let usage =
    "usage: bench/main.exe [--full] [--only E7] [--jobs K] [--speedup] [--json FILE] [--no-perf] [--no-tables]"
  in
  Arg.parse args
    (fun anon ->
      Format.eprintf "bench: unexpected argument %s@." anon;
      Arg.usage args usage;
      exit 2)
    usage;
  if !jobs < 1 then begin
    prerr_endline "bench: --jobs must be >= 1";
    Arg.usage args usage;
    exit 2
  end;
  (match !only with
  | Some id
    when (not (predicates_only !only))
         && (not (linalg_only !only))
         && Experiments.Registry.find id = None ->
    Format.eprintf "bench: unknown experiment id %s (valid: %s)@." id
      (String.concat ", "
         (List.map
            (fun (e : Experiments.Registry.entry) -> e.Experiments.Registry.id)
            Experiments.Registry.all));
    Arg.usage args usage;
    exit 2
  | _ -> ());
  Parallel.Pool.set_default_jobs !jobs;
  let scale = if !full then Experiments.Common.Full else Experiments.Common.Quick in
  if !tables then
    if !speedup then speedup_tables ~scale ~only:!only ~jobs:!jobs ()
    else experiment_tables ~scale ~only:!only ();
  if !perf then perf_benchmarks ~only:!only ~json:!json ~jobs:!jobs ();
  (* Reaps the ticker the timeline-10hz overhead kernel leaves running. *)
  Obs.Timeline.stop ()
