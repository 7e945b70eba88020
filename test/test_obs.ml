(* Tests for the Obs telemetry subsystem (lib/obs):

   - deterministic merge: non-timing counters, gauges and sketches are
     identical at jobs = 1 / 2 / 4 for the same seeded workload;
   - span nesting is well-formed: every recorded span closed, children lie
     inside a same-domain parent at the next shallower depth (the collector
     is domain-local, so cross-domain parents are impossible by
     construction — the check documents it);
   - the final obs-timeline/v3 point (the run's metrics record) and the
     Chrome trace round-trip through Core.Json parse/render, with exact
     gauge totals and full sketch rows;
   - the Chrome trace has one named track per domain and at least two
     domains once workers participate;
   - disabled telemetry is a no-op and records nothing;
   - sketch buckets handle zero / negative / non-finite / extreme values
     and keep exact extrema;
   - enabling telemetry does not perturb an experiment table. *)

let with_pool jobs f =
  let pool = Parallel.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) (fun () -> f pool)

(* Every test leaves the flag off so suites stay independent. *)
let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable f

let c_trials = Obs.Counter.make "test.obs.trials"

let c_sum = Obs.Counter.make "test.obs.sum"

let sk_values = Obs.Sketchm.make "test.obs.values"

let sk_index = Obs.Sketchm.make "test.obs.index"

(* A seeded Monte Carlo workload touching counters, gauges, sketches and
   the instrumented pool/dp paths; returns [finish ()], run with
   telemetry still on. Per-trial accountants route dyadic ε through
   dp.epsilon_spent, so the gauge total (2.0 exactly) is itself a
   jobs-invariance probe. *)
let workload jobs finish =
  with_obs (fun () ->
      with_pool jobs (fun pool ->
          let rng = Prob.Rng.create ~seed:7L () in
          let results =
            Parallel.Trials.map pool rng ~trials:64 (fun trial_rng i ->
                Obs.Counter.incr c_trials;
                Obs.Counter.add c_sum i;
                let v = Prob.Rng.uniform trial_rng *. 100. in
                Obs.Sketchm.observe sk_values v;
                Obs.Sketchm.observe sk_index (float_of_int (1 + i));
                let a = Dp.Accountant.create () in
                Dp.Accountant.spend a ~epsilon:0.015625 "unit";
                Dp.Accountant.spend_many a ~epsilon:0.0078125 ~n:2 "unit-many";
                Dp.Laplace.sum trial_rng ~epsilon:1. ~lo:0. ~hi:1. [| v |])
          in
          ignore (results : float array);
          finish ()))

let deterministic (rows : (Obs.Metric.meta * 'a) list) =
  List.filter_map
    (fun ((m : Obs.Metric.meta), v) ->
      if m.Obs.Metric.timing then None else Some (m.Obs.Metric.name, v))
    rows

let deterministic_counters (v : Obs.Metric.values) =
  deterministic v.Obs.Metric.v_counters

let deterministic_gauges (v : Obs.Metric.values) =
  deterministic v.Obs.Metric.v_gauges

(* A sketch reduced to its deterministic fingerprint: count, exact
   extrema and the exported quantiles. Empty sketches read nan extrema,
   which no float equality accepts; count 0 is their whole fingerprint,
   so they are left out. *)
let deterministic_sketches (v : Obs.Metric.values) =
  List.filter_map
    (fun (name, sk) ->
      if Obs.Sketch.is_empty sk then None
      else
        Some
          ( name,
            [
              float_of_int (Obs.Sketch.count sk);
              Obs.Sketch.min_value sk;
              Obs.Sketch.max_value sk;
              Obs.Sketch.quantile sk 0.5;
              Obs.Sketch.quantile sk 0.95;
              Obs.Sketch.quantile sk 0.99;
            ] ))
    (deterministic v.Obs.Metric.v_sketches)

let test_counters_jobs_independent () =
  let base = workload 1 Obs.Metric.values in
  let base_counters = deterministic_counters base in
  (* The workload really counted something. *)
  Alcotest.(check (option int))
    "64 trials counted" (Some 64)
    (List.assoc_opt "test.obs.trials" base_counters);
  Alcotest.(check (option int))
    "index sum" (Some (63 * 64 / 2))
    (List.assoc_opt "test.obs.sum" base_counters);
  Alcotest.(check bool)
    "dp draws counted" true
    (match List.assoc_opt "dp.noise_draws" base_counters with
    | Some v -> v >= 64
    | None -> false);
  let base_gauges = deterministic_gauges base in
  let base_sketches = deterministic_sketches base in
  Alcotest.(check (option (float 0.)))
    "per-trial dyadic spends total exactly" (Some 2.0)
    (List.assoc_opt "dp.epsilon_spent" base_gauges);
  (match List.assoc_opt "test.obs.index" base_sketches with
  | Some (count :: mn :: mx :: _) ->
    Alcotest.(check (float 0.)) "sketch counted every trial" 64. count;
    Alcotest.(check (float 0.)) "sketch min exact" 1. mn;
    Alcotest.(check (float 0.)) "sketch max exact" 64. mx
  | _ -> Alcotest.fail "test.obs.index sketch missing");
  List.iter
    (fun jobs ->
      let r = workload jobs Obs.Metric.values in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "counters at jobs=%d match jobs=1" jobs)
        base_counters (deterministic_counters r);
      Alcotest.(check (list (pair string (float 0.))))
        (Printf.sprintf "gauges at jobs=%d match jobs=1" jobs)
        base_gauges (deterministic_gauges r);
      Alcotest.(check (list (pair string (list (float 0.)))))
        (Printf.sprintf "sketch quantiles at jobs=%d match jobs=1" jobs)
        base_sketches (deterministic_sketches r))
    [ 2; 4 ]

(* --- quantile sketch --- *)

let test_sketch_basics () =
  let s = Obs.Sketch.create () in
  Alcotest.(check bool) "fresh sketch empty" true (Obs.Sketch.is_empty s);
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Obs.Sketch.quantile s 0.5));
  for i = 1 to 100 do
    Obs.Sketch.add s (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (Obs.Sketch.count s);
  Alcotest.(check (float 0.)) "min exact" 1. (Obs.Sketch.min_value s);
  Alcotest.(check (float 0.)) "max exact" 100. (Obs.Sketch.max_value s);
  let q p = Obs.Sketch.quantile s p in
  Alcotest.(check bool) "p50 within sketch error of 50" true
    (Float.abs (q 0.5 -. 50.) <= 0.05 *. 50.);
  Alcotest.(check bool) "p99 within sketch error of 99" true
    (Float.abs (q 0.99 -. 99.) <= 0.05 *. 99.);
  Alcotest.(check bool) "quantiles monotone and clamped" true
    (q 0. >= 1. && q 0.5 <= q 0.95 && q 0.95 <= q 0.99 && q 0.99 <= 100.);
  let c = Obs.Sketch.copy s in
  Obs.Sketch.reset s;
  Alcotest.(check bool) "reset empties" true (Obs.Sketch.is_empty s);
  Alcotest.(check int) "copy unaffected by reset" 100 (Obs.Sketch.count c);
  let u = Obs.Sketch.create () in
  Obs.Sketch.add u 0.;
  Obs.Sketch.add u (-3.);
  Obs.Sketch.add u Float.nan;
  Alcotest.(check int) "underflow samples counted" 3 (Obs.Sketch.count u);
  Alcotest.(check (float 0.)) "all-underflow quantile reads 0" 0.
    (Obs.Sketch.quantile u 0.5);
  Alcotest.check_raises "negative add_n rejected"
    (Invalid_argument "Obs.Sketch.add_n: negative count") (fun () ->
      Obs.Sketch.add_n u 1. (-1))

(* Merging in any grouping yields identical quantiles — the property the
   cross-domain snapshot merge relies on. *)
let test_sketch_merge_grouping () =
  let values = Array.init 300 (fun i -> Float.of_int (1 + ((i * 7919) mod 997))) in
  let part lo hi =
    let s = Obs.Sketch.create () in
    for i = lo to hi - 1 do
      Obs.Sketch.add s values.(i)
    done;
    s
  in
  let a = part 0 100 and b = part 100 200 and c = part 200 300 in
  let left = Obs.Sketch.copy a in
  Obs.Sketch.merge_into ~into:left b;
  Obs.Sketch.merge_into ~into:left c;
  let right = Obs.Sketch.copy c in
  Obs.Sketch.merge_into ~into:right a;
  Obs.Sketch.merge_into ~into:right b;
  Alcotest.(check int) "merged counts agree" (Obs.Sketch.count left)
    (Obs.Sketch.count right);
  List.iter
    (fun p ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "p%g identical across merge orders" (p *. 100.))
        (Obs.Sketch.quantile left p)
        (Obs.Sketch.quantile right p))
    [ 0.; 0.25; 0.5; 0.9; 0.95; 0.99; 1. ];
  Alcotest.(check int) "source sketches unchanged" 100 (Obs.Sketch.count b)

(* --- span nesting --- *)

let span_end (e : Obs.Metric.event) = Int64.add e.Obs.Metric.ts e.Obs.Metric.dur

let test_span_nesting () =
  let report =
    with_obs (fun () ->
        Obs.with_span "outer" (fun () ->
            Obs.with_span "mid" (fun () ->
                Obs.with_span "inner" (fun () -> ignore (Sys.opaque_identity 1)));
            Obs.with_span "mid2" (fun () -> ()));
        (try
           Obs.with_span "raises" (fun () -> failwith "boom")
         with Failure _ -> ());
        Obs.snapshot ())
  in
  let all_events =
    List.concat_map (fun (d : Obs.Metric.domain_report) -> d.Obs.Metric.events)
      report.Obs.Metric.domains
  in
  Alcotest.(check int) "five spans recorded" 5 (List.length all_events);
  Alcotest.(check bool)
    "exception path still records its span" true
    (List.exists
       (fun (e : Obs.Metric.event) -> e.Obs.Metric.ev_name = "raises")
       all_events);
  List.iter
    (fun (d : Obs.Metric.domain_report) ->
      List.iter
        (fun (e : Obs.Metric.event) ->
          Alcotest.(check bool)
            (e.Obs.Metric.ev_name ^ " has non-negative duration")
            true
            (e.Obs.Metric.dur >= 0L);
          if e.Obs.Metric.depth > 0 then
            (* A same-domain parent one level up encloses the child. *)
            Alcotest.(check bool)
              (e.Obs.Metric.ev_name ^ " has an enclosing same-domain parent")
              true
              (List.exists
                 (fun (p : Obs.Metric.event) ->
                   p.Obs.Metric.depth = e.Obs.Metric.depth - 1
                   && p.Obs.Metric.ts <= e.Obs.Metric.ts
                   && span_end p >= span_end e)
                 d.Obs.Metric.events))
        d.Obs.Metric.events)
    report.Obs.Metric.domains

(* --- JSON round-trips --- *)

let roundtrip name doc =
  let s = Core.Json.to_string ~pretty:true doc in
  match Core.Json.of_string s with
  | Error e -> Alcotest.failf "%s did not parse back: %s" name e
  | Ok parsed ->
    Alcotest.(check bool) (name ^ " round-trips") true (Core.Json.equal doc parsed)

let test_metrics_roundtrip () =
  let doc, trace =
    workload 2 (fun () ->
        Obs.Timeline.reset ();
        ignore (Obs.Timeline.capture ~final:true ());
        let doc = Obs.Timeline.to_json () in
        Obs.Timeline.reset ();
        (doc, Obs.Export.chrome_trace (Obs.snapshot ~jobs:2 ())))
  in
  roundtrip "obs-timeline/v3" doc;
  (match Core.Json.member "schema" doc with
  | Some (Core.Json.String s) ->
    Alcotest.(check string) "schema field" "obs-timeline/v3" s
  | _ -> Alcotest.fail "schema field missing");
  let final =
    match Core.Json.member "snapshots" doc with
    | Some (Core.Json.List [ p ]) -> p
    | _ -> Alcotest.fail "expected exactly the final snapshot"
  in
  let named_rows section =
    match Core.Json.member section final with
    | Some (Core.Json.List rows) ->
      List.filter_map
        (fun row ->
          match Core.Json.member "name" row with
          | Some (Core.Json.String n) -> Some (n, row)
          | _ -> None)
        rows
    | _ -> Alcotest.failf "%s section missing" section
  in
  (match List.assoc_opt "dp.epsilon_spent" (named_rows "gauges") with
  | Some row ->
    (match Core.Json.member "value" row with
    | Some (Core.Json.Number v) ->
      Alcotest.(check (float 0.)) "exported epsilon total" 2.0 v
    | _ -> Alcotest.fail "gauge value not a number")
  | None -> Alcotest.fail "dp.epsilon_spent not exported");
  (match List.assoc_opt "test.obs.index" (named_rows "sketches") with
  | Some row ->
    List.iter
      (fun field ->
        match Core.Json.member field row with
        | Some (Core.Json.Number _) -> ()
        | _ -> Alcotest.failf "sketch row lacks numeric %s" field)
      [ "count"; "min"; "max"; "p50"; "p90"; "p95"; "p99" ]
  | None -> Alcotest.fail "test.obs.index sketch not exported");
  roundtrip "chrome trace" trace

(* --- Chrome trace shape --- *)

let test_chrome_trace_tracks () =
  let report =
    with_obs (fun () ->
        with_pool 4 (fun pool ->
            (* Sleeping items yield the processor, so worker domains claim
               work (and register collectors) even on a single core. *)
            ignore
              (Parallel.Pool.parallel_init_array pool 32 (fun i ->
                   Unix.sleepf 0.002;
                   i));
            Obs.snapshot ~jobs:4 ()))
  in
  Alcotest.(check bool)
    "at least two domain tracks" true
    (List.length report.Obs.Metric.domains >= 2);
  let doc = Obs.Export.chrome_trace report in
  let events =
    match Core.Json.member "traceEvents" doc with
    | Some (Core.Json.List l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let field name ev =
    match Core.Json.member name ev with
    | Some v -> v
    | None -> Alcotest.failf "trace event lacks %S" name
  in
  let tids = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      (match field "tid" ev with
      | Core.Json.Number t -> Hashtbl.replace tids t ()
      | _ -> Alcotest.fail "tid not a number");
      match field "ph" ev with
      | Core.Json.String "M" ->
        Alcotest.(check string)
          "metadata names the thread" "thread_name"
          (match field "name" ev with Core.Json.String s -> s | _ -> "?")
      | Core.Json.String "X" ->
        ignore (field "ts" ev);
        ignore (field "dur" ev)
      | _ -> Alcotest.fail "unexpected event phase")
    events;
  Alcotest.(check bool)
    "two or more tracks in the trace" true (Hashtbl.length tids >= 2)

(* --- disabled is a no-op --- *)

let test_disabled_noop () =
  Obs.reset ();
  Obs.disable ();
  Alcotest.(check int) "with_span passes the value through" 9
    (Obs.with_span "ignored" (fun () -> 9));
  Obs.Counter.add c_sum 1000;
  Obs.Sketchm.observe sk_values 42.;
  let r = Obs.snapshot () in
  let v = Obs.Metric.values () in
  Alcotest.(check (option int))
    "counter untouched while disabled" (Some 0)
    (List.assoc_opt "test.obs.sum" (deterministic_counters v));
  Alcotest.(check (option int))
    "sketch untouched while disabled" (Some 0)
    (Option.map Obs.Sketch.count
       (List.assoc_opt "test.obs.values"
          (deterministic v.Obs.Metric.v_sketches)));
  Alcotest.(check bool)
    "no spans recorded while disabled" true
    (List.for_all
       (fun (d : Obs.Metric.domain_report) -> d.Obs.Metric.events = [])
       r.Obs.Metric.domains)

(* --- sketch bucket edges --- *)

let test_bucket_edges () =
  let u = Obs.Sketch.create () in
  Obs.Sketch.add u 0.;
  Obs.Sketch.add u (-5.);
  Obs.Sketch.add u Float.nan;
  Obs.Sketch.add u Float.infinity;
  Alcotest.(check int) "zero, negative, nan, +inf go to the underflow slot" 4
    (Obs.Sketch.count u);
  Alcotest.(check bool) "underflow samples leave extrema unset" true
    (Float.is_nan (Obs.Sketch.min_value u)
    && Float.is_nan (Obs.Sketch.max_value u));
  Alcotest.(check (float 0.)) "underflow reads as 0" 0.
    (Obs.Sketch.quantile u 1.);
  (* Out-of-span values clamp into the first and last octave; the exact
     extrema still read them back. *)
  let e = Obs.Sketch.create () in
  Obs.Sketch.add e 1e-30;
  Obs.Sketch.add e 1e30;
  Alcotest.(check (float 0.)) "1e-30 read back as min" 1e-30
    (Obs.Sketch.min_value e);
  Alcotest.(check (float 0.)) "1e30 read back as max" 1e30
    (Obs.Sketch.max_value e);
  (* A window view estimates its extrema from the occupied buckets, so it
     shows which octaves the two samples landed in. *)
  let w = Obs.Sketch.diff ~newer:e ~older:(Obs.Sketch.create ()) in
  let in_octave k v = v >= Float.pow 2. k && v < Float.pow 2. (k +. 1.) in
  Alcotest.(check bool) "1e-30 clamps into the first octave (2^-24)" true
    (in_octave (-24.) (Obs.Sketch.min_value w));
  Alcotest.(check bool) "1e30 clamps into the last octave (2^39)" true
    (in_octave 39. (Obs.Sketch.max_value w));
  let observed =
    with_obs (fun () ->
        Obs.Sketchm.observe sk_values 1.;
        Obs.Sketchm.observe sk_values 0.;
        Obs.Metric.values ())
  in
  match
    List.assoc_opt "test.obs.values"
      (deterministic observed.Obs.Metric.v_sketches)
  with
  | None -> Alcotest.fail "test.obs.values sketch missing"
  | Some sk ->
    Alcotest.(check int) "both observations counted" 2 (Obs.Sketch.count sk);
    Alcotest.(check (float 0.)) "the zero lands in the underflow slot" 0.
      (Obs.Sketch.quantile sk 0.);
    Alcotest.(check (float 0.)) "the one is the exact max" 1.
      (Obs.Sketch.max_value sk)

(* --- telemetry does not perturb tables --- *)

let render_e2 () =
  match Experiments.Registry.find "E2" with
  | None -> Alcotest.fail "E2 missing from the registry"
  | Some e ->
    let rng = Prob.Rng.create ~seed:20210621L () in
    let buf = Buffer.create 4096 in
    let fmt = Format.formatter_of_buffer buf in
    e.Experiments.Registry.print ~scale:Experiments.Common.Quick rng fmt;
    Format.pp_print_flush fmt ();
    Buffer.contents buf

let test_tables_unperturbed () =
  Parallel.Pool.set_default_jobs 2;
  Obs.disable ();
  let plain = render_e2 () in
  let traced = with_obs render_e2 in
  Alcotest.(check string) "E2 table identical with telemetry enabled" plain
    traced

let () =
  Alcotest.run "obs"
    [
      ( "determinism",
        [
          Alcotest.test_case "counters independent of jobs" `Slow
            test_counters_jobs_independent;
          Alcotest.test_case "tables unperturbed" `Slow test_tables_unperturbed;
        ] );
      ( "sketch",
        [
          Alcotest.test_case "basics" `Quick test_sketch_basics;
          Alcotest.test_case "merge grouping" `Quick test_sketch_merge_grouping;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting well-formed" `Quick test_span_nesting;
          Alcotest.test_case "chrome trace tracks" `Slow
            test_chrome_trace_tracks;
        ] );
      ( "export",
        [
          Alcotest.test_case "metrics json round-trip" `Slow
            test_metrics_roundtrip;
        ] );
      ( "edges",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "histogram buckets" `Quick test_bucket_edges;
        ] );
    ]
