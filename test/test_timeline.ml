(* Tests for the live-telemetry layer (Obs.Timeline / Prom / Report_html):

   - the final capture's deterministic entries are byte-identical at
     jobs = 1 / 2 / 4 for the same seeded workload (the timeline twin of
     test_obs's snapshot invariance);
   - no torn reads: a ticker capturing at 1 ms while the pool runs items
     that bump two counters in lockstep never observes a point where the
     two disagree — the quiescence gate drains in-flight items first;
   - window sketches (Sketch.diff) subtract cumulative captures;
   - Prometheus rendering passes the line-grammar validator, and
     corrupted expositions are rejected;
   - the clock starts at [reset]: the first point has a nonzero interval
     and finite rates;
   - obs-timeline/v3 documents pass the structural validator, and
     tampered or v2 documents are rejected;
   - mutated documents (a dropped field, a retyped scalar, truncated
     text) never make the validator or the HTML report raise;
   - the fused HTML report is self-contained (no scripts, no external
     references) and names every registered metric. *)

let with_pool jobs f =
  let pool = Parallel.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) (fun () -> f pool)

let with_obs f =
  Obs.reset ();
  Obs.Timeline.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Timeline.stop ();
      Obs.Timeline.reset ();
      Obs.disable ())
    f

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

(* Nodes [f] accepts, counted in the order [mutate_nth] visits them. *)
let rec count_nodes f (j : Json.t) =
  (if f j then 1 else 0)
  +
  match j with
  | Json.Obj kvs -> List.fold_left (fun acc (_, v) -> acc + count_nodes f v) 0 kvs
  | Json.List l -> List.fold_left (fun acc v -> acc + count_nodes f v) 0 l
  | _ -> 0

(* Rewrites the [k]-th node (pre-order, from 0) for which [f] returns
   [Some]. *)
let mutate_nth k f doc =
  let seen = ref (-1) in
  let rec go j =
    let here =
      match f j with
      | Some j' ->
        incr seen;
        if !seen = k then Some j' else None
      | None -> None
    in
    match here with
    | Some j' -> j'
    | None -> (
      match j with
      | Json.Obj kvs -> Json.Obj (List.map (fun (key, v) -> (key, go v)) kvs)
      | Json.List l -> Json.List (List.map go l)
      | j -> j)
  in
  go doc

let c_trials = Obs.Counter.make "test.timeline.trials"

let c_sum = Obs.Counter.make "test.timeline.sum"

let g_eps = Obs.Gauge.make "test.timeline.eps"

let sk_cost = Obs.Sketchm.make "test.timeline.cost"

let sk_values = Obs.Sketchm.make "test.timeline.values"

let workload pool =
  let rng = Prob.Rng.create ~seed:11L () in
  let results =
    Parallel.Trials.map pool rng ~trials:96 (fun trial_rng i ->
        Obs.Counter.incr c_trials;
        Obs.Counter.add c_sum i;
        Obs.Gauge.add g_eps 0.015625;
        Obs.Sketchm.observe sk_cost (float_of_int (1 + (i mod 7)));
        Obs.Sketchm.observe sk_values (Prob.Rng.uniform trial_rng *. 50.);
        i)
  in
  ignore (results : int array)

(* The deterministic fingerprint of a point: cumulative fields of
   [timing = false] entries, sketch extrema and quantiles included.
   Deltas and rates measure "since the last wall-clock-placed tick", so they join the deterministic contract only
   when no periodic tick fired (then delta = value); these tests capture
   manually, without a ticker, so deltas are included. *)
let fingerprint (p : Obs.Timeline.point) =
  let counters =
    List.filter_map
      (fun (c : Obs.Timeline.csample) ->
        if c.Obs.Timeline.c_timing then None
        else
          Some
            (Printf.sprintf "c:%s=%d+%d" c.Obs.Timeline.c_name
               c.Obs.Timeline.c_value c.Obs.Timeline.c_delta))
      p.Obs.Timeline.p_counters
  in
  let gauges =
    List.filter_map
      (fun (g : Obs.Timeline.gsample) ->
        if g.Obs.Timeline.g_timing then None
        else
          Some
            (Printf.sprintf "g:%s=%.17g" g.Obs.Timeline.g_name
               g.Obs.Timeline.g_value))
      p.Obs.Timeline.p_gauges
  in
  let sketches =
    List.filter_map
      (fun (s : Obs.Timeline.ssample) ->
        if s.Obs.Timeline.ps_timing then None
        else
          Some
            (Printf.sprintf "s:%s=%d@%.17g..%.17g@%.17g/%.17g/%.17g/%.17g"
               s.Obs.Timeline.ps_name s.Obs.Timeline.ps_count
               s.Obs.Timeline.ps_min s.Obs.Timeline.ps_max
               s.Obs.Timeline.ps_p50 s.Obs.Timeline.ps_p90
               s.Obs.Timeline.ps_p95 s.Obs.Timeline.ps_p99))
      p.Obs.Timeline.p_sketches
  in
  String.concat "\n" (counters @ gauges @ sketches)

let final_point jobs =
  with_obs (fun () ->
      with_pool jobs (fun pool ->
          workload pool;
          Obs.Timeline.capture ~final:true ()))

let test_final_jobs_invariance () =
  let p1 = final_point 1 in
  let p2 = final_point 2 in
  let p4 = final_point 4 in
  Alcotest.(check bool) "final point marked final" true p1.Obs.Timeline.final;
  Alcotest.(check string)
    "jobs=1 vs jobs=2" (fingerprint p1) (fingerprint p2);
  Alcotest.(check string)
    "jobs=1 vs jobs=4" (fingerprint p1) (fingerprint p4);
  (* The workload actually counted: the fingerprint is not vacuous. *)
  let trials =
    List.find
      (fun (c : Obs.Timeline.csample) ->
        String.equal c.Obs.Timeline.c_name "test.timeline.trials")
      p1.Obs.Timeline.p_counters
  in
  Alcotest.(check bool)
    "trials counted" true
    (trials.Obs.Timeline.c_value >= 96);
  let values =
    List.find
      (fun (s : Obs.Timeline.ssample) ->
        String.equal s.Obs.Timeline.ps_name "test.timeline.values")
      p1.Obs.Timeline.p_sketches
  in
  Alcotest.(check int)
    "every trial sketched once" 96 values.Obs.Timeline.ps_count

(* The clock starts at [reset], not at the first capture: the first
   point measures a real interval, so no rate is undefined. *)
let test_origin_at_reset () =
  Obs.Timeline.set_jobs 4;
  with_obs (fun () ->
      Obs.Counter.incr c_trials;
      Unix.sleepf 0.005;
      let p = Obs.Timeline.capture () in
      Alcotest.(check bool) "first interval is nonzero" true
        (p.Obs.Timeline.dt_ns > 0L);
      Alcotest.(check int64) "first point's t_ns is its interval"
        p.Obs.Timeline.dt_ns p.Obs.Timeline.t_ns;
      let doc = Obs.Timeline.to_json () in
      Alcotest.(check bool) "no null rate" false
        (contains (Json.to_string doc) {|"rate_per_s":null|});
      Alcotest.(check (option int)) "reset restores jobs 1" (Some 1)
        (Option.bind (Json.member "jobs" doc) Json.to_int))

(* Two counters bumped in lockstep inside every item, with enough work
   between the bumps that an ungated concurrent aggregation would
   routinely observe A ahead of B. Every captured point must see them
   equal: the quiescence gate only reads between items. *)
let c_lock_a = Obs.Counter.make "test.timeline.lock_a"

let c_lock_b = Obs.Counter.make "test.timeline.lock_b"

let test_no_torn_reads () =
  with_obs (fun () ->
      with_pool 4 (fun pool ->
          Obs.Timeline.start ~period_ns:1_000_000L ();
          let spin = ref 0. in
          for _round = 1 to 8 do
            ignore
              (Parallel.Pool.parallel_init_array pool 64 (fun i ->
                   Obs.Counter.incr c_lock_a;
                   (* Busy work between the lockstep bumps widens the
                      window a torn read would need to hit. *)
                   for k = 1 to 2_000 do
                     spin := !spin +. Float.log (float_of_int (k + i + 1))
                   done;
                   Obs.Counter.incr c_lock_b;
                   i))
          done;
          Obs.Timeline.stop ();
          ignore (Obs.Timeline.capture ~final:true ());
          let points = Obs.Timeline.points () in
          Alcotest.(check bool)
            "captured at least the final point" true
            (List.length points >= 1);
          List.iter
            (fun (p : Obs.Timeline.point) ->
              let value name =
                match
                  List.find_opt
                    (fun (c : Obs.Timeline.csample) ->
                      String.equal c.Obs.Timeline.c_name name)
                    p.Obs.Timeline.p_counters
                with
                | Some c -> c.Obs.Timeline.c_value
                | None -> 0
              in
              Alcotest.(check int)
                (Printf.sprintf "lockstep at seq %d" p.Obs.Timeline.seq)
                (value "test.timeline.lock_a")
                (value "test.timeline.lock_b"))
            points;
          let final = List.nth points (List.length points - 1) in
          let value name =
            match
              List.find_opt
                (fun (c : Obs.Timeline.csample) ->
                  String.equal c.Obs.Timeline.c_name name)
                final.Obs.Timeline.p_counters
            with
            | Some c -> c.Obs.Timeline.c_value
            | None -> -1
          in
          Alcotest.(check int) "all items counted" (8 * 64)
            (value "test.timeline.lock_a")))

let test_sketch_diff () =
  let older = Obs.Sketch.create () in
  List.iter (Obs.Sketch.add older) [ 1.; 2.; 4. ];
  let newer = Obs.Sketch.copy older in
  List.iter (Obs.Sketch.add newer) [ 8.; 16.; 32.; 64. ];
  let w = Obs.Sketch.diff ~newer ~older in
  Alcotest.(check int) "window count" 4 (Obs.Sketch.count w);
  let p50 = Obs.Sketch.quantile w 0.5 in
  Alcotest.(check bool)
    "window p50 near 16" true
    (p50 > 12. && p50 < 20.);
  let empty = Obs.Sketch.diff ~newer ~older:newer in
  Alcotest.(check int) "self-diff empty" 0 (Obs.Sketch.count empty)

let test_prom_round_trip () =
  with_obs (fun () ->
      with_pool 2 (fun pool ->
          workload pool;
          ignore (Obs.Timeline.capture ~final:true ());
          let text = Obs.Prom.render (Obs.Metric.values ()) in
          (match Obs.Prom.validate text with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "prom validate: %s" msg);
          Alcotest.(check bool)
            "renders the workload counter" true
            (let sub = "pso_test_timeline_trials_total" in
             let rec contains i =
               if i + String.length sub > String.length text then false
               else String.sub text i (String.length sub) = sub || contains (i + 1)
             in
             contains 0);
          Alcotest.(check bool)
            "segregates timing class" true
            (let sub = {|class="timing"|} in
             let rec contains i =
               if i + String.length sub > String.length text then false
               else String.sub text i (String.length sub) = sub || contains (i + 1)
             in
             contains 0)))

let test_prom_rejects_garbage () =
  (match Obs.Prom.validate "pso_ok_total{class=\"deterministic\"} 12\n" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid sample rejected: %s" msg);
  List.iter
    (fun bad ->
      match Obs.Prom.validate bad with
      | Ok () -> Alcotest.failf "accepted malformed exposition: %S" bad
      | Error _ -> ())
    [
      "not a metric line at all!\n";
      "pso_x{unterminated=\"} 1\n";
      "pso_x 12 not_a_timestamp\n";
      "# TYPE pso_x flavor\n";
      "{\"looks\":\"like json\"}\n";
    ]

let test_timeline_validate () =
  with_obs (fun () ->
      with_pool 2 (fun pool ->
          workload pool;
          ignore (Obs.Timeline.capture ());
          workload pool;
          ignore (Obs.Timeline.capture ~final:true ());
          let doc = Obs.Timeline.to_json () in
          (match Obs.Timeline.validate doc with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "timeline validate: %s" msg);
          (* Canonical JSON round-trip preserves validity. *)
          (match Json.of_string (Json.to_string doc) with
          | Ok doc' -> (
            match Obs.Timeline.validate doc' with
            | Ok () -> ()
            | Error msg -> Alcotest.failf "round-tripped validate: %s" msg)
          | Error msg -> Alcotest.failf "round-trip parse: %s" msg);
          (* Tampering is rejected. *)
          let drop_field name = function
            | Json.Obj kvs ->
              Json.Obj (List.filter (fun (k, _) -> k <> name) kvs)
            | j -> j
          in
          (match Obs.Timeline.validate (drop_field "schema" doc) with
          | Ok () -> Alcotest.fail "accepted document without schema"
          | Error _ -> ());
          (match Obs.Timeline.validate (drop_field "snapshots" doc) with
          | Ok () -> Alcotest.fail "accepted document without snapshots"
          | Error _ -> ());
          let set_field name v = function
            | Json.Obj kvs ->
              Json.Obj (List.map (fun (k, x) -> (k, if k = name then v else x)) kvs)
            | j -> j
          in
          (match
             Obs.Timeline.validate
               (set_field "schema" (Json.String "obs-timeline/v2") doc)
           with
          | Ok () -> Alcotest.fail "accepted an obs-timeline/v2 document"
          | Error msg ->
            Alcotest.(check string) "v2 rejected by schema"
              {|schema "obs-timeline/v2", expected "obs-timeline/v3"|} msg)))
(* --- fuzz: mutated documents never raise --- *)

let valid_doc () =
  with_obs (fun () ->
      with_pool 2 (fun pool ->
          workload pool;
          ignore (Obs.Timeline.capture ());
          workload pool;
          ignore (Obs.Timeline.capture ~final:true ());
          Obs.Timeline.to_json ()))

let test_fuzz_documents () =
  let doc = valid_doc () in
  let text = Json.to_string doc in
  let objects = count_nodes (function Json.Obj (_ :: _) -> true | _ -> false) doc in
  let scalars =
    count_nodes
      (function Json.Obj _ | Json.List _ -> false | _ -> true)
      doc
  in
  let retype = function
    | Json.Null -> Json.Bool true
    | Json.Bool _ -> Json.Number 1.
    | Json.Number _ -> Json.String "x"
    | Json.String _ -> Json.Null
    | j -> j
  in
  (* The contract: [validate] answers Ok or Error, and a document it
     accepts renders. An exception fails the property. *)
  let survives doc =
    match Obs.Timeline.validate doc with
    | Error _ -> true
    | Ok () ->
      String.length (Obs.Report_html.render ~timeline:doc ~title:"fuzz" ()) > 0
  in
  let prop (kind, r1, r2) =
    match kind with
    | 0 ->
      survives
        (mutate_nth (r1 mod objects)
           (function
             | Json.Obj (_ :: _ as kvs) ->
               let drop = r2 mod List.length kvs in
               Some (Json.Obj (List.filteri (fun i _ -> i <> drop) kvs))
             | _ -> None)
           doc)
    | 1 ->
      survives
        (mutate_nth (r1 mod scalars)
           (function
             | Json.Obj _ | Json.List _ -> None
             | j -> Some (retype j))
           doc)
    | _ -> (
      match Json.of_string (String.sub text 0 (r1 mod String.length text)) with
      | Error _ -> true
      | Ok doc -> survives doc)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 14 |])
    (QCheck.Test.make ~name:"mutated obs-timeline/v3 documents" ~count:300
       QCheck.(triple (int_bound 2) (int_bound 1_000_000) (int_bound 1_000))
       prop)


let test_report_html_self_contained () =
  with_obs (fun () ->
      with_pool 2 (fun pool ->
          workload pool;
          ignore (Obs.Timeline.capture ());
          workload pool;
          ignore (Obs.Timeline.capture ~final:true ());
          let timeline = Obs.Timeline.to_json () in
          let html =
            Obs.Report_html.render ~timeline ~title:"test report" ()
          in
          let contains = contains html in
          List.iter
            (fun sub ->
              Alcotest.(check bool)
                (Printf.sprintf "contains %S" sub)
                true (contains sub))
            [
              {|id="timeline"|};
              {|id="metrics"|};
              "<svg";
              "test.timeline.trials";
              "test.timeline.eps";
              "test.timeline.cost";
              "test.timeline.values";
            ];
          List.iter
            (fun sub ->
              Alcotest.(check bool)
                (Printf.sprintf "free of %S" sub)
                false (contains sub))
            [ "<script"; "http://"; "https://"; "src="; "href=" ]))

let () =
  Alcotest.run "timeline"
    [
      ( "timeline",
        [
          Alcotest.test_case "final capture jobs invariance" `Slow
            test_final_jobs_invariance;
          Alcotest.test_case "no torn reads under ticking" `Slow
            test_no_torn_reads;
          Alcotest.test_case "clock starts at reset" `Quick
            test_origin_at_reset;
          Alcotest.test_case "sketch window diff" `Quick test_sketch_diff;
          Alcotest.test_case "prom round-trip" `Quick test_prom_round_trip;
          Alcotest.test_case "prom rejects garbage" `Quick
            test_prom_rejects_garbage;
          Alcotest.test_case "timeline validates and rejects tampering" `Quick
            test_timeline_validate;
          Alcotest.test_case "mutated documents never raise" `Quick
            test_fuzz_documents;
          Alcotest.test_case "report html self-contained" `Quick
            test_report_html_self_contained;
        ] );
    ]
