(* Two views of a finished run:

   - [chrome_trace]: a Chrome `trace_event` document, one track per
     domain, loadable in chrome://tracing or https://ui.perfetto.dev;
   - [pp_summary]: the human table behind `--metrics`, read from the
     final Timeline point (the run's metrics record, `obs-timeline/v3`)
     plus the per-domain track rows of the span report.

   Metric rows flagged "(timing)" measure wall-clock or scheduling; every
   other row is identical at every --jobs for a deterministic workload.
   The track rows are always scheduling-dependent. *)

(* --- Chrome trace_event --- *)

let us_of_ns ns = Int64.to_float ns /. 1e3

let chrome_trace (r : Metric.report) =
  let thread_meta (d : Metric.domain_report) =
    Json.Obj
      [
        ("ph", Json.String "M");
        ("pid", Json.Number 1.);
        ("tid", Json.Number (float_of_int d.Metric.tid));
        ("name", Json.String "thread_name");
        ( "args",
          Json.Obj
            [
              ( "name",
                Json.String
                  (if d.Metric.tid = 0 then
                     Printf.sprintf "domain %d (caller)" d.Metric.domain_id
                   else Printf.sprintf "domain %d" d.Metric.domain_id) );
            ] );
      ]
  in
  let span (d : Metric.domain_report) (e : Metric.event) =
    let base =
      [
        ("ph", Json.String "X");
        ("pid", Json.Number 1.);
        ("tid", Json.Number (float_of_int d.Metric.tid));
        ("name", Json.String e.Metric.ev_name);
        ("ts", Json.number (us_of_ns (Int64.sub e.Metric.ts r.Metric.epoch_ns)));
        ("dur", Json.number (us_of_ns e.Metric.dur));
      ]
    in
    let args =
      match e.Metric.args with
      | [] -> []
      | kvs ->
        [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) kvs)) ]
    in
    Json.Obj (base @ args)
  in
  let events =
    List.concat_map
      (fun (d : Metric.domain_report) ->
        thread_meta d :: List.map (span d) d.Metric.events)
      r.Metric.domains
  in
  Json.Obj
    [ ("displayTimeUnit", Json.String "ms"); ("traceEvents", Json.List events) ]

let write_file path doc =
  let oc = open_out path in
  output_string oc (Json.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc

(* --- human summary --- *)

let pp_summary (p : Timeline.point) fmt (r : Metric.report) =
  let timing t = if t then "  (timing)" else "" in
  Format.fprintf fmt "== obs metrics (schema %s, jobs=%d) ==@." Timeline.schema
    r.Metric.jobs;
  Format.fprintf fmt "@.%-34s  %14s@." "counter" "value";
  Format.fprintf fmt "%s  %s@." (String.make 34 '-') (String.make 14 '-');
  List.iter
    (fun (c : Timeline.csample) ->
      Format.fprintf fmt "%-34s  %14d%s@." c.Timeline.c_name c.Timeline.c_value
        (timing c.Timeline.c_timing))
    p.Timeline.p_counters;
  if p.Timeline.p_gauges <> [] then begin
    Format.fprintf fmt "@.%-34s  %14s@." "gauge" "value";
    Format.fprintf fmt "%s  %s@." (String.make 34 '-') (String.make 14 '-');
    List.iter
      (fun (g : Timeline.gsample) ->
        Format.fprintf fmt "%-34s  %14.6g%s@." g.Timeline.g_name
          g.Timeline.g_value (timing g.Timeline.g_timing))
      p.Timeline.p_gauges
  end;
  if p.Timeline.p_sketches <> [] then begin
    Format.fprintf fmt "@.%-34s  %10s  %10s  %10s  %10s@." "sketch" "count"
      "p50" "p95" "p99";
    Format.fprintf fmt "%s  %s  %s  %s  %s@." (String.make 34 '-')
      (String.make 10 '-') (String.make 10 '-') (String.make 10 '-')
      (String.make 10 '-');
    List.iter
      (fun (s : Timeline.ssample) ->
        Format.fprintf fmt "%-34s  %10d  %10.3g  %10.3g  %10.3g%s@."
          s.Timeline.ps_name s.Timeline.ps_count s.Timeline.ps_p50
          s.Timeline.ps_p95 s.Timeline.ps_p99 (timing s.Timeline.ps_timing))
      p.Timeline.p_sketches
  end;
  Format.fprintf fmt "@.%-10s  %8s  %8s  %12s  %8s@." "track" "domain" "spans"
    "busy" "dropped";
  Format.fprintf fmt "%s  %s  %s  %s  %s@." (String.make 10 '-')
    (String.make 8 '-') (String.make 8 '-') (String.make 12 '-')
    (String.make 8 '-');
  List.iter
    (fun (d : Metric.domain_report) ->
      Format.fprintf fmt "%-10d  %8d  %8d  %10.1fms  %8d@." d.Metric.tid
        d.Metric.domain_id
        (List.length d.Metric.events)
        (Int64.to_float d.Metric.busy_ns /. 1e6)
        d.Metric.ev_dropped)
    r.Metric.domains
