(* Obs — the telemetry facade.

   Spans (monotonic-clock timed scopes with parent nesting), counters,
   gauges and quantile sketches (the one distribution metric), aggregated
   domain-locally (Domain.DLS) and merged deterministically in
   domain-index order at snapshot. Disabled (the default), every
   primitive compiles down to one atomic flag read and a branch; nothing
   here ever draws randomness, so telemetry cannot perturb experiment
   tables.

   Typical lifecycle (the full one, with the Timeline ticker and the
   ledger, is written once: [with_obs] in bin/pso_audit.ml):

     Obs.reset (); Obs.Timeline.reset ();
     Obs.enable ();
     ... run instrumented work ...
     let final = Obs.Timeline.capture ~final:true () in
     Obs.Export.write_file "run.timeline.json" (Obs.Timeline.to_json ());
     let report = Obs.snapshot ~jobs () in
     Obs.Export.write_file "run.trace.json" (Obs.Export.chrome_trace report);
     Format.eprintf "%a" (Obs.Export.pp_summary final) report

   The final Timeline point is the run's one metrics record
   (obs-timeline/v3); [snapshot] only carries the span tracks.

   Deterministic metrics (the default) must count logical events — trials,
   noise draws, rows evaluated — updated inside work items. Metrics of
   wall-clock or scheduling (latencies, per-participant steal counts) must
   be declared with ~timing:true; they are flagged in every export and
   excluded from cross-jobs determinism checks. *)

module Metric = Metric
module Counter = Metric.Counter
module Gauge = Metric.Gauge
module Sketch = Sketch
module Sketchm = Metric.Sketchm
module Ledger = Ledger
module Export = Export
module Timeline = Timeline
module Prom = Prom
module Watch = Watch
module Report_html = Report_html

let enabled = Metric.enabled

let now_ns = Clock.now_ns

let enable = Metric.enable

let disable = Metric.disable

let reset = Metric.reset

let with_span = Metric.with_span

let snapshot = Metric.snapshot

type report = Metric.report
