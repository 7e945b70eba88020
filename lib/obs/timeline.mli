(** Periodic snapshots of every registered metric — counters, gauges,
    quantile sketches — frozen into a ring buffer of
    timestamped points with per-interval deltas and rates, feeding the
    Prometheus exporter ({!Prom}), the live [--watch] dashboard
    ({!Watch}) and the fused HTML run report ({!Report_html}).

    Captures are *consistent*: the pool brackets every work item with
    {!item_begin}/{!item_end}, and {!capture} drains in-flight items
    through an SC-atomic quiescence gate before reading the plain
    domain-local collector arrays, so a point never observes half an
    item (no torn reads). The timeline as a whole is timing-class (tick
    placement depends on wall-clock), but a final capture taken after
    the workload with the ticker stopped is the run's metrics record:
    its [timing = false] entries are byte-identical at every [--jobs]. *)

(** {1 Pool integration} — called by lib/parallel, not by users. *)

val item_begin : unit -> unit
(** Enter a work item on this domain (nesting-aware; only the outermost
    item holds the gate). Blocks briefly while a capture drains. *)

val item_end : unit -> unit
(** Leave a work item; wakes a waiting capture when the pool quiesces. *)

(** {1 Snapshot points} *)

type csample = { c_name : string; c_timing : bool; c_value : int; c_delta : int }

type gsample = {
  g_name : string;
  g_timing : bool;
  g_value : float;
  g_delta : float;
}

type ssample = {
  ps_name : string;
  ps_timing : bool;
  ps_count : int;
  ps_min : float;
  ps_max : float;
  ps_p50 : float;
  ps_p90 : float;
  ps_p95 : float;
  ps_p99 : float;
  ps_wcount : int;
  ps_wp50 : float;
  ps_wp95 : float;
  ps_wp99 : float;
}
(** Cumulative exact extrema and quantiles ([nan] while empty) plus the
    window (since the previous point) view derived with {!Sketch.diff}. *)

type point = {
  seq : int;
  t_ns : int64;
  dt_ns : int64;
  final : bool;
  p_counters : csample list;
  p_gauges : gsample list;
  p_sketches : ssample list;
}
(** All sample lists ascend by name, mirroring {!Metric.values}. *)

val capture : ?final:bool -> unit -> point
(** Freeze one consistent cross-domain view, append it to the ring
    buffer, and run every subscriber (outside the gate — the pool is
    already moving again). [final] marks the post-workload capture. *)

val points : unit -> point list
(** Ring contents (the last 512 points), oldest first. *)

type subscriber = Metric.values -> point -> unit

val subscribe : subscriber -> unit
(** Run on every capture, in subscription order, with the full
    aggregation (merged sketches included) and the built point. *)

val set_jobs : int -> unit
(** Echoed into the [obs-timeline/v3] header. *)

val reset : unit -> unit
(** Clear points, deltas, subscribers and configuration (jobs 1), and
    start the clock: the next point's [t_ns] and [dt_ns]
    measure from here. Does not stop a running ticker — call {!stop}
    first. *)

(** {1 Ticker} *)

val start : period_ns:int64 -> unit -> unit
(** Spawn the ticker domain capturing every [period_ns] (clamped to
    >= 1ms) against absolute deadlines. Idempotent while running. *)

val stop : unit -> unit
(** Stop and join the ticker (no-op when not running). *)

val running : unit -> bool

(** {1 obs-timeline/v3 export} *)

val schema : string

val to_json : unit -> Json.t
(** The ring as an [obs-timeline/v3] document: header ([jobs],
    [period_ns]) plus one object per point with [counters], [gauges] and
    [sketches]. Sketch samples carry [count], [min], [max], [p50], [p90],
    [p95], [p99] and the window quantiles; non-finite values render as
    [null]. *)

val validate : Json.t -> (unit, string) result
(** Shape check of an [obs-timeline/v3] document (schema, version, and
    per-snapshot sample fields); does not re-derive deltas or rates. An
    older schema is rejected with [schema "...", expected "obs-timeline/v3"].
    Never raises. *)
