(** Prometheus text-exposition export of one metric aggregation.

    Metric names are sanitized into a ["pso_"] namespace; counters get
    ["_total"], sketches render as summaries (quantile series plus
    [_count]).
    Every sample line carries a [class="deterministic"|"timing"] label
    so scrapes can segregate the cross-jobs-stable series, the same
    split every other export applies. *)

val render : Metric.values -> string

val write_file : string -> string -> unit
(** [write_file path content] rewrites [path] atomically (tmp file in
    the same directory, then rename) so a concurrent scraper never
    observes a torn exposition. *)

val validate : string -> (unit, string) result
(** Line-grammar check of an exposition document: every line is blank, a
    well-formed [# HELP]/[# TYPE] comment, or a sample
    ([name\{labels\} value \[timestamp\]] with a float/[+Inf]/[NaN]
    value). The error names the first offending line. *)
