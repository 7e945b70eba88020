(** The fused HTML run report: one self-contained static page (inline
    CSS and SVG, no scripts, no external references) combining whichever
    sources a run produced. Each present source renders [<section>]s
    with stable ids — [timeline] (obs-timeline/v3 series as sparkline
    cards) and [metrics] (counter, gauge and sketch tables of the
    timeline's last snapshot), and [ledger] (per-analyst budget
    accounting). Rendering is best-effort over the JSON: a missing or
    mistyped field renders as a gap, never raises. *)

val render :
  ?timeline:Json.t ->
  ?ledger:Ledger.analyst_report list ->
  title:string ->
  unit ->
  string
