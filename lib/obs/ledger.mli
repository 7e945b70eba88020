(** The privacy audit ledger: an append-only, per-analyst event journal
    for the whole privacy stack (queries, refusals, noise draws, budget
    spends, suppressions), buffered domain-locally and merged to a
    canonical [ledger/v1] JSONL file that is byte-identical at every
    [--jobs] for a fixed seed.

    Determinism comes from logical coordinates instead of wall-clock:
    events carry a (region, task) pair — region from a caller-sequential
    atomic counter bumped per parallel section, task the trial index set
    by [with_task] — and are merged in (region, task, emission-order)
    order; the written [ts] is the post-merge index. Physical domain ids
    and monotonic timestamps are deliberately excluded from the file for
    the same reason wall-clock metrics carry [timing = true] in
    {!Metric}: they are scheduling-dependent. *)

val enabled : unit -> bool

val enable : unit -> unit
(** Switch emission on and open an implicit unlimited session for the
    ambient analyst ["-"] (events emitted outside any curator session). *)

val disable : unit -> unit

val reset : unit -> unit
(** Clear every buffer and restart the logical clock (region counter and
    per-domain contexts). *)

val schema : string

val dropped_total : unit -> int
(** Events dropped so far by per-domain buffer caps (summed across
    domains; scheduling-dependent under overflow, hence exported as a
    timing-class counter). *)

(** {1 Logical coordinates} — called by lib/parallel, not by emitters. *)

val enter_region : unit -> int
(** Allocate a region id for a parallel section ([-1] when disabled). *)

val exit_region : int -> unit
(** Close a region: the caller's ambient context advances past it. *)

val with_task : region:int -> task:int -> (unit -> 'a) -> 'a
(** Run one work item under coordinates (region, task); no-op when
    [region < 0]. *)

val fresh_analyst : unit -> string
(** A deterministic analyst id, unique per (region, task, creation
    index) — the same id at every [--jobs]. *)

(** {1 Emission} — single atomic flag read when disabled. *)

val ambient_analyst : string

val session :
  analyst:string -> policy:string -> ?per_query:float -> ?total:float -> unit -> unit

val query :
  analyst:string ->
  kind:string ->
  digest:string ->
  engine:string ->
  noised:bool ->
  cost:int ->
  unit
(** [cost] is rows touched — the deterministic latency proxy recorded in
    the file (wall-clock belongs in [timing] sketches, not here). *)

val refusal : analyst:string -> reason:string -> detail:(string * float) list -> unit
(** [reason] is ["limit"], ["budget"] or ["audit"]; [detail] carries the
    justification fields {!verify} re-checks. *)

val noise : analyst:string -> mechanism:string -> scale:float -> n:int -> unit

val spend :
  analyst:string ->
  label:string ->
  epsilon:float ->
  ?delta:float ->
  cumulative:float ->
  unit ->
  unit

val spend_many :
  analyst:string -> label:string -> epsilon:float -> n:int -> total:float -> unit

val suppression : analyst:string -> source:string -> cells:int -> rows:int -> unit

(** {1 Serialization} *)

val to_lines : unit -> string list
(** Canonical JSONL: a schema header line, then one event per line in
    merged logical order ([ts] = line index), then a ["truncated"]
    marker if any buffer overflowed. *)

val write_file : string -> unit

(** {1 Replay} *)

type parsed = { p_line : int; p_event : string; p_json : Json.t }

val parse_lines : string list -> (parsed list, string) result

val read : string -> (parsed list, string) result

type violation = { at : int; what : string }

val verify : parsed list -> violation list
(** Mechanically re-check the ledger: sessions precede use, [ts] strictly
    increases, cumulative ε per analyst matches a replay of the spends
    and never exceeds the declared budget, [spend_many] totals equal
    [n x epsilon], every refusal is justified by its recorded detail, and
    the ledger is not truncated. Empty result = clean. *)

type analyst_report = {
  r_analyst : string;
  r_policy : string;
  r_queries : int;
  r_refusals : int;
  r_spent : float;
  r_total : float option;
  r_cost : Sketch.t;
}

val report : parsed list -> analyst_report list
(** Per-analyst totals in order of first appearance; [r_cost] sketches
    query [cost_rows] for deterministic p50/p95/p99. *)

val pp_report : Format.formatter -> analyst_report list -> unit

val report_json : analyst_report list -> Json.t
(** The machine-readable twin of {!pp_report}: a [ledger-report/v1]
    document with one entry per analyst (queries, refusals, eps
    spent/total/left, cost-sketch count and p50/p95/p99). *)
