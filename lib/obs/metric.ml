(* The telemetry core: counters, gauges, quantile sketches and nested
   spans, aggregated domain-locally and merged at snapshot time.

   Design constraints (see EXPERIMENTS.md, "Observability"):

   - Zero RNG interaction: nothing here draws randomness, so enabling
     telemetry cannot perturb any experiment table.

   - Near-zero cost when disabled: every recording operation is a single
     atomic flag read plus a branch. The sink is sealed — there is no
     indirection through a configurable backend on the hot path.

   - Domain-local aggregation: each domain owns a collector reached
     through [Domain.DLS] (the same pattern as the predicate digest
     cache), so recording never takes a lock and never contends.

   - Deterministic merge: [values] folds collectors in ascending
     domain-index order. Counters, gauges and sketch buckets are integer
     sums, so merged totals are independent of how the pool interleaved
     work — byte-identical at every --jobs for a deterministic workload.

   Metrics that measure wall-clock (durations, per-participant steal
   counts) are inherently scheduling-dependent; they carry [timing =
   true] and are excluded from cross-jobs determinism checks. A
   deterministic counter must be updated *inside* the work item (not
   after a parallel region's completion handshake) so the pool's
   finish-mutex orders the write before the caller's snapshot. *)

let on = Atomic.make false

let enabled () = Atomic.get on

(* Process epoch for trace timestamps; set once so re-enabling (the bench
   overhead kernels toggle the flag) keeps one coherent timeline. *)
let epoch = ref 0L

let enable () =
  if not (Atomic.get on) then begin
    if !epoch = 0L then epoch := Clock.now_ns ();
    Atomic.set on true
  end

let disable () = Atomic.set on false

(* --- metric registry (names are process-global, ids dense) --- *)

let registry_mutex = Mutex.create ()

(* [help] feeds the Prometheus # HELP line (and any other export that
   wants prose); empty means "no description registered" and exporters
   fall back to the name. *)
type meta = { id : int; name : string; timing : bool; help : string }

let counter_metas : meta list ref = ref [] (* reverse registration order *)

let n_counters = ref 0

let gauge_metas : meta list ref = ref []

let n_gauges = ref 0

let sketch_metas : meta list ref = ref []

let n_sketches = ref 0

(* [make] is idempotent by name so independent modules can share a metric
   (e.g. "dp.noise_draws" is bumped from both lib/dp and the Laplace
   mechanism in lib/query). *)
let register metas n ~timing ~help name =
  Mutex.lock registry_mutex;
  let m =
    (* First registration wins (including its help text). *)
    match List.find_opt (fun m -> String.equal m.name name) !metas with
    | Some m -> m
    | None ->
      let m = { id = !n; name; timing; help } in
      incr n;
      metas := m :: !metas;
      m
  in
  Mutex.unlock registry_mutex;
  m

(* --- domain-local collectors --- *)

type event = {
  ev_name : string;
  ts : int64; (* monotonic ns *)
  dur : int64;
  depth : int; (* span-stack depth at open, 0 = domain root *)
  args : (string * string) list;
}

type collector = {
  domain : int;
  mutable counts : int array; (* indexed by counter id *)
  mutable gauges : int array; (* gauge id -> nano-unit integer sum *)
  mutable sks : Sketch.t option array; (* sketch id -> samples, None = untouched *)
  mutable events : event array;
  mutable n_events : int;
  mutable dropped : int;
  mutable depth : int;
}

(* Traces are capped so an instrumented tight loop cannot exhaust memory;
   overflowing events are counted, not silently lost. *)
let max_events = 1 lsl 18

(* The cap is surfaced loudly, once per run, the first time an
   aggregation sees drops (see [values]). *)
let warned_dropped = ref false

let collectors : collector list ref = ref []

let collector_key : collector Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock registry_mutex;
      let c =
        {
          domain = (Domain.self () :> int);
          counts = Array.make (max 8 !n_counters) 0;
          gauges = Array.make (max 8 !n_gauges) 0;
          sks = Array.make (max 8 !n_sketches) None;
          events = [||];
          n_events = 0;
          dropped = 0;
          depth = 0;
        }
      in
      collectors := c :: !collectors;
      Mutex.unlock registry_mutex;
      c)

let collector () = Domain.DLS.get collector_key

let reset () =
  Mutex.lock registry_mutex;
  List.iter
    (fun c ->
      Array.fill c.counts 0 (Array.length c.counts) 0;
      Array.fill c.gauges 0 (Array.length c.gauges) 0;
      Array.iter (Option.iter Sketch.reset) c.sks;
      c.n_events <- 0;
      c.dropped <- 0)
    !collectors;
  Mutex.unlock registry_mutex;
  warned_dropped := false;
  epoch := Clock.now_ns ()

(* --- counters --- *)

module Counter = struct
  type t = meta

  let make ?(timing = false) ?(help = "") name =
    register counter_metas n_counters ~timing ~help name

  let add t k =
    if Atomic.get on then begin
      let c = collector () in
      if t.id >= Array.length c.counts then begin
        let a = Array.make (max (t.id + 1) ((2 * Array.length c.counts) + 8)) 0 in
        Array.blit c.counts 0 a 0 (Array.length c.counts);
        c.counts <- a
      end;
      c.counts.(t.id) <- c.counts.(t.id) + k
    end

  let incr t = add t 1
end

(* --- gauges --- *)

module Gauge = struct
  type t = meta

  let make ?(timing = false) ?(help = "") name =
    register gauge_metas n_gauges ~timing ~help name

  (* Accumulated as integer nano-units so the cross-domain merge is an
     exact integer sum: float addition order would depend on scheduling
     and break cross-jobs byte-identity of exported values. *)
  let units v = int_of_float (Float.round (v *. 1e9))

  let add_units t u =
    if Atomic.get on then begin
      let c = collector () in
      if t.id >= Array.length c.gauges then begin
        let a = Array.make (max (t.id + 1) ((2 * Array.length c.gauges) + 8)) 0 in
        Array.blit c.gauges 0 a 0 (Array.length c.gauges);
        c.gauges <- a
      end;
      c.gauges.(t.id) <- c.gauges.(t.id) + u
    end

  let add t v = add_units t (units v)

  (* [k] copies of [v] in O(1); quantizes [v] once so the total equals a
     loop of [add t v] exactly. *)
  let add_scaled t v k = add_units t (k * units v)
end

(* --- quantile sketches --- *)

module Sketchm = struct
  type t = meta

  let make ?(timing = false) ?(help = "") name =
    register sketch_metas n_sketches ~timing ~help name

  let row c (t : meta) =
    if t.id >= Array.length c.sks then begin
      let a = Array.make (max (t.id + 1) ((2 * Array.length c.sks) + 8)) None in
      Array.blit c.sks 0 a 0 (Array.length c.sks);
      c.sks <- a
    end;
    match c.sks.(t.id) with
    | Some s -> s
    | None ->
      let s = Sketch.create () in
      c.sks.(t.id) <- Some s;
      s

  let observe t v = if Atomic.get on then Sketch.add (row (collector ()) t) v
end

(* --- spans --- *)

let record c ev =
  if c.n_events >= max_events then c.dropped <- c.dropped + 1
  else begin
    if c.n_events >= Array.length c.events then begin
      let cap = min max_events (max 256 (2 * Array.length c.events)) in
      let a = Array.make cap ev in
      Array.blit c.events 0 a 0 c.n_events;
      c.events <- a
    end;
    c.events.(c.n_events) <- ev;
    c.n_events <- c.n_events + 1
  end

(* Nesting is tracked per-collector, so a span can never have a
   cross-domain parent; the recorded depth reconstructs the stack. [argsf]
   is evaluated at close, for arguments only known then (items stolen). *)
let with_span ?(args = []) ?argsf name f =
  if not (Atomic.get on) then f ()
  else begin
    let c = collector () in
    let depth = c.depth in
    c.depth <- depth + 1;
    let t0 = Clock.now_ns () in
    let finish () =
      let t1 = Clock.now_ns () in
      c.depth <- depth;
      let args = match argsf with None -> args | Some g -> args @ g () in
      record c { ev_name = name; ts = t0; dur = Int64.sub t1 t0; depth; args }
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt
  end

(* --- aggregation --- *)

(* One consistent cross-domain view of every scalar metric, read by the
   Timeline captures (whose final point is the run's metrics record) and
   the Prometheus exporter. *)

type values = {
  v_counters : (meta * int) list; (* ascending name *)
  v_gauges : (meta * float) list; (* ascending name *)
  v_sketches : (meta * Sketch.t) list; (* merged copies, ascending name *)
}

(* Synthetic drop counters surface the two silent caps (span events per
   domain, ledger events per domain). They carry [timing = true]: whether
   and how much a cap trips under overflow depends on how the pool
   interleaved work, so the totals are scheduling-dependent. id = -1
   keeps them clear of the dense registered-id space. *)
let events_dropped_meta =
  {
    id = -1;
    name = "obs.events_dropped";
    timing = true;
    help = "Span events dropped by the per-domain trace cap";
  }

let ledger_truncated_meta =
  {
    id = -1;
    name = "ledger.events_truncated";
    timing = true;
    help = "Audit-ledger events truncated by the per-domain buffer cap";
  }

let values () =
  Mutex.lock registry_mutex;
  let cs = List.sort (fun a b -> compare a.domain b.domain) !collectors in
  let cmetas = List.rev !counter_metas in
  let gmetas = List.rev !gauge_metas in
  let smetas = List.rev !sketch_metas in
  Mutex.unlock registry_mutex;
  let ev_dropped =
    List.fold_left (fun acc (c : collector) -> acc + c.dropped) 0 cs
  in
  if ev_dropped > 0 && not !warned_dropped then begin
    warned_dropped := true;
    Printf.eprintf
      "[obs] warning: span-event cap tripped: %d event(s) dropped (see \
       obs.events_dropped)\n\
       %!"
      ev_dropped
  end;
  let v_counters =
    List.map
      (fun m ->
        let total =
          List.fold_left
            (fun acc c ->
              acc + (if m.id < Array.length c.counts then c.counts.(m.id) else 0))
            0 cs
        in
        (m, total))
      cmetas
    @ [
        (events_dropped_meta, ev_dropped);
        (ledger_truncated_meta, Ledger.dropped_total ());
      ]
    |> List.sort (fun ((a : meta), _) (b, _) -> String.compare a.name b.name)
  in
  let v_gauges =
    List.map
      (fun m ->
        let units =
          List.fold_left
            (fun acc (c : collector) ->
              acc + (if m.id < Array.length c.gauges then c.gauges.(m.id) else 0))
            0 cs
        in
        (m, float_of_int units /. 1e9))
      gmetas
    |> List.sort (fun ((a : meta), _) (b, _) -> String.compare a.name b.name)
  in
  let v_sketches =
    List.map
      (fun m ->
        let acc = Sketch.create () in
        List.iter
          (fun (c : collector) ->
            if m.id < Array.length c.sks then
              Option.iter (fun s -> Sketch.merge_into ~into:acc s) c.sks.(m.id))
          cs;
        (m, acc))
      smetas
    |> List.sort (fun ((a : meta), _) (b, _) -> String.compare a.name b.name)
  in
  { v_counters; v_gauges; v_sketches }

(* --- snapshot --- *)

(* The span side of a run: per-domain event tracks for the Chrome trace
   and the --metrics track table. Scalar metrics live in [values]. *)

type domain_report = {
  tid : int; (* dense track index, ascending domain id *)
  domain_id : int;
  events : event list;
  busy_ns : int64; (* sum of root-span durations *)
  ev_dropped : int;
}

type report = { epoch_ns : int64; jobs : int; domains : domain_report list }

let snapshot ?(jobs = 1) () =
  Mutex.lock registry_mutex;
  let cs = List.sort (fun a b -> compare a.domain b.domain) !collectors in
  Mutex.unlock registry_mutex;
  let domains =
    List.mapi
      (fun tid (c : collector) ->
        let events = Array.to_list (Array.sub c.events 0 c.n_events) in
        let busy =
          List.fold_left
            (fun acc (e : event) ->
              if e.depth = 0 then Int64.add acc e.dur else acc)
            0L events
        in
        {
          tid;
          domain_id = c.domain;
          events;
          busy_ns = busy;
          ev_dropped = c.dropped;
        })
      cs
  in
  { epoch_ns = !epoch; jobs; domains }
