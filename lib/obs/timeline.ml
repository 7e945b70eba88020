(* Periodic snapshots of the whole metric surface, with per-interval
   deltas and rates, feeding the Prometheus exporter, the live --watch
   dashboard and the fused HTML run report.

   Two concerns live here and they are deliberately separated:

   - The *quiescence gate* makes a capture consistent. Metric collectors
     are plain (non-atomic) domain-local arrays; reading them while a
     worker is mid-item could observe a torn view (counter A bumped,
     counter B not yet). The pool brackets every work item with
     [item_begin]/[item_end]; [capture] waits until no item is in
     flight before aggregating. All ordering goes through SC atomics
     ([active], [capturing]), so a worker's plain writes inside an item
     happen-before the capturer's reads: the capture sees whole items
     only. Items are short (one trial / one chunk), so the gate stalls
     the pool for at most one item's tail, and workers that arrive while
     a capture is draining back off and retry instead of deadlocking.

   - The *ticker* is a dedicated domain that sleeps in short chunks (so
     [stop] is responsive) and calls [capture] on each period boundary.
     It records no metrics itself, so it never allocates a collector and
     never appears in the domains report.

   Determinism contract: the timeline as a whole is timing-class — how
   many ticks land, and where, depends on wall-clock. But the *final*
   capture (taken after the workload completes, with the ticker stopped)
   is the run's metrics record: its [timing = false] entries (counter
   and gauge values, sketch count/extrema/quantiles) are integer merges,
   byte-identical at every --jobs; with no
   intermediate ticks its deltas equal its values and are equally
   deterministic. Exports carry [timing] on every sample so consumers
   can keep the two classes apart. *)

(* --- quiescence gate --- *)

let capturing = Atomic.make false

let active = Atomic.make 0

let gate_mutex = Mutex.create ()

let quiet = Condition.create () (* signalled: [active] may have reached 0 *)

let resumed = Condition.create () (* signalled: [capturing] went false *)

(* Per-domain item-nesting depth: only the outermost item of a nested
   parallel region holds the gate, so re-entry cannot self-deadlock. *)
let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let rec enter () =
  Atomic.incr active;
  if Atomic.get capturing then begin
    (* A capture is draining the pool: back out (so the capturer can see
       zero), wait for it to finish, then retry. *)
    ignore (Atomic.fetch_and_add active (-1));
    Mutex.lock gate_mutex;
    Condition.broadcast quiet;
    while Atomic.get capturing do
      Condition.wait resumed gate_mutex
    done;
    Mutex.unlock gate_mutex;
    enter ()
  end

let item_begin () =
  let d = Domain.DLS.get depth_key in
  incr d;
  if !d = 1 then enter ()

let item_end () =
  let d = Domain.DLS.get depth_key in
  decr d;
  if !d = 0 then begin
    ignore (Atomic.fetch_and_add active (-1));
    if Atomic.get capturing then begin
      Mutex.lock gate_mutex;
      Condition.broadcast quiet;
      Mutex.unlock gate_mutex
    end
  end

(* Runs [f] with no work item in flight. Callers are serialized by
   [capture_mutex] below, so at most one capturer manipulates
   [capturing] at a time. When called from *inside* a work item (a
   metric hook capturing mid-region on the worker's own domain) the pool
   cannot drain — skip the gate rather than deadlock; the capture is
   then best-effort for other domains' in-flight items. *)
let with_quiescence f =
  if !(Domain.DLS.get depth_key) > 0 then f ()
  else begin
    Mutex.lock gate_mutex;
    Atomic.set capturing true;
    while Atomic.get active > 0 do
      Condition.wait quiet gate_mutex
    done;
    let finish () =
      Atomic.set capturing false;
      Condition.broadcast resumed;
      Mutex.unlock gate_mutex
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

(* --- snapshot points --- *)

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
  ps_wcount : int; (* window (since previous point) *)
  ps_wp50 : float;
  ps_wp95 : float;
  ps_wp99 : float;
}

type point = {
  seq : int;
  t_ns : int64; (* since timeline start — timing-class by nature *)
  dt_ns : int64; (* since the previous point (= t_ns for the first) *)
  final : bool;
  p_counters : csample list; (* ascending name, like Metric.values *)
  p_gauges : gsample list;
  p_sketches : ssample list;
}

(* --- timeline state (all under [capture_mutex]) --- *)

let capture_mutex = Mutex.create ()

let capacity = 512

let ring : point Queue.t = Queue.create ()

let seq_next = ref 0

let t_start = ref (Clock.now_ns ()) (* the origin of t_ns, set by [reset] *)

let last_t = ref 0L

let cfg_jobs = ref 1

let cfg_period = ref 0L (* ns; informational, echoed into the export *)

(* Previous cumulative state, for deltas and window sketches. *)
let prev_counters : (string, int) Hashtbl.t = Hashtbl.create 64

let prev_gauges : (string, float) Hashtbl.t = Hashtbl.create 16

let prev_sketches : (string, Sketch.t) Hashtbl.t = Hashtbl.create 16

type subscriber = Metric.values -> point -> unit

let subscribers : subscriber list ref = ref []

let subscribe f =
  Mutex.lock capture_mutex;
  subscribers := f :: !subscribers;
  Mutex.unlock capture_mutex

let set_jobs j = cfg_jobs := max 1 j

let locked f =
  Mutex.lock capture_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock capture_mutex) f

let points () = locked (fun () -> List.of_seq (Queue.to_seq ring))

let build_point ~final (v : Metric.values) =
  let now = Clock.now_ns () in
  let t_ns = Int64.sub now !t_start in
  let dt_ns = Int64.sub t_ns !last_t in
  last_t := t_ns;
  let p_counters =
    List.map
      (fun ((m : Metric.meta), value) ->
        let before =
          Option.value ~default:0 (Hashtbl.find_opt prev_counters m.name)
        in
        Hashtbl.replace prev_counters m.name value;
        {
          c_name = m.name;
          c_timing = m.timing;
          c_value = value;
          c_delta = value - before;
        })
      v.Metric.v_counters
  in
  let p_gauges =
    List.map
      (fun ((m : Metric.meta), value) ->
        let before =
          Option.value ~default:0. (Hashtbl.find_opt prev_gauges m.name)
        in
        Hashtbl.replace prev_gauges m.name value;
        {
          g_name = m.name;
          g_timing = m.timing;
          g_value = value;
          g_delta = value -. before;
        })
      v.Metric.v_gauges
  in
  let p_sketches =
    List.map
      (fun ((m : Metric.meta), sk) ->
        let window =
          match Hashtbl.find_opt prev_sketches m.name with
          | Some older -> Sketch.diff ~newer:sk ~older
          | None -> Sketch.copy sk
        in
        Hashtbl.replace prev_sketches m.name (Sketch.copy sk);
        {
          ps_name = m.name;
          ps_timing = m.timing;
          ps_count = Sketch.count sk;
          ps_min = Sketch.min_value sk;
          ps_max = Sketch.max_value sk;
          ps_p50 = Sketch.quantile sk 0.5;
          ps_p90 = Sketch.quantile sk 0.9;
          ps_p95 = Sketch.quantile sk 0.95;
          ps_p99 = Sketch.quantile sk 0.99;
          ps_wcount = Sketch.count window;
          ps_wp50 = Sketch.quantile window 0.5;
          ps_wp95 = Sketch.quantile window 0.95;
          ps_wp99 = Sketch.quantile window 0.99;
        })
      v.Metric.v_sketches
  in
  let p =
    {
      seq = !seq_next;
      t_ns;
      dt_ns;
      final;
      p_counters;
      p_gauges;
      p_sketches;
    }
  in
  incr seq_next;
  Queue.push p ring;
  while Queue.length ring > capacity do
    ignore (Queue.pop ring)
  done;
  p

let capture ?(final = false) () =
  locked (fun () ->
      let v = with_quiescence Metric.values in
      let p = build_point ~final v in
      (* Subscribers run outside the gate: the pool is already moving
         again while the Prometheus file is rewritten / the dashboard
         repainted. Registration order, not reversed-stack order. *)
      List.iter (fun f -> f v p) (List.rev !subscribers);
      p)

let reset () =
  Mutex.lock capture_mutex;
  Queue.clear ring;
  seq_next := 0;
  t_start := Clock.now_ns ();
  last_t := 0L;
  cfg_jobs := 1;
  cfg_period := 0L;
  Hashtbl.reset prev_counters;
  Hashtbl.reset prev_gauges;
  Hashtbl.reset prev_sketches;
  subscribers := [];
  Mutex.unlock capture_mutex

(* --- ticker --- *)

let ticker_mutex = Mutex.create ()

let ticker : unit Domain.t option ref = ref None

let ticker_stop = Atomic.make false

let running () =
  Mutex.lock ticker_mutex;
  let r = !ticker <> None in
  Mutex.unlock ticker_mutex;
  r

(* Sleep in <= 50 ms slices so [stop] never waits a full period. Ticks
   are scheduled against absolute deadlines, so a slow capture delays
   but does not drift the grid. *)
let tick_loop period_ns =
  let rec go deadline =
    if not (Atomic.get ticker_stop) then begin
      let now = Clock.now_ns () in
      if Int64.compare now deadline >= 0 then begin
        (try ignore (capture ()) with _ -> ());
        go (Int64.add deadline period_ns)
      end
      else begin
        let remain = Int64.to_float (Int64.sub deadline now) /. 1e9 in
        Unix.sleepf (Float.min remain 0.05);
        go deadline
      end
    end
  in
  go (Int64.add (Clock.now_ns ()) period_ns)

let start ~period_ns () =
  let period_ns = if Int64.compare period_ns 1_000_000L < 0 then 1_000_000L else period_ns in
  Mutex.lock ticker_mutex;
  if !ticker = None then begin
    cfg_period := period_ns;
    Atomic.set ticker_stop false;
    ticker := Some (Domain.spawn (fun () -> tick_loop period_ns))
  end;
  Mutex.unlock ticker_mutex

let stop () =
  Mutex.lock ticker_mutex;
  let d = !ticker in
  ticker := None;
  Mutex.unlock ticker_mutex;
  match d with
  | None -> ()
  | Some d ->
    Atomic.set ticker_stop true;
    Domain.join d

(* --- obs-timeline/v3 export --- *)

let schema = "obs-timeline/v3"

let version = 3

let rate ~delta ~dt_ns =
  Json.number (delta *. 1e9 /. Int64.to_float dt_ns)

let point_json p =
  let counters =
    List.map
      (fun c ->
        Json.Obj
          [
            ("name", Json.String c.c_name);
            ("timing", Json.Bool c.c_timing);
            ("value", Json.number (float_of_int c.c_value));
            ("delta", Json.number (float_of_int c.c_delta));
            ("rate_per_s", rate ~delta:(float_of_int c.c_delta) ~dt_ns:p.dt_ns);
          ])
      p.p_counters
  in
  let gauges =
    List.map
      (fun g ->
        Json.Obj
          [
            ("name", Json.String g.g_name);
            ("timing", Json.Bool g.g_timing);
            ("value", Json.number g.g_value);
            ("delta", Json.number g.g_delta);
            ("rate_per_s", rate ~delta:g.g_delta ~dt_ns:p.dt_ns);
          ])
      p.p_gauges
  in
  let sketches =
    List.map
      (fun s ->
        Json.Obj
          [
            ("name", Json.String s.ps_name);
            ("timing", Json.Bool s.ps_timing);
            ("count", Json.number (float_of_int s.ps_count));
            ("min", Json.number s.ps_min);
            ("max", Json.number s.ps_max);
            ("p50", Json.number s.ps_p50);
            ("p90", Json.number s.ps_p90);
            ("p95", Json.number s.ps_p95);
            ("p99", Json.number s.ps_p99);
            ("window_count", Json.number (float_of_int s.ps_wcount));
            ("window_p50", Json.number s.ps_wp50);
            ("window_p95", Json.number s.ps_wp95);
            ("window_p99", Json.number s.ps_wp99);
          ])
      p.p_sketches
  in
  Json.Obj
    [
      ("seq", Json.number (float_of_int p.seq));
      ("t_ns", Json.number (Int64.to_float p.t_ns));
      ("dt_ns", Json.number (Int64.to_float p.dt_ns));
      ("final", Json.Bool p.final);
      ("counters", Json.List counters);
      ("gauges", Json.List gauges);
      ("sketches", Json.List sketches);
    ]

let to_json () =
  locked (fun () ->
      Json.Obj
        [
          ("schema", Json.String schema);
          ("version", Json.number (float_of_int version));
          ("jobs", Json.number (float_of_int !cfg_jobs));
          ("period_ns", Json.number (Int64.to_float !cfg_period));
          ( "snapshots",
            Json.List (List.map point_json (List.of_seq (Queue.to_seq ring))) );
        ])

(* Structural check used by `pso_audit validate-json` and the tests.
   Deliberately shape-only: it does not re-derive deltas or rates. *)
let validate j =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let field name conv ctx o =
    match Json.member name o with
    | None -> err "%s: missing %S" ctx name
    | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> err "%s: bad %S" ctx name)
  in
  let is_bool = function Json.Bool b -> Some b | _ -> None in
  let is_num = function Json.Number _ -> Some () | Json.Null -> Some () | _ -> None in
  let* s = field "schema" Json.to_string_opt "document" j in
  let* () =
    if String.equal s schema then Ok () else err "schema %S, expected %S" s schema
  in
  let* v = field "version" Json.to_int "document" j in
  let* () =
    if v = version then Ok () else err "version %d, expected %d" v version
  in
  let* _jobs = field "jobs" Json.to_int "document" j in
  let* snaps = field "snapshots" Json.to_list "document" j in
  let all check l =
    List.fold_left (fun acc x -> Result.bind acc (fun () -> check x)) (Ok ()) l
  in
  let numbers ctx fields o = all (fun f -> field f is_num ctx o) fields in
  let check_samples ctx kind fields o =
    let* l = field kind Json.to_list ctx o in
    let ctx = Printf.sprintf "%s.%s" ctx kind in
    all
      (fun s ->
        let* _ = field "name" Json.to_string_opt ctx s in
        let* _ = field "timing" is_bool ctx s in
        numbers ctx fields s)
      l
  in
  all
    (fun s ->
      let* seq = field "seq" Json.to_int "snapshot" s in
      let ctx = Printf.sprintf "snapshot %d" seq in
      let* () = numbers ctx [ "t_ns"; "dt_ns" ] s in
      let* _ = field "final" is_bool ctx s in
      let* () = check_samples ctx "counters" [ "value"; "delta"; "rate_per_s" ] s in
      let* () = check_samples ctx "gauges" [ "value"; "delta"; "rate_per_s" ] s in
      check_samples ctx "sketches"
        [ "count"; "min"; "max"; "p50"; "p90"; "p95"; "p99"; "window_count";
          "window_p50"; "window_p95"; "window_p99" ]
        s)
    snaps
