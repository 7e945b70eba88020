(* The privacy audit ledger: an append-only structured event journal.

   Every query, refusal, noise draw, budget spend and suppression in the
   privacy stack leaves a durable per-analyst record that can be
   mechanically re-verified after the fact ([verify] below replays the
   accountant arithmetic). The design constraint inherited from the rest
   of lib/obs is *byte-identity across --jobs*: the same seeded run must
   produce the same ledger file no matter how the domain pool interleaved
   work, or the audit trail itself becomes non-reproducible.

   Wall-clock timestamps and physical domain ids are scheduling-dependent,
   so the ledger orders events by *logical* coordinates instead:

   - a region id from a global atomic counter bumped by the caller at
     every parallel region (callers are sequential, so region ids are
     deterministic);
   - a task id (the trial index) set by Trials.map around each work item;
   - per-domain buffer order as the tiebreaker — within one (region,
     task) all events come from the single domain that ran that task
     sequentially, so buffer order is emission order.

   Regions use odd ids: [enter_region] returns r = 1, 3, 5, ...; on exit
   the caller's ambient context advances to r + 1, so events the caller
   emits before a region sort below all of the region's task events and
   events emitted after sort above them. The written "ts" field is the
   post-merge index — a logical monotonic clock.

   Emission is buffered in Domain.DLS buffers (the collector pattern of
   Metric) and costs one atomic flag read when the ledger is disabled.
   Buffers are capped; overflow is recorded as a trailing "truncated"
   event that [verify] rejects, never silently dropped. *)

let on = Atomic.make false

let enabled () = Atomic.get on

let schema = "ledger/v1"

let schema_version = 1

(* --- events --- *)

type body =
  | Session of { policy : string; per_query : float option; total : float option }
  | Query of {
      kind : string; (* "mechanism" | "oracle" | "curator" *)
      digest : string;
      engine : string;
      noised : bool;
      cost : int; (* rows touched: the deterministic latency proxy *)
    }
  | Refusal of { reason : string; detail : (string * float) list }
  | Noise of { mechanism : string; scale : float; n : int }
  | Spend of { label : string; epsilon : float; delta : float; cumulative : float }
  | Spend_many of { label : string; epsilon : float; n : int; total : float }
  | Suppression of { source : string; cells : int; rows : int }

type entry = { region : int; task : int; analyst : string; body : body }

(* --- domain-local buffers and logical context --- *)

type ctx = { mutable region : int; mutable task : int; mutable fresh : int }

type buf = {
  domain : int;
  mutable entries : entry array;
  mutable n : int;
  mutable dropped : int;
  ctx : ctx;
}

let max_entries = 1 lsl 20

(* The 2^20 per-domain cap tripping used to be discoverable only by
   spotting the trailing "truncated" marker in the file; surface it once
   on stderr at merge time (and as the ledger.events_truncated counter of
   every metrics export, pulled by Metric.values). *)
let warned_truncated = ref false

let mutex = Mutex.create ()

let bufs : buf list ref = ref []

let buf_key : buf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          domain = (Domain.self () :> int);
          entries = [||];
          n = 0;
          dropped = 0;
          ctx = { region = 0; task = -1; fresh = 0 };
        }
      in
      Mutex.lock mutex;
      bufs := b :: !bufs;
      Mutex.unlock mutex;
      b)

let buf () = Domain.DLS.get buf_key

let push b e =
  if b.n >= max_entries then b.dropped <- b.dropped + 1
  else begin
    if b.n >= Array.length b.entries then begin
      let cap = min max_entries (max 256 (2 * Array.length b.entries)) in
      let a = Array.make cap e in
      Array.blit b.entries 0 a 0 b.n;
      b.entries <- a
    end;
    b.entries.(b.n) <- e;
    b.n <- b.n + 1
  end

let emit analyst body =
  let b = buf () in
  push b { region = b.ctx.region; task = b.ctx.task; analyst; body }

(* --- logical regions (parallel-section coordinates) --- *)

let next_region = Atomic.make 1

let enter_region () =
  if not (Atomic.get on) then -1 else Atomic.fetch_and_add next_region 2

let exit_region r =
  if r >= 0 then begin
    let c = (buf ()).ctx in
    c.region <- r + 1;
    c.task <- -1;
    c.fresh <- 0
  end

let with_task ~region ~task f =
  if region < 0 then f ()
  else begin
    let c = (buf ()).ctx in
    let r0 = c.region and t0 = c.task and f0 = c.fresh in
    c.region <- region;
    c.task <- task;
    c.fresh <- 0;
    Fun.protect
      ~finally:(fun () ->
        c.region <- r0;
        c.task <- t0;
        c.fresh <- f0)
      f
  end

(* Deterministic per-context analyst ids: the k-th analyst created inside
   logical context (region r, task t) is named "a<r>.<t>.<k>" no matter
   which domain ran the task. *)
let fresh_analyst () =
  let c = (buf ()).ctx in
  let k = c.fresh in
  c.fresh <- k + 1;
  Printf.sprintf "a%d.%d.%d" c.region c.task k

(* --- emission API (all no-ops while disabled) --- *)

let ambient_analyst = "-"

let session ~analyst ~policy ?per_query ?total () =
  if Atomic.get on then emit analyst (Session { policy; per_query; total })

let query ~analyst ~kind ~digest ~engine ~noised ~cost =
  if Atomic.get on then emit analyst (Query { kind; digest; engine; noised; cost })

let refusal ~analyst ~reason ~detail =
  if Atomic.get on then emit analyst (Refusal { reason; detail })

let noise ~analyst ~mechanism ~scale ~n =
  if Atomic.get on then emit analyst (Noise { mechanism; scale; n })

let spend ~analyst ~label ~epsilon ?(delta = 0.) ~cumulative () =
  if Atomic.get on then emit analyst (Spend { label; epsilon; delta; cumulative })

let spend_many ~analyst ~label ~epsilon ~n ~total =
  if Atomic.get on then emit analyst (Spend_many { label; epsilon; n; total })

let suppression ~analyst ~source ~cells ~rows =
  if Atomic.get on then emit analyst (Suppression { source; cells; rows })

(* --- lifecycle --- *)

let reset () =
  Mutex.lock mutex;
  List.iter
    (fun b ->
      b.n <- 0;
      b.dropped <- 0;
      b.ctx.region <- 0;
      b.ctx.task <- -1;
      b.ctx.fresh <- 0)
    !bufs;
  Mutex.unlock mutex;
  warned_truncated := false;
  Atomic.set next_region 1

(* Enabling opens an implicit unlimited session for the ambient analyst
   "-" (events emitted outside any curator: standalone mechanisms, direct
   accountant use), so [verify]'s session-before-use rule holds on every
   well-formed ledger. *)
let enable () =
  if not (Atomic.get on) then begin
    Atomic.set on true;
    session ~analyst:ambient_analyst ~policy:"ambient" ()
  end

let disable () = Atomic.set on false

(* --- deterministic merge --- *)

let dropped_total () =
  Mutex.lock mutex;
  let d = List.fold_left (fun acc b -> acc + b.dropped) 0 !bufs in
  Mutex.unlock mutex;
  d

let collect () =
  Mutex.lock mutex;
  let bs = List.sort (fun a b -> compare a.domain b.domain) !bufs in
  let per_domain =
    List.map (fun b -> (Array.to_list (Array.sub b.entries 0 b.n), b.dropped)) bs
  in
  Mutex.unlock mutex;
  let dropped = List.fold_left (fun acc (_, d) -> acc + d) 0 per_domain in
  if dropped > 0 && not !warned_truncated then begin
    warned_truncated := true;
    Printf.eprintf
      "[obs] warning: ledger event cap tripped: %d event(s) truncated (see \
       ledger.events_truncated)\n%!"
      dropped
  end;
  let all = List.concat_map fst per_domain in
  (* Stable: within one (region, task) every event comes from the single
     domain that ran the task, so buffer order survives the sort. *)
  let es =
    List.stable_sort
      (fun (a : entry) (b : entry) ->
        let c = compare a.region b.region in
        if c <> 0 then c else compare a.task b.task)
      all
  in
  (es, dropped)

let json_of_entry ~ts e =
  let base ev fields =
    Json.Obj
      (("event", Json.String ev)
      :: ("ts", Json.Number (float_of_int ts))
      :: ("analyst", Json.String e.analyst)
      :: ("region", Json.Number (float_of_int e.region))
      :: ("task", Json.Number (float_of_int e.task))
      :: fields)
  in
  let num v = Json.number v in
  let int v = Json.Number (float_of_int v) in
  match e.body with
  | Session { policy; per_query; total } ->
    let opt k = function None -> [] | Some v -> [ (k, num v) ] in
    base "session"
      (("policy", Json.String policy)
      :: (opt "per_query_epsilon" per_query @ opt "total_epsilon" total))
  | Query { kind; digest; engine; noised; cost } ->
    base "query"
      [
        ("kind", Json.String kind);
        ("digest", Json.String digest);
        ("engine", Json.String engine);
        ("noised", Json.Bool noised);
        ("cost_rows", int cost);
      ]
  | Refusal { reason; detail } ->
    base "refusal"
      (("reason", Json.String reason)
      :: List.map (fun (k, v) -> (k, num v)) detail)
  | Noise { mechanism; scale; n } ->
    base "noise" [ ("mechanism", Json.String mechanism); ("scale", num scale); ("n", int n) ]
  | Spend { label; epsilon; delta; cumulative } ->
    base "spend"
      [
        ("label", Json.String label);
        ("epsilon", num epsilon);
        ("delta", num delta);
        ("cumulative", num cumulative);
      ]
  | Spend_many { label; epsilon; n; total } ->
    base "spend_many"
      [
        ("label", Json.String label);
        ("epsilon", num epsilon);
        ("n", int n);
        ("total", num total);
      ]
  | Suppression { source; cells; rows } ->
    base "suppression"
      [ ("source", Json.String source); ("cells", int cells); ("rows", int rows) ]

let to_lines () =
  let es, dropped = collect () in
  let header =
    Json.Obj
      [
        ("schema", Json.String schema);
        ("version", Json.Number (float_of_int schema_version));
      ]
  in
  let lines = header :: List.mapi (fun ts e -> json_of_entry ~ts e) es in
  let lines =
    if dropped > 0 then
      lines
      @ [
          Json.Obj
            [
              ("event", Json.String "truncated");
              ("dropped", Json.Number (float_of_int dropped));
            ];
        ]
    else lines
  in
  List.map Json.to_string lines

let write_file path =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    (to_lines ());
  close_out oc

(* --- reading --- *)

type parsed = { p_line : int; p_event : string; p_json : Json.t }

let parse_lines lines =
  match lines with
  | [] -> Error "empty ledger"
  | header :: rest -> (
    match Json.of_string header with
    | Error e -> Error (Printf.sprintf "line 1: %s" e)
    | Ok h -> (
      match Option.bind (Json.member "schema" h) Json.to_string_opt with
      | Some s when String.equal s schema ->
        let rec go i acc = function
          | [] -> Ok (List.rev acc)
          | l :: rest when String.trim l = "" -> go (i + 1) acc rest
          | l :: rest -> (
            match Json.of_string l with
            | Error e -> Error (Printf.sprintf "line %d: %s" i e)
            | Ok j -> (
              match Option.bind (Json.member "event" j) Json.to_string_opt with
              | None -> Error (Printf.sprintf "line %d: missing \"event\"" i)
              | Some ev -> go (i + 1) ({ p_line = i; p_event = ev; p_json = j } :: acc) rest))
        in
        go 2 [] rest
      | Some s -> Error (Printf.sprintf "unsupported schema %S (want %S)" s schema)
      | None -> Error "missing schema header"))

let read path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  parse_lines (List.rev !lines)

(* --- verification: replay the accountant arithmetic --- *)

type violation = { at : int; what : string }

type analyst_state = {
  mutable s_policy : string;
  mutable s_total : float option;
  mutable s_running : float;
  mutable s_queries : int;
}

let eps_tol = 1e-9

let verify events =
  let viol = ref [] in
  let add at fmt = Printf.ksprintf (fun s -> viol := { at; what = s } :: !viol) fmt in
  let analysts : (string, analyst_state) Hashtbl.t = Hashtbl.create 16 in
  let last_ts = ref (-1) in
  let str k j = Option.bind (Json.member k j) Json.to_string_opt in
  let fl k j = Option.bind (Json.member k j) Json.to_float in
  let it k j = Option.bind (Json.member k j) Json.to_int in
  List.iter
    (fun p ->
      let j = p.p_json in
      let line = p.p_line in
      (match it "ts" j with
      | None ->
        if not (String.equal p.p_event "truncated") then
          add line "%s event missing ts" p.p_event
      | Some ts ->
        if ts <= !last_ts then
          add line "ts %d not strictly increasing (prev %d)" ts !last_ts;
        last_ts := ts);
      let state () =
        match str "analyst" j with
        | None ->
          add line "%s event missing analyst" p.p_event;
          None
        | Some a -> (
          match Hashtbl.find_opt analysts a with
          | Some s -> Some (a, s)
          | None ->
            add line "%s for analyst %S before any session (orphan)" p.p_event a;
            None)
      in
      let charge a s eps =
        s.s_running <- s.s_running +. eps;
        match s.s_total with
        | Some total when s.s_running > total +. eps_tol ->
          add line "analyst %S over budget: spent %.9g > declared %.9g" a
            s.s_running total
        | _ -> ()
      in
      match p.p_event with
      | "session" -> (
        match str "analyst" j with
        | None -> add line "session missing analyst"
        | Some a ->
          if Hashtbl.mem analysts a then add line "duplicate session for analyst %S" a
          else
            Hashtbl.add analysts a
              {
                s_policy = Option.value (str "policy" j) ~default:"";
                s_total = fl "total_epsilon" j;
                s_running = 0.;
                s_queries = 0;
              })
      | "query" ->
        Option.iter (fun (_, s) -> s.s_queries <- s.s_queries + 1) (state ())
      | "noise" ->
        Option.iter
          (fun _ ->
            (match fl "scale" j with
            | Some sc when sc > 0. && Float.is_finite sc -> ()
            | _ -> add line "noise event with non-positive scale");
            match it "n" j with
            | Some n when n >= 1 -> ()
            | _ -> add line "noise event with n < 1")
          (state ())
      | "spend" ->
        Option.iter
          (fun (a, s) ->
            let eps = Option.value (fl "epsilon" j) ~default:nan in
            if not (Float.is_finite eps) || eps < 0. then
              add line "spend with invalid epsilon"
            else begin
              charge a s eps;
              match fl "cumulative" j with
              | None -> ()
              | Some c ->
                if Float.abs (c -. s.s_running) > eps_tol then
                  add line
                    "analyst %S cumulative mismatch: ledger says %.9g, replay \
                     says %.9g"
                    a c s.s_running
                else s.s_running <- c (* resynchronize fp drift *)
            end)
          (state ())
      | "spend_many" ->
        Option.iter
          (fun (a, s) ->
            let eps = Option.value (fl "epsilon" j) ~default:nan in
            let n = Option.value (it "n" j) ~default:(-1) in
            let total = Option.value (fl "total" j) ~default:nan in
            if not (Float.is_finite eps) || eps < 0. || n < 0 then
              add line "spend_many with invalid epsilon/n"
            else begin
              let expect = eps *. float_of_int n in
              if
                not (Float.is_finite total)
                || Float.abs (total -. expect) > eps_tol *. Float.max 1. expect
              then
                add line
                  "spend_many total %.9g does not match %d x %.9g = %.9g" total
                  n eps expect
              else charge a s total
            end)
          (state ())
      | "refusal" ->
        Option.iter
          (fun (a, s) ->
            match str "reason" j with
            | Some "limit" -> (
              match (it "answered" j, it "limit" j) with
              | Some answered, Some limit ->
                if answered < limit then
                  add line
                    "unjustified limit refusal for %S: answered %d < limit %d" a
                    answered limit
              | _ -> add line "limit refusal missing answered/limit detail")
            | Some "budget" -> (
              match (fl "spent" j, fl "per_query" j, fl "total" j) with
              | Some spent, Some per_query, Some total ->
                if spent +. per_query <= total +. 1e-12 then
                  add line
                    "unjustified budget refusal for %S: %.9g + %.9g fits in %.9g"
                    a spent per_query total;
                if Float.abs (spent -. s.s_running) > eps_tol then
                  add line
                    "budget refusal for %S claims spent %.9g but replay says %.9g"
                    a spent s.s_running
              | _ -> add line "budget refusal missing spent/per_query/total detail")
            | Some "audit" ->
              if not (String.equal s.s_policy "audited") then
                add line
                  "audit refusal for %S whose session policy is %S, not audited"
                  a s.s_policy
            | Some r -> add line "unknown refusal reason %S" r
            | None -> add line "refusal missing reason")
          (state ())
      | "suppression" ->
        Option.iter
          (fun _ ->
            match (it "cells" j, it "rows" j) with
            | Some c, Some r when c >= 0 && r >= 0 -> ()
            | _ -> add line "suppression with invalid cells/rows")
          (state ())
      | "truncated" ->
        add line "ledger truncated: %d events dropped"
          (Option.value (it "dropped" j) ~default:0)
      | ev -> add line "unknown event type %S" ev)
    events;
  List.rev !viol

(* --- per-analyst report --- *)

type analyst_report = {
  r_analyst : string;
  r_policy : string;
  r_queries : int;
  r_refusals : int;
  r_spent : float;
  r_total : float option;
  r_cost : Sketch.t; (* query cost_rows: the deterministic latency proxy *)
}

let report events =
  let tbl : (string, analyst_report) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let str k j = Option.bind (Json.member k j) Json.to_string_opt in
  let get a =
    match Hashtbl.find_opt tbl a with
    | Some r -> r
    | None ->
      let r =
        {
          r_analyst = a;
          r_policy = "";
          r_queries = 0;
          r_refusals = 0;
          r_spent = 0.;
          r_total = None;
          r_cost = Sketch.create ();
        }
      in
      Hashtbl.add tbl a r;
      order := a :: !order;
      r
  in
  List.iter
    (fun p ->
      match str "analyst" p.p_json with
      | None -> ()
      | Some a -> (
        let r = get a in
        let fl k = Option.bind (Json.member k p.p_json) Json.to_float in
        let it k = Option.bind (Json.member k p.p_json) Json.to_int in
        match p.p_event with
        | "session" ->
          let r =
            {
              r with
              r_policy = Option.value (str "policy" p.p_json) ~default:"";
              r_total = fl "total_epsilon";
            }
          in
          Hashtbl.replace tbl a r
        | "query" ->
          Option.iter
            (fun c -> Sketch.add r.r_cost (float_of_int c))
            (it "cost_rows");
          Hashtbl.replace tbl a { r with r_queries = r.r_queries + 1 }
        | "refusal" -> Hashtbl.replace tbl a { r with r_refusals = r.r_refusals + 1 }
        | "spend" ->
          let eps = Option.value (fl "epsilon") ~default:0. in
          Hashtbl.replace tbl a { r with r_spent = r.r_spent +. eps }
        | "spend_many" ->
          let total = Option.value (fl "total") ~default:0. in
          Hashtbl.replace tbl a { r with r_spent = r.r_spent +. total }
        | _ -> ()))
    events;
  List.rev_map (Hashtbl.find tbl) !order

(* Machine-readable twin of [pp_report] (schema ledger-report/v1), so
   downstream consumers — report-html in particular — get the per-analyst
   table without re-parsing a pretty-printed table. *)
let report_schema = "ledger-report/v1"

let report_json rows =
  let quant s p =
    if Sketch.is_empty s then Json.Null else Json.number (Sketch.quantile s p)
  in
  Json.Obj
    [
      ("schema", Json.String report_schema);
      ("version", Json.Number 1.);
      ( "analysts",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("analyst", Json.String r.r_analyst);
                   ("policy", Json.String r.r_policy);
                   ("queries", Json.Number (float_of_int r.r_queries));
                   ("refusals", Json.Number (float_of_int r.r_refusals));
                   ("eps_spent", Json.number r.r_spent);
                   ( "eps_total",
                     match r.r_total with
                     | None -> Json.Null
                     | Some t -> Json.number t );
                   ( "eps_left",
                     match r.r_total with
                     | None -> Json.Null
                     | Some t -> Json.number (t -. r.r_spent) );
                   ("cost_count", Json.Number (float_of_int (Sketch.count r.r_cost)));
                   ("cost_p50", quant r.r_cost 0.5);
                   ("cost_p95", quant r.r_cost 0.95);
                   ("cost_p99", quant r.r_cost 0.99);
                 ])
             rows) );
    ]

let pp_report fmt rows =
  Format.fprintf fmt "%-14s %-10s %8s %8s %10s %10s %8s %8s %8s@." "analyst"
    "policy" "queries" "refused" "eps_spent" "eps_left" "p50" "p95" "p99";
  Format.fprintf fmt "%s@." (String.make 92 '-');
  List.iter
    (fun r ->
      let left =
        match r.r_total with
        | None -> "inf"
        | Some t -> Printf.sprintf "%.4g" (t -. r.r_spent)
      in
      let q p =
        if Sketch.is_empty r.r_cost then "-"
        else Printf.sprintf "%.3g" (Sketch.quantile r.r_cost p)
      in
      Format.fprintf fmt "%-14s %-10s %8d %8d %10.4g %10s %8s %8s %8s@."
        r.r_analyst
        (if r.r_policy = "" then "-" else r.r_policy)
        r.r_queries r.r_refusals r.r_spent left (q 0.5) (q 0.95) (q 0.99))
    rows
