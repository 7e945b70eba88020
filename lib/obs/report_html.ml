(* The fused HTML run report: one self-contained static file stitching
   together whichever artifacts a run produced — the obs-timeline/v3
   series (drawn as inline SVG sparklines) and the final tables read
   from its last snapshot, and the per-analyst ledger report.

   Self-contained is a hard property, checked by tests: inline <style>,
   inline SVG, no <script>, no external URL anywhere — the file can be
   archived next to the run's JSON artifacts and opened offline years
   later. Sources are optional and independent; each present source
   renders its <section>s with stable ids (timeline and metrics from the
   timeline, ledger) so CI can grep for the fused pieces. *)

let esc s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.contents b

let fnum v =
  if Float.is_nan v then "–"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let timing_mark timing = if timing then {|<span class="timing">timing</span>|} else ""

(* A 120x28 polyline over the series, y-flipped, flat-lining degenerate
   ranges at mid-height. Inline SVG keeps the file self-contained. *)
let sparkline values =
  match List.filter Float.is_finite values with
  | [] | [ _ ] -> {|<svg class="spark" viewBox="0 0 120 28"></svg>|}
  | vs ->
    let n = List.length vs in
    let lo = List.fold_left Float.min Float.infinity vs in
    let hi = List.fold_left Float.max Float.neg_infinity vs in
    let span = hi -. lo in
    let pts =
      List.mapi
        (fun i v ->
          let x = 120. *. float_of_int i /. float_of_int (n - 1) in
          let y =
            if span <= 0. then 14.
            else 26. -. (24. *. ((v -. lo) /. span))
          in
          Printf.sprintf "%.1f,%.1f" x y)
        vs
      |> String.concat " "
    in
    Printf.sprintf
      {|<svg class="spark" viewBox="0 0 120 28"><polyline fill="none" stroke="currentColor" stroke-width="1.5" points="%s"/></svg>|}
      pts

(* --- source accessors (all best-effort: a missing field renders as a
   gap, not an error — parse validity is the CLI's job) --- *)

let jstr name o = Option.bind (Json.member name o) Json.to_string_opt

let jnum name o = Option.bind (Json.member name o) Json.to_float

let jbool name o =
  match Json.member name o with Some (Json.Bool b) -> Some b | _ -> None

let jlist name o =
  Option.value ~default:[] (Option.bind (Json.member name o) Json.to_list)

(* --- timeline section --- *)

(* name -> (timing, per-snapshot value) series for one sample kind. *)
let series kind field snapshots =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun snap ->
      List.iter
        (fun s ->
          match (jstr "name" s, jnum field s) with
          | Some name, Some v ->
            (match Hashtbl.find_opt tbl name with
            | Some (timing, values) -> Hashtbl.replace tbl name (timing, v :: values)
            | None ->
              order := name :: !order;
              let timing = Option.value ~default:false (jbool "timing" s) in
              Hashtbl.replace tbl name (timing, [ v ]))
          | _ -> ())
        (jlist kind snap))
    snapshots;
  List.rev_map
    (fun name ->
      let timing, values = Hashtbl.find tbl name in
      (name, timing, List.rev values))
    !order

let timeline_section b doc =
  let snapshots = jlist "snapshots" doc in
  let n = List.length snapshots in
  let span_s =
    match List.rev snapshots with
    | last :: _ -> Option.value ~default:0. (jnum "t_ns" last) /. 1e9
    | [] -> 0.
  in
  Buffer.add_string b
    (Printf.sprintf
       {|<section id="timeline"><h2>Timeline</h2><p>%d snapshot(s) over %.1f s (schema %s).</p><div class="cards">|}
       n span_s
       (esc (Option.value ~default:"?" (jstr "schema" doc))));
  let card (name, timing, values) =
    let last = match List.rev values with v :: _ -> v | [] -> nan in
    Buffer.add_string b
      (Printf.sprintf
         {|<div class="card"><div class="name">%s %s</div>%s<div class="value">%s</div></div>|}
         (esc name) (timing_mark timing) (sparkline values) (fnum last))
  in
  List.iter card (series "counters" "value" snapshots);
  List.iter card (series "gauges" "value" snapshots);
  List.iter card (series "sketches" "p95" snapshots);
  Buffer.add_string b "</div></section>\n"

(* --- metrics section --- *)

let table b ~caption ~head rows =
  Buffer.add_string b
    (Printf.sprintf {|<table><caption>%s</caption><tr>|} (esc caption));
  List.iter
    (fun h -> Buffer.add_string b (Printf.sprintf "<th>%s</th>" (esc h)))
    head;
  Buffer.add_string b "</tr>";
  List.iter
    (fun cells ->
      Buffer.add_string b "<tr>";
      List.iter
        (fun c -> Buffer.add_string b (Printf.sprintf "<td>%s</td>" c))
        cells;
      Buffer.add_string b "</tr>")
    rows;
  Buffer.add_string b "</table>\n"

(* [snap]: the timeline's last snapshot, the run's final metrics. *)
let metrics_section b snap =
  Buffer.add_string b {|<section id="metrics"><h2>Metrics</h2>|};
  let name_cell o =
    esc (Option.value ~default:"?" (jstr "name" o))
    ^ " "
    ^ timing_mark (Option.value ~default:false (jbool "timing" o))
  in
  let counters =
    List.map
      (fun o -> [ name_cell o; fnum (Option.value ~default:nan (jnum "value" o)) ])
      (jlist "counters" snap)
  in
  if counters <> [] then
    table b ~caption:"Counters" ~head:[ "counter"; "value" ] counters;
  let gauges =
    List.map
      (fun o -> [ name_cell o; fnum (Option.value ~default:nan (jnum "value" o)) ])
      (jlist "gauges" snap)
  in
  if gauges <> [] then table b ~caption:"Gauges" ~head:[ "gauge"; "value" ] gauges;
  let sketches =
    List.map
      (fun o ->
        let f field = fnum (Option.value ~default:nan (jnum field o)) in
        [ name_cell o; f "count"; f "p50"; f "p95"; f "p99" ])
      (jlist "sketches" snap)
  in
  if sketches <> [] then
    table b ~caption:"Sketches"
      ~head:[ "sketch"; "count"; "p50"; "p95"; "p99" ]
      sketches;
  Buffer.add_string b "</section>\n"

(* --- ledger section --- *)

let ledger_section b (rows : Ledger.analyst_report list) =
  Buffer.add_string b {|<section id="ledger"><h2>Audit ledger</h2>|};
  let cells (r : Ledger.analyst_report) =
    let q p =
      if Sketch.is_empty r.Ledger.r_cost then "–"
      else fnum (Sketch.quantile r.Ledger.r_cost p)
    in
    [
      esc r.Ledger.r_analyst;
      esc r.Ledger.r_policy;
      string_of_int r.Ledger.r_queries;
      string_of_int r.Ledger.r_refusals;
      fnum r.Ledger.r_spent;
      (match r.Ledger.r_total with Some t -> fnum t | None -> "∞");
      (match r.Ledger.r_total with
      | Some t -> fnum (t -. r.Ledger.r_spent)
      | None -> "∞");
      q 0.5;
      q 0.95;
      q 0.99;
    ]
  in
  table b ~caption:"Per-analyst budget accounting"
    ~head:
      [
        "analyst"; "policy"; "queries"; "refusals"; "ε spent"; "ε budget";
        "ε left"; "cost p50"; "cost p95"; "cost p99";
      ]
    (List.map cells rows);
  Buffer.add_string b "</section>\n"

(* --- document --- *)

let style =
  {|body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:70rem;padding:0 1rem;color:#1a1a2e}
h1{font-size:1.4rem}h2{font-size:1.1rem;border-bottom:1px solid #ccc;padding-bottom:.2rem}
table{border-collapse:collapse;margin:1rem 0}caption{text-align:left;font-weight:600;margin-bottom:.3rem}
th,td{border:1px solid #ddd;padding:.25rem .6rem;text-align:right}th:first-child,td:first-child{text-align:left}
.cards{display:flex;flex-wrap:wrap;gap:.6rem}.card{border:1px solid #ddd;border-radius:4px;padding:.4rem .6rem;min-width:10rem}
.card .name{font-size:.8rem;color:#555}.card .value{font-weight:600}
.spark{display:block;width:120px;height:28px;color:#3656a8}
.timing{background:#fde8d8;color:#8a4b08;font-size:.7rem;padding:0 .3rem;border-radius:3px;vertical-align:middle}|}

let render ?timeline ?ledger ~title () =
  let b = Buffer.create 16384 in
  Buffer.add_string b "<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">";
  Buffer.add_string b (Printf.sprintf "<title>%s</title>" (esc title));
  Buffer.add_string b (Printf.sprintf "<style>%s</style></head><body>\n" style);
  Buffer.add_string b (Printf.sprintf "<h1>%s</h1>\n" (esc title));
  Option.iter
    (fun doc ->
      timeline_section b doc;
      match List.rev (jlist "snapshots" doc) with
      | last :: _ -> metrics_section b last
      | [] -> ())
    timeline;
  Option.iter (fun rows -> ledger_section b rows) ledger;
  Buffer.add_string b "</body></html>\n";
  Buffer.contents b
