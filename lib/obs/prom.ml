(* Prometheus text-exposition rendering of one metric aggregation.

   Every sample line carries a [class] label, "deterministic" or
   "timing", mirroring the [timing] flag on the metric registration —
   the same segregation every other export applies, so a scrape can
   select the cross-jobs-stable series with one label matcher.

   Names are sanitized to the Prometheus grammar ([a-zA-Z0-9_:]) under a
   "pso_" namespace; counters get the conventional "_total" suffix and
   sketches render as summaries (quantile series plus [_count]).
   [write_file] rewrites atomically (tmp + rename) so a concurrent reader
   never sees a torn file. *)

let sanitize name =
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ch
      | _ -> '_')
    name

let metric_name ?(suffix = "") (m : Metric.meta) =
  "pso_" ^ sanitize m.Metric.name ^ suffix

let class_label (m : Metric.meta) =
  if m.Metric.timing then "timing" else "deterministic"

(* HELP text is a single line; backslashes and newlines are escaped per
   the exposition format. Empty registration help falls back to the
   metric's own name. *)
let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.contents b

let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.contents b

let float_repr v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let header b ~name ~typ (m : Metric.meta) =
  let help = if m.Metric.help = "" then m.Metric.name else m.Metric.help in
  Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name (escape_help help));
  Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ)

let sample b ~name ~labels v =
  let labels = ("class", class_label (fst labels)) :: snd labels in
  let rendered =
    labels
    |> List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
    |> String.concat ","
  in
  Buffer.add_string b (Printf.sprintf "%s{%s} %s\n" name rendered v)

let render (v : Metric.values) =
  let b = Buffer.create 4096 in
  List.iter
    (fun ((m : Metric.meta), total) ->
      let name = metric_name ~suffix:"_total" m in
      header b ~name ~typ:"counter" m;
      sample b ~name ~labels:(m, []) (string_of_int total))
    v.Metric.v_counters;
  List.iter
    (fun ((m : Metric.meta), value) ->
      let name = metric_name m in
      header b ~name ~typ:"gauge" m;
      sample b ~name ~labels:(m, []) (float_repr value))
    v.Metric.v_gauges;
  List.iter
    (fun ((m : Metric.meta), sk) ->
      let name = metric_name m in
      header b ~name ~typ:"summary" m;
      List.iter
        (fun q ->
          sample b ~name
            ~labels:(m, [ ("quantile", float_repr q) ])
            (float_repr (Sketch.quantile sk q)))
        [ 0.5; 0.95; 0.99 ];
      sample b ~name:(name ^ "_count") ~labels:(m, [])
        (string_of_int (Sketch.count sk)))
    v.Metric.v_sketches;
  Buffer.contents b

let write_file path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc content;
  close_out oc;
  Sys.rename tmp path

(* --- line-grammar validation --- *)

let is_name_start ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch = '_' || ch = ':'

let is_name_char ch = is_name_start ch || (ch >= '0' && ch <= '9')

let is_label_start ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch = '_'

let is_label_char ch = is_label_start ch || (ch >= '0' && ch <= '9')

let parse_value s =
  match s with
  | "+Inf" | "Inf" | "-Inf" | "NaN" -> true
  | s -> ( match float_of_string_opt s with Some _ -> true | None -> false)

(* One sample line: name ['{' labels '}'] SP value [SP timestamp]. *)
let check_sample line =
  let n = String.length line in
  let pos = ref 0 in
  let ok = ref (n > 0 && is_name_start line.[0]) in
  if !ok then begin
    while !pos < n && is_name_char line.[!pos] do
      incr pos
    done;
    (* optional label set *)
    if !pos < n && line.[!pos] = '{' then begin
      incr pos;
      let in_labels = ref true in
      while !ok && !in_labels do
        if !pos >= n then ok := false
        else if line.[!pos] = '}' then begin
          incr pos;
          in_labels := false
        end
        else begin
          (* label name *)
          if !pos < n && is_label_start line.[!pos] then begin
            while !pos < n && is_label_char line.[!pos] do
              incr pos
            done;
            if !pos + 1 < n && line.[!pos] = '=' && line.[!pos + 1] = '"' then begin
              pos := !pos + 2;
              let in_str = ref true in
              while !ok && !in_str do
                if !pos >= n then ok := false
                else begin
                  match line.[!pos] with
                  | '"' ->
                    incr pos;
                    in_str := false
                  | '\\' ->
                    if !pos + 1 >= n then ok := false else pos := !pos + 2
                  | _ -> incr pos
                end
              done;
              if !ok && !pos < n && line.[!pos] = ',' then incr pos
            end
            else ok := false
          end
          else ok := false
        end
      done
    end;
    (* mandatory value, optional timestamp, space-separated *)
    if !ok then begin
      match
        String.split_on_char ' '
          (String.sub line !pos (n - !pos) |> String.trim)
        |> List.filter (fun s -> s <> "")
      with
      | [ v ] -> ok := parse_value v
      | [ v; ts ] -> ok := parse_value v && float_of_string_opt ts <> None
      | _ -> ok := false
    end
  end;
  !ok

let check_comment line =
  (* "# HELP name text" / "# TYPE name type" / free-form comment *)
  match String.split_on_char ' ' line with
  | "#" :: "TYPE" :: name :: [ typ ] ->
    String.length name > 0
    && is_name_start name.[0]
    && String.for_all is_name_char name
    && List.mem typ [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ]
  | "#" :: "HELP" :: name :: _ ->
    String.length name > 0
    && is_name_start name.[0]
    && String.for_all is_name_char name
  | "#" :: _ -> true
  | _ -> false

let validate content =
  let lines = String.split_on_char '\n' content in
  let rec go i = function
    | [] -> Ok ()
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" then go (i + 1) rest
      else if trimmed.[0] = '#' then
        if check_comment trimmed then go (i + 1) rest
        else Error (Printf.sprintf "line %d: malformed comment: %s" i trimmed)
      else if check_sample trimmed then go (i + 1) rest
      else Error (Printf.sprintf "line %d: malformed sample: %s" i trimmed)
  in
  go 1 lines
