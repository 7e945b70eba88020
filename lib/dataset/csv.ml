let needs_quoting s =
  String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s

let quote s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let to_string table =
  let buf = Buffer.create 1024 in
  let emit_line cells =
    Buffer.add_string buf (String.concat "," (List.map quote cells));
    Buffer.add_char buf '\n'
  in
  emit_line (Schema.names (Table.schema table));
  Table.iter
    (fun _ row ->
      emit_line (Array.to_list (Array.map Value.to_string row)))
    table;
  Buffer.contents buf

(* A tiny state-machine parser handling quoted cells and escaped quotes. *)
let parse_lines s =
  let lines = ref [] in
  let cells = ref [] in
  let buf = Buffer.create 32 in
  let flush_cell () =
    cells := Buffer.contents buf :: !cells;
    Buffer.clear buf
  in
  let flush_line () =
    flush_cell ();
    lines := List.rev !cells :: !lines;
    cells := []
  in
  let n = String.length s in
  let i = ref 0 in
  let in_quotes = ref false in
  while !i < n do
    let c = s.[!i] in
    if !in_quotes then begin
      if c = '"' then
        if !i + 1 < n && s.[!i + 1] = '"' then begin
          Buffer.add_char buf '"';
          incr i
        end
        else in_quotes := false
      else Buffer.add_char buf c
    end
    else begin
      match c with
      | '"' -> in_quotes := true
      | ',' -> flush_cell ()
      | '\n' -> flush_line ()
      | '\r' -> ()
      | _ -> Buffer.add_char buf c
    end;
    incr i
  done;
  if !in_quotes then failwith "Csv.of_string: unterminated quote";
  if Buffer.length buf > 0 || !cells <> [] then flush_line ();
  List.rev !lines

let of_string schema s =
  match parse_lines s with
  | [] -> failwith "Csv.of_string: empty input"
  | header :: data ->
    let expected = Schema.names schema in
    if header <> expected then
      failwith
        (Printf.sprintf "Csv.of_string: header mismatch (got %s)"
           (String.concat "," header));
    let attrs = Schema.attributes schema in
    let parse_row cells =
      if List.length cells <> Array.length attrs then
        failwith "Csv.of_string: wrong number of cells";
      Array.of_list
        (List.mapi
           (fun j cell -> Value.of_string attrs.(j).Schema.kind cell)
           cells)
    in
    Table.make schema (Array.of_list (List.map parse_row data))

let write_file path table =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string table))

let gtable_to_string gtable =
  let buf = Buffer.create 1024 in
  let emit_line cells =
    Buffer.add_string buf (String.concat "," (List.map quote cells));
    Buffer.add_char buf '\n'
  in
  emit_line (Schema.names (Gtable.schema gtable));
  Array.iter
    (fun grow ->
      emit_line (Array.to_list (Array.map Gvalue.to_string grow)))
    (Gtable.rows gtable);
  Buffer.contents buf

let write_gtable_file path gtable =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (gtable_to_string gtable))
