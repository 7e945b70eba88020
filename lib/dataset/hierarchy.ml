type tree = Leaf of Value.t | Node of string * tree list

type t = {
  name : string;
  height : int;
  apply : int -> Value.t -> Gvalue.t;  (* called with 1 <= level < height - 1 *)
  leaves : Value.t list;
}

let height t = t.height

let apply t ~level v =
  if level < 0 then invalid_arg "Hierarchy.apply: negative level";
  if level = 0 then Gvalue.Exact v
  else if level >= t.height - 1 then Gvalue.Any
  else t.apply level v

let zip_prefix ~digits =
  if digits <= 0 then invalid_arg "Hierarchy.zip_prefix";
  let apply level v =
    match v with
    | Value.String s when String.length s = digits ->
      Gvalue.Prefix (s, digits - level)
    | Value.String _ | Value.Int _ | Value.Float _ | Value.Date _
    | Value.Bool _ | Value.Null ->
      Gvalue.Any
  in
  { name = "zip"; height = digits + 1; apply; leaves = [] }

let int_ranges ~name ~lo ~widths =
  if widths = [] then invalid_arg "Hierarchy.int_ranges: no widths";
  let rec check prev = function
    | [] -> ()
    | w :: rest ->
      if w <= prev then
        invalid_arg "Hierarchy.int_ranges: widths must be increasing and positive";
      check w rest
  in
  check 0 widths;
  let widths = Array.of_list widths in
  let apply level v =
    match Value.to_float v with
    | None -> Gvalue.Any
    | Some f ->
      let w = widths.(level - 1) in
      let i = int_of_float (Float.floor f) in
      let bucket = (i - lo) / w in
      let bucket = if i < lo && (i - lo) mod w <> 0 then bucket - 1 else bucket in
      let start = lo + (bucket * w) in
      Gvalue.Int_range (start, start + w - 1)
  in
  { name; height = Array.length widths + 2; apply; leaves = [] }

let date_ladder =
  let apply level v =
    match v with
    | Value.Date d ->
      let month_start = Value.{ year = d.year; month = d.month; day = 1 } in
      let month_end = Value.{ year = d.year; month = d.month; day = 31 } in
      let year_start = Value.{ year = d.year; month = 1; day = 1 } in
      let year_end = Value.{ year = d.year; month = 12; day = 31 } in
      let decade = d.year / 10 * 10 in
      let decade_start = Value.{ year = decade; month = 1; day = 1 } in
      let decade_end = Value.{ year = decade + 9; month = 12; day = 31 } in
      let range a b =
        Gvalue.Int_range (Value.date_ordinal a, Value.date_ordinal b)
      in
      (match level with
      | 1 -> range month_start month_end
      | 2 -> range year_start year_end
      | _ -> range decade_start decade_end)
    | Value.Int _ | Value.Float _ | Value.String _ | Value.Bool _ | Value.Null ->
      Gvalue.Any
  in
  { name = "date"; height = 5; apply; leaves = [] }

let categorical ~name tree =
  let table : (Value.t, (string * Value.t list) array) Hashtbl.t =
    Hashtbl.create 32
  in
  (* For every leaf, record the chain of (ancestor label, leaves under it)
     from its parent up to the root. *)
  let rec leaves_of = function
    | Leaf v -> [ v ]
    | Node (_, children) -> List.concat_map leaves_of children
  in
  let rec walk ancestors node =
    match node with
    | Leaf v ->
      if Hashtbl.mem table v then
        invalid_arg "Hierarchy.categorical: duplicate leaf";
      Hashtbl.replace table v (Array.of_list (List.rev ancestors))
    | Node (label, children) ->
      let ancestors = (label, leaves_of node) :: ancestors in
      List.iter (walk ancestors) children
  in
  (match tree with
  | Leaf _ -> invalid_arg "Hierarchy.categorical: bare leaf"
  | Node _ -> walk [] tree);
  let depth =
    Hashtbl.fold (fun _ chain acc -> max acc (Array.length chain)) table 0
  in
  let apply level v =
    match Hashtbl.find_opt table v with
    | None -> Gvalue.Any
    | Some chain ->
      (* chain.(0) is the root; deeper ancestors come later. Level 1 is the
         immediate parent, i.e. the end of the chain. *)
      let i = Array.length chain - level in
      let i = if i < 0 then 0 else i in
      let label, members = chain.(i) in
      Gvalue.Category { label; members }
  in
  { name; height = depth + 2; apply; leaves = leaves_of tree }

let leaves t = t.leaves
