type row = Value.t array

module Vmap = Map.Make (Value)

(* One attribute of the columnar view. [codes] dictionary-encodes the rows'
   values (codes dense, first-appearance order); [dict] maps a code back to
   its value; [floats] is the numeric view ([Value.to_float], [nan] when the
   value has none) so range scans never touch boxed values. *)
type column = {
  codes : int array;
  dict : Value.t array;
  code_index : int Vmap.t;
  floats : float array;
}

type t = {
  schema : Schema.t;
  rows : row array;
  id : int;
  cols : column option array;  (* per attribute, built on first use *)
}

(* Every table (including derived ones: filter, select, append, ...) gets a
   fresh generation id, so caches keyed by [id t] can never serve a bitset
   or digest column computed for different contents. *)
let next_id = Atomic.make 0

let create schema rows =
  {
    schema;
    rows;
    id = Atomic.fetch_and_add next_id 1;
    cols = Array.make (Schema.arity schema) None;
  }

let validate schema rows =
  let arity = Schema.arity schema in
  Array.iteri
    (fun i r ->
      if Array.length r <> arity then
        invalid_arg (Printf.sprintf "Table.make: row %d has arity %d, expected %d"
                       i (Array.length r) arity);
      Array.iteri
        (fun j v ->
          match Value.kind_of v with
          | None -> ()
          | Some k ->
            let attr = Schema.attribute schema j in
            if k <> attr.Schema.kind then
              invalid_arg
                (Printf.sprintf "Table.make: row %d attribute %S: got %s, expected %s"
                   i attr.Schema.name (Value.kind_name k)
                   (Value.kind_name attr.Schema.kind)))
        r)
    rows

let make schema rows =
  validate schema rows;
  create schema rows

let schema t = t.schema

let nrows t = Array.length t.rows

let id t = t.id

let row t i = t.rows.(i)

let rows t = t.rows

let value t i name = t.rows.(i).(Schema.index_of t.schema name)

(* --- columnar view --- *)

let build_column rows j =
  let n = Array.length rows in
  let codes = Array.make n 0 in
  let floats = Array.make n Float.nan in
  let index = ref Vmap.empty in
  let dict = ref [] in
  let next = ref 0 in
  for i = 0 to n - 1 do
    let v = rows.(i).(j) in
    let code =
      match Vmap.find_opt v !index with
      | Some c -> c
      | None ->
        let c = !next in
        incr next;
        index := Vmap.add v c !index;
        dict := v :: !dict;
        c
    in
    codes.(i) <- code;
    (match Value.to_float v with Some f -> floats.(i) <- f | None -> ())
  done;
  {
    codes;
    dict = Array.of_list (List.rev !dict);
    code_index = !index;
    floats;
  }

let column t j =
  match t.cols.(j) with
  | Some c -> c
  | None ->
    (* Built from immutable rows, so a concurrent double-build is an
       idempotent race: both domains compute structurally identical columns
       and either write may win. Never mutated after publication. *)
    let c = build_column t.rows j in
    t.cols.(j) <- Some c;
    c

let code_of col v = Vmap.find_opt v col.code_index

(* --- derived tables --- *)

let project t names =
  let schema = Schema.project t.schema names in
  let indices = List.map (Schema.index_of t.schema) names in
  let rows =
    Array.map (fun r -> Array.of_list (List.map (fun i -> r.(i)) indices)) t.rows
  in
  create schema rows

let filter p t =
  create t.schema (Array.of_list (List.filter p (Array.to_list t.rows)))

let count p t =
  Array.fold_left (fun acc r -> if p r then acc + 1 else acc) 0 t.rows

let select t indices = create t.schema (Array.map (fun i -> t.rows.(i)) indices)

let append a b =
  if not (Schema.equal a.schema b.schema) then
    invalid_arg "Table.append: schema mismatch";
  create a.schema (Array.append a.rows b.rows)

let group_by t names =
  let indices = List.map (Schema.index_of t.schema) names in
  let groups : (Value.t list, int list) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  Array.iteri
    (fun i r ->
      let key = List.map (fun j -> r.(j)) indices in
      match Hashtbl.find_opt groups key with
      | None ->
        Hashtbl.replace groups key [ i ];
        order := key :: !order
      | Some is -> Hashtbl.replace groups key (i :: is))
    t.rows;
  List.rev_map
    (fun key ->
      let is = Hashtbl.find groups key in
      (key, Array.of_list (List.rev is)))
    !order

let distinct t names = List.length (group_by t names)

let map_rows f t = make t.schema (Array.map f t.rows)

let fold f acc t = Array.fold_left f acc t.rows

let iter f t = Array.iteri f t.rows

let pp ?(max_rows = 20) fmt t =
  let attrs = Schema.attributes t.schema in
  let shown = min max_rows (nrows t) in
  let cells =
    Array.init (shown + 1) (fun i ->
        if i = 0 then Array.map (fun a -> a.Schema.name) attrs
        else Array.map Value.to_string t.rows.(i - 1))
  in
  let widths =
    Array.init (Array.length attrs) (fun j ->
        Array.fold_left (fun acc line -> max acc (String.length line.(j))) 0 cells)
  in
  Array.iteri
    (fun i line ->
      Array.iteri
        (fun j cell -> Format.fprintf fmt "%-*s  " widths.(j) cell)
        line;
      Format.pp_print_newline fmt ();
      if i = 0 then begin
        Array.iter
          (fun w -> Format.fprintf fmt "%s  " (String.make w '-'))
          widths;
        Format.pp_print_newline fmt ()
      end)
    cells;
  if nrows t > shown then
    Format.fprintf fmt "... (%d more rows)@." (nrows t - shown)
