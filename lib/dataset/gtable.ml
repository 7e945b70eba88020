type grow = Gvalue.t array

type t = { schema : Schema.t; rows : grow array }

let make schema rows =
  let arity = Schema.arity schema in
  Array.iteri
    (fun i r ->
      if Array.length r <> arity then
        invalid_arg (Printf.sprintf "Gtable.make: row %d arity mismatch" i))
    rows;
  { schema; rows }

let schema t = t.schema

let nrows t = Array.length t.rows

let row t i = t.rows.(i)

let rows t = t.rows

type eclass = { rep : grow; members : int array }

let grow_equal a b = Array.for_all2 Gvalue.equal a b

let classes_indices t indices =
  (* Key classes by the rendered form of the selected cells for hashing;
     verify with grow_equal to guard against rendering collisions. *)
  let select r = Array.map (fun j -> r.(j)) indices in
  let render r =
    String.concat "\x00" (Array.to_list (Array.map Gvalue.to_string (select r)))
  in
  let table : (string, (grow * int list ref) list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  Array.iteri
    (fun i r ->
      let key = render r in
      let bucket =
        match Hashtbl.find_opt table key with
        | Some b -> b
        | None ->
          let b = ref [] in
          Hashtbl.replace table key b;
          b
      in
      match
        List.find_opt (fun (rep, _) -> grow_equal (select rep) (select r)) !bucket
      with
      | Some (_, members) -> members := i :: !members
      | None ->
        let members = ref [ i ] in
        bucket := (r, members) :: !bucket;
        order := (r, members) :: !order)
    t.rows;
  List.rev_map
    (fun (rep, members) ->
      { rep; members = Array.of_list (List.rev !members) })
    !order

let classes t =
  classes_indices t (Array.init (Schema.arity t.schema) Fun.id)

let classes_on t names =
  classes_indices t
    (Array.of_list (List.map (Schema.index_of t.schema) names))

let smallest = function
  | [] -> 0
  | cs -> List.fold_left (fun acc c -> min acc (Array.length c.members)) max_int cs

let min_class_size_on t names = smallest (classes_on t names)

let matches_row grow raw =
  Array.length grow = Array.length raw && Array.for_all2 Gvalue.matches grow raw

let pp ?(max_rows = 20) fmt t =
  let attrs = Schema.attributes t.schema in
  let shown = min max_rows (nrows t) in
  let cells =
    Array.init (shown + 1) (fun i ->
        if i = 0 then Array.map (fun a -> a.Schema.name) attrs
        else Array.map Gvalue.to_string t.rows.(i - 1))
  in
  let widths =
    Array.init (Array.length attrs) (fun j ->
        Array.fold_left (fun acc line -> max acc (String.length line.(j))) 0 cells)
  in
  Array.iteri
    (fun i line ->
      Array.iteri (fun j cell -> Format.fprintf fmt "%-*s  " widths.(j) cell) line;
      Format.pp_print_newline fmt ();
      if i = 0 then begin
        Array.iter (fun w -> Format.fprintf fmt "%s  " (String.make w '-')) widths;
        Format.pp_print_newline fmt ()
      end)
    cells;
  if nrows t > shown then Format.fprintf fmt "... (%d more rows)@." (nrows t - shown)
