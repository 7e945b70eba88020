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

(* Rows are bucketed by a hash of the selected cells that agrees with
   [Gvalue.equal], then compared cell by cell on those columns within the
   bucket. Classes are numbered in first-appearance order; a chained table
   over int arrays keeps the grouping free of per-row allocation. *)
let classes_indices t indices =
  let rows = t.rows in
  let n = Array.length rows in
  let width = Array.length indices in
  let row_hash r =
    let h = ref 0 in
    for p = 0 to width - 1 do
      h := (!h * 65599) + Gvalue.hash r.(indices.(p))
    done;
    Value.hash_mix !h
  in
  let same a b =
    let rec go p =
      p >= width
      || (Gvalue.equal a.(indices.(p)) b.(indices.(p)) && go (p + 1))
    in
    go 0
  in
  let buckets = ref 16 in
  while !buckets < 2 * n do
    buckets := 2 * !buckets
  done;
  let mask = !buckets - 1 in
  let head = Array.make !buckets (-1) in
  (* Per class: its first member, its hash, the next class in its bucket,
     its size. Per row: its class. *)
  let first = Array.make n 0 and hash = Array.make n 0 in
  let next = Array.make n (-1) and size = Array.make n 0 in
  let class_of = Array.make n 0 in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let r = rows.(i) in
    let h = row_hash r in
    let b = h land mask in
    let rec find c =
      if c < 0 then c
      else if hash.(c) = h && same rows.(first.(c)) r then c
      else find next.(c)
    in
    let c =
      match find head.(b) with
      | -1 ->
        let c = !count in
        incr count;
        first.(c) <- i;
        hash.(c) <- h;
        next.(c) <- head.(b);
        head.(b) <- c;
        c
      | c -> c
    in
    size.(c) <- size.(c) + 1;
    class_of.(i) <- c
  done;
  let members = Array.init !count (fun c -> Array.make size.(c) 0) in
  let filled = Array.make !count 0 in
  for i = 0 to n - 1 do
    let c = class_of.(i) in
    members.(c).(filled.(c)) <- i;
    filled.(c) <- filled.(c) + 1
  done;
  List.init !count (fun c -> { rep = rows.(first.(c)); members = members.(c) })

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
