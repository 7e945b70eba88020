type role = Identifier | Quasi_identifier | Sensitive | Insensitive

type attribute = { name : string; kind : Value.kind; role : role }

type t = { attrs : attribute array; index : (string, int) Hashtbl.t }

let make attrs =
  if attrs = [] then invalid_arg "Schema.make: no attributes";
  let index = Hashtbl.create (List.length attrs) in
  List.iteri
    (fun i a ->
      if a.name = "" then invalid_arg "Schema.make: empty attribute name";
      if Hashtbl.mem index a.name then
        invalid_arg (Printf.sprintf "Schema.make: duplicate attribute %S" a.name);
      Hashtbl.replace index a.name i)
    attrs;
  { attrs = Array.of_list attrs; index }

let arity t = Array.length t.attrs

let attributes t = Array.copy t.attrs

let attribute t i = t.attrs.(i)

let names t = Array.to_list (Array.map (fun a -> a.name) t.attrs)

let index_of t name =
  match Hashtbl.find_opt t.index name with
  | Some i -> i
  | None -> raise Not_found

let mem t name = Hashtbl.mem t.index name

let find t name = t.attrs.(index_of t name)

let with_role t role =
  Array.to_list t.attrs
  |> List.filter (fun a -> a.role = role)
  |> List.map (fun a -> a.name)

let equal a b =
  Array.length a.attrs = Array.length b.attrs
  && Array.for_all2 (fun x y -> x = y) a.attrs b.attrs

let project t names = make (List.map (fun n -> find t n) names)
