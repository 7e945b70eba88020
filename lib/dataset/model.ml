type t = { schema : Schema.t; dists : Value.t Prob.Distribution.t array }

let make schema assoc =
  let arity = Schema.arity schema in
  if List.length assoc <> arity then
    invalid_arg "Model.make: must cover every attribute exactly once";
  let dists = Array.make arity None in
  List.iter
    (fun (name, dist) ->
      let i =
        try Schema.index_of schema name
        with Not_found ->
          invalid_arg (Printf.sprintf "Model.make: unknown attribute %S" name)
      in
      if dists.(i) <> None then
        invalid_arg (Printf.sprintf "Model.make: duplicate attribute %S" name);
      let kind = (Schema.attribute schema i).Schema.kind in
      Array.iter
        (fun v ->
          match Value.kind_of v with
          | Some k when k = kind -> ()
          | Some k ->
            invalid_arg
              (Printf.sprintf "Model.make: attribute %S: %s value in support of %s column"
                 name (Value.kind_name k) (Value.kind_name kind))
          | None -> invalid_arg "Model.make: Null in support")
        (Prob.Distribution.support dist);
      dists.(i) <- Some dist)
    assoc;
  let dists =
    Array.map (function Some d -> d | None -> assert false) dists
  in
  { schema; dists }

let schema t = t.schema

let marginal t name = t.dists.(Schema.index_of t.schema name)

let sample_row rng t = Array.map (fun d -> Prob.Distribution.sample rng d) t.dists

(* [make] checked every support value's kind, so the rows need no
   re-validation. Rows are drawn in order, each left to right. *)
let sample_table rng t n =
  Table.make_unchecked t.schema (Array.init n (fun _ -> sample_row rng t))

let row_prob t row =
  if Array.length row <> Array.length t.dists then
    invalid_arg "Model.row_prob: arity mismatch";
  let p = ref 1. in
  Array.iteri (fun i v -> p := !p *. Prob.Distribution.prob t.dists.(i) v) row;
  !p

let universe_min_entropy t =
  Array.fold_left (fun acc d -> acc +. Prob.Distribution.min_entropy d) 0. t.dists

let cell_prob t name pred =
  let d = marginal t name in
  Array.fold_left
    (fun acc v -> if pred v then acc +. Prob.Distribution.prob d v else acc)
    0. (Prob.Distribution.support d)
