module Schema = Dataset.Schema
module Gvalue = Dataset.Gvalue
module Gtable = Dataset.Gtable

let is_suppressed_row grow = Array.for_all Gvalue.is_suppressed grow

let suppressed_rows gtable =
  Array.fold_left
    (fun acc grow -> if is_suppressed_row grow then acc + 1 else acc)
    0 (Gtable.rows gtable)

let discernibility ~qis gtable =
  let n = Gtable.nrows gtable in
  let classes = Gtable.classes_on gtable qis in
  List.fold_left
    (fun acc c ->
      let size = Array.length c.Gtable.members in
      if is_suppressed_row c.Gtable.rep then acc +. (float_of_int size *. float_of_int n)
      else acc +. (float_of_int size *. float_of_int size))
    0. classes

let average_class_size ~qis gtable =
  let classes =
    Gtable.classes_on gtable qis
    |> List.filter (fun c -> not (is_suppressed_row c.Gtable.rep))
  in
  let rows =
    List.fold_left (fun acc c -> acc + Array.length c.Gtable.members) 0 classes
  in
  if classes = [] then infinity
  else float_of_int rows /. float_of_int (List.length classes)

let generalization_intensity gtable =
  let total = ref 0 in
  let coarse = ref 0 in
  Array.iter
    (fun grow ->
      Array.iter
        (fun g ->
          incr total;
          match g with Gvalue.Exact _ -> () | _ -> incr coarse)
        grow)
    (Gtable.rows gtable);
  if !total = 0 then 0. else float_of_int !coarse /. float_of_int !total
