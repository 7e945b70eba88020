module Value = Dataset.Value
module Schema = Dataset.Schema
module Table = Dataset.Table
module Gvalue = Dataset.Gvalue
module Gtable = Dataset.Gtable
module Hierarchy = Dataset.Hierarchy

type scheme = (string * Hierarchy.t) list

let quasi_identifiers schema = Schema.with_role schema Schema.Quasi_identifier

let full_domain schema scheme ~levels table =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name scheme) then
        invalid_arg
          (Printf.sprintf "Generalization.full_domain: no hierarchy for %S" name))
    levels;
  let attrs = Schema.attributes schema in
  let plan =
    Array.map
      (fun a ->
        if a.Schema.role = Schema.Identifier then `Suppress
        else
          match List.assoc_opt a.Schema.name scheme with
          | None -> `Keep
          | Some h ->
            let level =
              Option.value ~default:0 (List.assoc_opt a.Schema.name levels)
            in
            if level = 0 then `Keep else `Generalize (h, level))
      attrs
  in
  let grows =
    Array.map
      (fun row ->
        Array.mapi
          (fun j v ->
            match plan.(j) with
            | `Suppress -> Gvalue.Any
            | `Keep -> Gvalue.of_value v
            | `Generalize (h, level) -> Hierarchy.apply h ~level v)
          row)
      (Table.rows table)
  in
  Gtable.make schema grows

let suppress_rows gtable indices =
  let arity = Schema.arity (Gtable.schema gtable) in
  let rows = Array.map Array.copy (Gtable.rows gtable) in
  Array.iter
    (fun i -> rows.(i) <- Array.make arity Gvalue.Any)
    indices;
  Gtable.make (Gtable.schema gtable) rows

let common_prefix_length a b =
  let n = min (String.length a) (String.length b) in
  let rec loop i = if i < n && a.[i] = b.[i] then loop (i + 1) else i in
  loop 0

(* One pass gathers what every branch below needs: whether all values
   equal the first, are strings, are numeric (have a float view), are
   integral (ints or dates), and the float view's extrema, folded from the
   first value with [Float.min]/[Float.max] so [nan] and the zeros fold as
   they always have. The decision order is hierarchy, then prefix, then
   range. *)
let cover ?hierarchy values =
  let n = Array.length values in
  if n = 0 then invalid_arg "Generalization.cover: empty list";
  let first = values.(0) in
  let all_equal = ref true and all_strings = ref true in
  let numeric = ref true and integral = ref true in
  let lo = ref Float.nan and hi = ref Float.nan in
  for i = 0 to n - 1 do
    let v = values.(i) in
    if i > 0 && !all_equal && not (Value.equal first v) then all_equal := false;
    let f =
      match v with
      | Value.Int x ->
        all_strings := false;
        float_of_int x
      | Value.Date d ->
        all_strings := false;
        float_of_int (Value.date_ordinal d)
      | Value.Float x ->
        all_strings := false;
        integral := false;
        x
      | Value.Bool b ->
        all_strings := false;
        integral := false;
        if b then 1. else 0.
      | Value.String _ ->
        numeric := false;
        integral := false;
        Float.nan
      | Value.Null ->
        all_strings := false;
        numeric := false;
        integral := false;
        Float.nan
    in
    if !numeric then
      if i = 0 then begin
        lo := f;
        hi := f
      end
      else begin
        lo := Float.min !lo f;
        hi := Float.max !hi f
      end
  done;
  if !all_equal then Gvalue.Exact first
  else
    match hierarchy with
    | Some h when Hierarchy.leaves h <> [] ->
      (* Climb the taxonomy until one category covers every value. *)
      let rec climb level =
        if level >= Hierarchy.height h - 1 then Gvalue.Any
        else begin
          let g = Hierarchy.apply h ~level first in
          let rec covers i =
            i >= n || (Gvalue.matches g values.(i) && covers (i + 1))
          in
          if covers 1 then g else climb (level + 1)
        end
      in
      climb 1
    | Some _ | None ->
      if !all_strings then begin
        let s0 = match first with Value.String s -> s | _ -> assert false in
        let len = String.length s0 in
        let same_length = ref true and k = ref len in
        Array.iter
          (function
            | Value.String s ->
              if String.length s <> len then same_length := false
              else k := min !k (common_prefix_length s0 s)
            | _ -> assert false)
          values;
        if (not !same_length) || !k = 0 then Gvalue.Any else Gvalue.Prefix (s0, !k)
      end
      else if not !numeric then Gvalue.Any
      else if !integral then Gvalue.Int_range (int_of_float !lo, int_of_float !hi)
      else Gvalue.Float_range (!lo, !hi +. 1e-9)
