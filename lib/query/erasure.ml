type implementation = Recompute | Cached

type t = {
  implementation : implementation;
  snapshot : Dataset.Table.t;  (* ingest-time data, never modified *)
  erased : (int, unit) Hashtbl.t;
}

let create implementation table =
  { implementation; snapshot = table; erased = Hashtbl.create 8 }

let erase t i =
  if i < 0 || i >= Dataset.Table.nrows t.snapshot then
    invalid_arg "Erasure.erase: index out of range";
  if not (Hashtbl.mem t.erased i) then
    Obs.Ledger.suppression ~analyst:Obs.Ledger.ambient_analyst
      ~source:"erasure"
      ~cells:(Dataset.Schema.arity (Dataset.Table.schema t.snapshot))
      ~rows:1;
  Hashtbl.replace t.erased i ()

let live_records t = Dataset.Table.nrows t.snapshot - Hashtbl.length t.erased

(* Bitset count over the snapshot, minus the erased matches: the erased
   set is small relative to the table, so subtracting per erased index
   beats masking out a whole complement bitset. *)
let count_over t ~include_erased p =
  let schema = Dataset.Table.schema t.snapshot in
  let b = Predicate.bits (Predicate.compile schema p) t.snapshot in
  let total = Bitset.count b in
  if include_erased then total
  else
    Hashtbl.fold
      (fun i () acc -> if Bitset.get b i then acc - 1 else acc)
      t.erased total

let count t p =
  match t.implementation with
  | Recompute -> count_over t ~include_erased:false p
  | Cached -> count_over t ~include_erased:true p

let full_tuple_predicate t i =
  let schema = Dataset.Table.schema t.snapshot in
  let row = Dataset.Table.row t.snapshot i in
  Predicate.conj
    (List.mapi
       (fun j v ->
         Predicate.Atom
           (Predicate.Eq ((Dataset.Schema.attribute schema j).Dataset.Schema.name, v)))
       (Array.to_list row))

let verify_erasure t i =
  if not (Hashtbl.mem t.erased i) then
    invalid_arg "Erasure.verify_erasure: record was not erased";
  let p = full_tuple_predicate t i in
  count t p = count_over t ~include_erased:false p
