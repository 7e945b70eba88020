module Value = Dataset.Value
module Schema = Dataset.Schema
module Table = Dataset.Table
module Gvalue = Dataset.Gvalue
module Gtable = Dataset.Gtable

(* Values are ordered by Value.compare. Each quasi-identifier column is
   turned once into per-row integer ranks (its dictionary sorted by
   Value.compare), so medians, spans and cuts are integer work on the
   current partition, uniformly for numeric and categorical attributes.
   Null ranks -1: it sorts below every value and never counts towards a
   span. *)

(* Shared with Datafly: one successful partition split / one full-domain climb
   each count as a generalization step. *)
let c_steps = Obs.Counter.make "kanon.generalization_steps"

type recoding = Member_level | Class_level

(* [ranks.(i)] is row [i]'s rank among the column's distinct non-Null
   values, of which there are [distinct]. [by_rank] holds the row indices
   in rank order (Null first, ties in row order); Mondrian partitions it
   in place alongside the node's index array, so every node's slice of it
   stays in rank order. *)
type qi = { ranks : int array; distinct : int; by_rank : int array }

let qi_of table j =
  let col = Table.column table j in
  let dict = col.Table.dict in
  let order = Array.init (Array.length dict) Fun.id in
  Array.sort (fun a b -> Value.compare dict.(a) dict.(b)) order;
  let rank_of_code = Array.make (Array.length dict) (-1) in
  let distinct = ref 0 in
  Array.iter
    (fun c ->
      match dict.(c) with
      | Value.Null -> ()
      | _ ->
        rank_of_code.(c) <- !distinct;
        incr distinct)
    order;
  let ranks = Array.map (fun c -> rank_of_code.(c)) col.Table.codes in
  (* Counting sort on [rank + 1]: [start.(r + 1)] is where rank [r]'s rows
     go next. *)
  let start = Array.make (!distinct + 1) 0 in
  Array.iter (fun r -> start.(r + 1) <- start.(r + 1) + 1) ranks;
  let next = ref 0 in
  Array.iteri
    (fun s c ->
      start.(s) <- !next;
      next := !next + c)
    start;
  let by_rank = Array.make (Array.length ranks) 0 in
  Array.iteri
    (fun i r ->
      by_rank.(start.(r + 1)) <- i;
      start.(r + 1) <- start.(r + 1) + 1)
    ranks;
  { ranks; distinct = !distinct; by_rank }

let anonymize ?(hierarchies = []) ?(recoding = Member_level) ~k table =
  if k < 1 then invalid_arg "Mondrian.anonymize: k must be >= 1";
  let n = Table.nrows table in
  if n < k then invalid_arg "Mondrian.anonymize: fewer than k rows";
  let schema = Table.schema table in
  let attrs = Schema.attributes schema in
  let arity = Array.length attrs in
  let qis =
    Array.of_list
      (List.filter_map
         (fun j ->
           if attrs.(j).Schema.role = Schema.Quasi_identifier then
             Some (qi_of table j)
           else None)
         (List.init arity Fun.id))
  in
  let nq = Array.length qis in
  let rows = Table.rows table in
  let out = Array.make n [||] in
  (* Per attribute: suppressed, covered per class, or released per row. *)
  let plan =
    Array.map
      (fun a ->
        match (a.Schema.role, recoding) with
        | Schema.Identifier, _ -> `Suppress
        | Schema.Quasi_identifier, _ | _, Class_level ->
          `Cover (List.assoc_opt a.Schema.name hierarchies)
        | _, Member_level -> `Exact)
      attrs
  in
  (* The row indices, partitioned in place: every node owns the slice
     [idx.(lo) .. idx.(lo + size - 1)], ascending, as the stable cuts keep
     it; each quasi-identifier's [by_rank] holds the same rows in the same
     slice, in rank order. *)
  let idx = Array.init n Fun.id in
  let scratch = Array.make n 0 in
  let emit lo size =
    let shared =
      Array.mapi
        (fun j p ->
          match p with
          | `Suppress -> Gvalue.Any
          | `Exact -> Gvalue.Any (* replaced per row below *)
          | `Cover hierarchy ->
            Generalization.cover ?hierarchy
              (Array.init size (fun t -> rows.(idx.(lo + t)).(j))))
        plan
    in
    for t = lo to lo + size - 1 do
      let i = idx.(t) in
      out.(i) <-
        Array.mapi
          (fun j g ->
            match plan.(j) with `Exact -> Gvalue.Exact rows.(i).(j) | _ -> g)
          shared
    done
  in
  (* Normalized span: distinct-value count of the partition divided by the
     distinct-value count of the whole table, so attributes with different
     domain sizes compete fairly. *)
  let score = Array.make nq 0. and median = Array.make nq 0 in
  let order = Array.make nq 0 in
  (* The number of distinct non-Null ranks of quasi-identifier [p] in the
     slice and, when at least two, the median one (the [cnt / 2]-th
     smallest) into [median.(p)], from one pass over the slice in rank
     order. *)
  let distinct_buf = Array.make n 0 in
  let survey p lo size =
    let q = qis.(p) in
    let cnt = ref 0 and last = ref (-1) in
    for t = lo to lo + size - 1 do
      let r = q.ranks.(q.by_rank.(t)) in
      if r > !last then begin
        distinct_buf.(!cnt) <- r;
        incr cnt;
        last := r
      end
    done;
    if !cnt >= 2 then median.(p) <- distinct_buf.(!cnt / 2);
    !cnt
  in
  let count_below q lo size cut =
    let c = ref 0 in
    while !c < size && q.ranks.(q.by_rank.(lo + !c)) < cut do
      incr c
    done;
    !c
  in
  (* Stable two-way cut of the slice, ranks of [q] below [cut] first,
     applied to the index array and to every quasi-identifier's rank
     order. *)
  let left = Array.make n false in
  let cut_slice a lo size =
    let l = ref lo and r = ref 0 in
    for t = lo to lo + size - 1 do
      let i = a.(t) in
      if left.(i) then begin
        a.(!l) <- i;
        incr l
      end
      else begin
        scratch.(!r) <- i;
        incr r
      end
    done;
    Array.blit scratch 0 a !l !r
  in
  let split q lo size cut =
    for t = lo to lo + size - 1 do
      let i = idx.(t) in
      left.(i) <- q.ranks.(i) < cut
    done;
    cut_slice idx lo size;
    Array.iter (fun q' -> cut_slice q'.by_rank lo size) qis
  in
  let rec partition lo size =
    if size < 2 * k then emit lo size
    else begin
      (* Candidate splits ranked by normalized span, descending; the
         insertion keeps ties in quasi-identifier order. *)
      let candidates = ref 0 in
      for p = 0 to nq - 1 do
        let cnt = survey p lo size in
        if cnt >= 2 then begin
          let s = float_of_int cnt /. float_of_int (max 1 qis.(p).distinct) in
          score.(p) <- s;
          let pos = ref !candidates in
          while !pos > 0 && Float.compare s score.(order.(!pos - 1)) > 0 do
            order.(!pos) <- order.(!pos - 1);
            decr pos
          done;
          order.(!pos) <- p;
          incr candidates
        end
      done;
      (* Median split on distinct values: values below the median go left;
         failing that, values up to the median; failing that, the next
         attribute. *)
      let rec try_splits c =
        if c >= !candidates then emit lo size
        else begin
          let p = order.(c) in
          let q = qis.(p) in
          let balanced ln = ln >= k && size - ln >= k in
          let cut = ref median.(p) in
          let ln = ref (count_below q lo size !cut) in
          if not (balanced !ln) then begin
            incr cut;
            ln := count_below q lo size !cut
          end;
          if not (balanced !ln) then try_splits (c + 1)
          else begin
            Obs.Counter.incr c_steps;
            split q lo size !cut;
            partition lo !ln;
            partition (lo + !ln) (size - !ln)
          end
        end
      in
      try_splits 0
    end
  in
  partition 0 n;
  Gtable.make schema out
