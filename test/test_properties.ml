(* Property-based tests driven by the Stattest.Gen generators: random
   schemas, product models, sampled tables, hierarchies and predicate ASTs
   exercise invariants of the dataset / query / kanon / pso layers that the
   hand-picked fixtures in the per-module suites cannot reach. *)

module V = Dataset.Value
module S = Dataset.Schema
module T = Dataset.Table
module P = Query.Predicate
module Gen = Stattest.Gen

let qcheck ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name (QCheck.make gen) f)

(* --- dataset layer --- *)

let prop_sampled_rows_in_support =
  qcheck "sampled rows live in the model support" Gen.model_table
    (fun (m, t) ->
      let sch = Dataset.Model.schema m in
      T.fold
        (fun ok row ->
          ok
          && Array.for_all2
               (fun (a : S.attribute) v ->
                 Prob.Distribution.prob (Dataset.Model.marginal m a.S.name) v > 0.)
               (S.attributes sch) row)
        true t)

let prop_row_prob =
  qcheck "row_prob is a probability on sampled rows" Gen.nonempty_model_table
    (fun (m, t) ->
      T.fold
        (fun ok row ->
          let p = Dataset.Model.row_prob m row in
          ok && p > 0. && p <= 1.)
        true t
      && Dataset.Model.universe_min_entropy m >= 0.)

let prop_group_by_partitions =
  qcheck "group_by partitions the rows" Gen.nonempty_model_table
    (fun (m, t) ->
      let sch = Dataset.Model.schema m in
      let names = Array.to_list (Array.map (fun a -> a.S.name) (S.attributes sch)) in
      let groups = T.group_by t names in
      let total = List.fold_left (fun n (_, idx) -> n + Array.length idx) 0 groups in
      total = T.nrows t
      && List.length groups = T.distinct t names
      && T.nrows (T.project t names) = T.nrows t)

(* The hashed dictionary against a reference built the way the columnar
   view used to be built: a [Map] under [Value.compare], codes in
   first-appearance order. *)
module Vmap = Map.Make (V)

let reference_column rows j =
  let index = ref Vmap.empty and dict = ref [] in
  let codes =
    Array.map
      (fun (r : T.row) ->
        match Vmap.find_opt r.(j) !index with
        | Some c -> c
        | None ->
          let c = Vmap.cardinal !index in
          index := Vmap.add r.(j) c !index;
          dict := r.(j) :: !dict;
          c)
      rows
  in
  (codes, Array.of_list (List.rev !dict), !index)

(* Bit-for-bit identity: tells [nan] payloads and the two zeros apart. *)
let identical a b =
  match (a, b) with
  | V.Float x, V.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let float_pool = [| 0.; -0.; Float.nan; -.Float.nan; 1.5; -2.; Float.infinity |]

(* Dates include two out-of-range spellings of ordinals that in-range
   dates also have (Jan 32 = Feb 1, Mar 0 = Feb 31): equal under
   [Value.equal], so they must hash alike. *)
let date_pool =
  [| { V.year = 2000; month = 1; day = 32 }; { V.year = 2000; month = 2; day = 1 };
     { V.year = 2000; month = 3; day = 0 }; { V.year = 2000; month = 2; day = 31 };
     { V.year = 1999; month = 12; day = 31 } |]

let column_schema =
  S.make
    (List.map
       (fun (name, kind) -> { S.name; kind; role = S.Quasi_identifier })
       [ ("f", V.Kfloat); ("d", V.Kdate); ("i", V.Kint); ("s", V.Kstring); ("b", V.Kbool) ])

let column_value =
  QCheck.Gen.(
    fun j ->
      frequency
        [
          (1, return V.Null);
          ( 6,
            map
              (fun k ->
                match j with
                | 0 -> V.Float float_pool.(k mod Array.length float_pool)
                | 1 -> V.Date date_pool.(k mod Array.length date_pool)
                | 2 -> V.Int (k - 4)
                | 3 -> V.String (String.make (k mod 3) 'x' ^ string_of_int (k mod 5))
                | _ -> V.Bool (k mod 2 = 0))
              (int_range 0 9) );
        ])

let column_rows =
  QCheck.Gen.(
    int_range 0 80 >>= fun n ->
    array_repeat n
      (map Array.of_list (flatten_l (List.init (S.arity column_schema) column_value))))

let probes =
  (V.Null :: V.Float 7.25 :: V.Int 99 :: V.String "absent" :: V.Bool true
   :: V.Date { V.year = 1900; month = 1; day = 1 }
   :: List.map (fun f -> V.Float f) (Array.to_list float_pool))
  @ List.map (fun d -> V.Date d) (Array.to_list date_pool)
  @ List.init 10 (fun k -> V.Int (k - 4))

let prop_column_matches_map_reference =
  qcheck ~count:300 "hashed column equals the Map-built reference" column_rows
    (fun rows ->
      let t = T.make column_schema rows in
      List.for_all
        (fun j ->
          let col = T.column t j in
          let codes, dict, index = reference_column rows j in
          col.T.codes = codes
          && Array.length col.T.dict = Array.length dict
          && Array.for_all2 identical col.T.dict dict
          && Array.for_all2
               (fun f (r : T.row) ->
                 match V.to_float r.(j) with
                 | Some g -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
                 | None -> Float.is_nan f)
               col.T.floats rows
          && List.for_all (fun v -> T.code_of col v = Vmap.find_opt v index) probes)
        (List.init (S.arity column_schema) Fun.id))

(* --- prob layer: guide-table sampling --- *)

(* [Distribution.sample] against a binary search of the cumulative table,
   at chosen uniforms. A uniform is [k / 2^53]; the generator seeded by
   [seed_for_bits (k lsl 11)] draws exactly it, because SplitMix64's
   output function is a bijection and is inverted here. *)
let unshift y k =
  let x = ref y and s = ref k in
  while !s < 64 do
    x := Int64.logxor !x (Int64.shift_right_logical y !s);
    s := !s + k
  done;
  !x

let inverse_odd c =
  let inv = ref c in
  for _ = 1 to 6 do
    inv := Int64.mul !inv (Int64.sub 2L (Int64.mul c !inv))
  done;
  !inv

let seed_for_bits target =
  let z = unshift target 31 in
  let z = Int64.mul z (inverse_odd 0x94D049BB133111EBL) in
  let z = unshift z 27 in
  let z = Int64.mul z (inverse_odd 0xBF58476D1CE4E5B9L) in
  Int64.sub (unshift z 30) 0x9E3779B97F4A7C15L

let two53 = 9007199254740992.

let sample_at d k =
  Prob.Distribution.sample (Prob.Rng.create ~seed:(seed_for_bits (Int64.shift_left k 11)) ()) d

(* The cumulative table [of_weights] builds (its masses, summed in support
   order, the last pinned to 1) and the first entry above [u]. *)
let reference_cumulative d =
  let support = Prob.Distribution.support d in
  let acc = ref 0. in
  let cum =
    Array.map
      (fun v ->
        acc := !acc +. Prob.Distribution.prob d v;
        !acc)
      support
  in
  cum.(Array.length cum - 1) <- 1.;
  (support, cum)

let binary_search cum u =
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let weights =
  QCheck.Gen.(
    int_range 1 300 >>= fun n ->
    list_repeat n
      (frequency
         [ (5, float_range 0.001 1.); (2, return 1e-12); (1, float_range 1. 1000.) ]))

let prop_guide_matches_binary_search =
  qcheck ~count:150 "guide-table sample equals the binary search" weights (fun ws ->
      let d = Prob.Distribution.of_weights (List.mapi (fun i w -> (i, w)) ws) in
      let support, cum = reference_cumulative d in
      let n = Array.length support in
      let m = ref 1 in
      while !m < n do
        m := 2 * !m
      done;
      let last = Int64.of_float two53 |> Int64.pred in
      let clamp k = if k < 0L then 0L else if k > last then last else k in
      let ks =
        (* every bucket edge and the uniform just below it *)
        List.concat_map
          (fun b ->
            let k = Int64.of_float (float_of_int b /. float_of_int !m *. two53) in
            [ k; Int64.pred k ])
          (List.init !m Fun.id)
        (* the uniforms around every cumulative value *)
        @ List.concat_map
            (fun c ->
              let k = Int64.of_float (Float.floor (c *. two53)) in
              [ Int64.pred k; k; Int64.succ k ])
            (Array.to_list cum)
        @ [ 0L; last ]
      in
      (* and a stretch of an ordinary stream *)
      let r = Prob.Rng.create ~seed:(Int64.of_int n) () in
      let r' = Prob.Rng.copy r in
      Prob.Rng.bits64 (Prob.Rng.create ~seed:(seed_for_bits 42L) ()) = 42L
      && List.for_all
           (fun _ ->
             Prob.Distribution.sample r d
             = support.(binary_search cum (Prob.Rng.uniform r')))
           (List.init 200 Fun.id)
      && List.for_all
           (fun k ->
             let k = clamp k in
             sample_at d k = support.(binary_search cum (Int64.to_float k /. two53)))
           ks)

(* --- query layer --- *)

let prop_count_matches_eval =
  qcheck "count sums eval; isolation means count one" Gen.model_table_predicate
    (fun (m, t, p) ->
      let sch = Dataset.Model.schema m in
      let by_eval = T.fold (fun n row -> if P.eval sch p row then n + 1 else n) 0 t in
      P.count sch p t = by_eval && P.isolates sch p t = (by_eval = 1))

let prop_weight_in_unit_interval =
  qcheck ~count:60 "predicate weight is a probability" Gen.model_table_predicate
    (fun (m, _, p) ->
      let w =
        P.weight_value (P.weight ~rng:(Prob.Rng.create ~seed:31L ()) ~trials:2000 m p)
      in
      w >= 0. && w <= 1.)

let prop_weight_conjunction_bounded =
  qcheck ~count:60 "conjunction weight below each conjunct"
    QCheck.Gen.(Gen.model >>= fun m -> triple (return m) (Gen.predicate m) (Gen.predicate m))
    (fun (m, p, q) ->
      let weight pr =
        P.weight ~rng:(Prob.Rng.create ~seed:47L ()) ~trials:4000 m pr
      in
      let wpq = weight (P.And (p, q)) and wp = weight p and wq = weight q in
      match (wpq, wp, wq) with
      | P.Salted _, _, _ | _, P.Salted _, _ | _, _, P.Salted _ ->
        (* A salted weight is an expectation over hash salts; the realized
           mass for the one salt Monte Carlo sees can sit anywhere in [0,1],
           so the bound only relates comparable weights. *)
        true
      | _ ->
        (* The three Monte-Carlo fallbacks replay one seed, so estimation
           error is shared; 0.08 covers the residual 4000-trial jitter. *)
        P.weight_value wpq
        <= Float.min (P.weight_value wp) (P.weight_value wq) +. 0.08)

(* A batch of predicates that always contains repeated programs (and hence
   repeated atoms): the whole list is duplicated, so the dedup paths must fan
   identical answers out to every duplicate slot. *)
let gen_batch =
  QCheck.Gen.(
    Gen.model_table >>= fun (m, t) ->
    list_size (int_range 0 10) (Gen.predicate m) >>= fun ps ->
    return (m, t, Array.of_list (ps @ ps)))

(* The interpreter's answers for a batch: matching row indices, counts and
   isolation flags, each computed without the compiled engine. *)
let interpreted_answers sch t qs =
  let rows q =
    let acc = ref [] in
    T.iter (fun i row -> if P.eval sch q row then acc := i :: !acc) t;
    Array.of_list (List.rev !acc)
  in
  let expected_rows = Array.map rows qs in
  let expected = Array.map (fun q -> P.count_interpreted sch q t) qs in
  let isolated = Array.map (fun n -> n = 1) expected in
  (expected_rows, expected, isolated)

let indices = Array.map Query.Bitset.indices

let prop_engines_agree =
  qcheck ~count:200 "compiled/bitset engine agrees with the interpreter"
    gen_batch
    (fun (m, t, qs) ->
      let sch = Dataset.Model.schema m in
      let cs = Array.map (fun q -> P.compile sch q) qs in
      let expected_rows, expected, isolated = interpreted_answers sch t qs in
      let single_count = Array.map (fun q -> P.count sch q t) qs in
      let single_isolates = Array.map (fun q -> P.isolates sch q t) qs in
      Array.map Array.length expected_rows = expected
      && single_count = expected
      && single_isolates = isolated
      && indices (Array.map (fun c -> P.bits c t) cs) = expected_rows)

let prop_count_many_matches_counts =
  qcheck ~count:100 "batched count_many equals the per-predicate loop"
    gen_batch
    (fun (m, t, qs) ->
      let sch = Dataset.Model.schema m in
      let cs = Array.map (fun q -> P.compile sch q) qs in
      let expected_rows, expected, isolated = interpreted_answers sch t qs in
      P.count_many t cs = expected
      && P.count_many ~cache:false t cs = expected
      && P.isolates_many t cs = isolated
      && indices (P.bits_many t cs) = expected_rows)

let prop_exact_count_mechanism =
  qcheck "exact_count mechanism returns the true count" Gen.model_table_predicate
    (fun (m, t, p) ->
      let sch = Dataset.Model.schema m in
      let out =
        Query.Mechanism.run (Query.Mechanism.exact_count p)
          (Prob.Rng.create ~seed:9L ()) t
      in
      match Query.Mechanism.as_vector out with
      | Some [| c |] -> int_of_float c = P.count sch p t
      | _ -> false)

(* --- hierarchies --- *)

let prop_hierarchy_sound =
  qcheck "every hierarchy level covers the value" Gen.int_hierarchy
    (fun (h, v) ->
      let height = Dataset.Hierarchy.height h in
      let value = V.Int v in
      height >= 2
      && Dataset.Gvalue.equal
           (Dataset.Hierarchy.apply h ~level:0 value)
           (Dataset.Gvalue.of_value value)
      && Dataset.Gvalue.is_suppressed
           (Dataset.Hierarchy.apply h ~level:(height - 1) value)
      && List.for_all
           (fun level ->
             Dataset.Gvalue.matches (Dataset.Hierarchy.apply h ~level value) value)
           (List.init height Fun.id))

(* --- k-anonymity --- *)

let mondrian_config ~k recoding =
  {
    Kanon.Anonymizer.algorithm = Kanon.Anonymizer.Mondrian;
    k;
    scheme = [];
    max_suppression = 0.2;
    recoding;
  }

let prop_mondrian_k_anonymous =
  qcheck ~count:60 "mondrian releases are k-anonymous"
    QCheck.Gen.(pair (int_range 2 5) Gen.kanon_table)
    (fun (k, t) ->
      List.for_all
        (fun recoding ->
          let release =
            Kanon.Anonymizer.anonymize (mondrian_config ~k recoding) t
          in
          Kanon.Anonymizer.is_k_anonymous ~k release
          && Dataset.Gtable.nrows release = T.nrows t)
        [ Kanon.Mondrian.Member_level; Kanon.Mondrian.Class_level ])

let prop_release_covers_input =
  qcheck ~count:40 "release class reps match their member rows"
    QCheck.Gen.(pair (int_range 2 4) Gen.kanon_table)
    (fun (k, t) ->
      let release =
        Kanon.Anonymizer.anonymize (mondrian_config ~k Kanon.Mondrian.Class_level) t
      in
      let qis = Kanon.Generalization.quasi_identifiers (T.schema t) in
      let projected = T.project t qis in
      List.for_all
        (fun (cls : Dataset.Gtable.eclass) ->
          Array.for_all
            (fun i ->
              Dataset.Gtable.matches_row
                (Array.sub cls.Dataset.Gtable.rep 0 (List.length qis))
                (T.row projected i))
            cls.Dataset.Gtable.members)
        (Dataset.Gtable.classes_on release qis))

(* The list-based Mondrian, cover and class grouping the library used
   before it worked on integer ranks, one-pass covers and hashed cells,
   kept verbatim (up to names) as the references for the rewrites. *)
module Reference = struct
  module G = Dataset.Gvalue
  module H = Dataset.Hierarchy

  let numeric_view values =
    let floats = List.filter_map V.to_float values in
    if List.length floats = List.length values then Some floats else None

  let common_prefix_length a b =
    let n = min (String.length a) (String.length b) in
    let rec loop i = if i < n && a.[i] = b.[i] then loop (i + 1) else i in
    loop 0

  let cover ?hierarchy values =
    match values with
    | [] -> invalid_arg "Reference.cover: empty list"
    | first :: rest ->
      if List.for_all (V.equal first) rest then G.Exact first
      else begin
        let strings =
          List.filter_map (function V.String s -> Some s | _ -> None) values
        in
        let all_strings = List.length strings = List.length values in
        match hierarchy with
        | Some h when H.leaves h <> [] ->
          let rec climb level =
            if level >= H.height h - 1 then G.Any
            else begin
              let g = H.apply h ~level first in
              if List.for_all (G.matches g) rest then g else climb (level + 1)
            end
          in
          climb 1
        | Some _ | None ->
          if all_strings then begin
            match strings with
            | [] -> G.Any
            | s0 :: _ ->
              let same_length =
                List.for_all (fun s -> String.length s = String.length s0) strings
              in
              if not same_length then G.Any
              else begin
                let k =
                  List.fold_left
                    (fun acc s -> min acc (common_prefix_length s0 s))
                    (String.length s0) strings
                in
                if k = 0 then G.Any else G.Prefix (s0, k)
              end
          end
          else begin
            match numeric_view values with
            | None -> G.Any
            | Some floats ->
              let lo = List.fold_left Float.min (List.hd floats) floats in
              let hi = List.fold_left Float.max (List.hd floats) floats in
              let is_integral =
                List.for_all
                  (function
                    | V.Int _ | V.Date _ -> true
                    | V.Float _ | V.String _ | V.Bool _ | V.Null -> false)
                  values
              in
              if is_integral then G.Int_range (int_of_float lo, int_of_float hi)
              else G.Float_range (lo, hi +. 1e-9)
          end
      end

  let span_of table indices j =
    List.filter_map
      (fun i ->
        let v = (T.rows table).(i).(j) in
        if v = V.Null then None else Some v)
      indices
    |> List.sort_uniq V.compare |> Array.of_list

  let mondrian ?(hierarchies = []) ~recoding ~k table =
    let schema = T.schema table in
    let attrs = S.attributes schema in
    let qi_indices =
      List.filter
        (fun j -> attrs.(j).S.role = S.Quasi_identifier)
        (List.init (Array.length attrs) Fun.id)
    in
    let rows = T.rows table in
    let out = Array.make (T.nrows table) [||] in
    let all = List.init (T.nrows table) Fun.id in
    let global_counts =
      List.map (fun j -> (j, max 1 (Array.length (span_of table all j)))) qi_indices
    in
    let emit indices =
      let cover_cell attr j =
        let values = List.map (fun i -> rows.(i).(j)) indices in
        let g = cover ?hierarchy:(List.assoc_opt attr.S.name hierarchies) values in
        fun _ -> g
      in
      let grow_for j =
        let attr = attrs.(j) in
        if attr.S.role = S.Identifier then fun _ -> G.Any
        else if attr.S.role = S.Quasi_identifier then cover_cell attr j
        else
          match recoding with
          | Kanon.Mondrian.Member_level -> fun row -> G.Exact row.(j)
          | Kanon.Mondrian.Class_level -> cover_cell attr j
      in
      let cells = Array.init (Array.length attrs) grow_for in
      List.iter (fun i -> out.(i) <- Array.map (fun cell -> cell rows.(i)) cells) indices
    in
    let rec partition indices size =
      if size < 2 * k then emit indices
      else begin
        let candidates =
          List.filter_map
            (fun j ->
              let distinct = span_of table indices j in
              if Array.length distinct < 2 then None
              else
                Some
                  ( float_of_int (Array.length distinct)
                    /. float_of_int (List.assoc j global_counts),
                    j,
                    distinct ))
            qi_indices
          |> List.sort (fun (a, _, _) (b, _, _) -> Float.compare b a)
        in
        let rec try_splits = function
          | [] -> emit indices
          | (_, j, distinct) :: rest ->
            let median = distinct.(Array.length distinct / 2) in
            let cut op = List.partition (fun i -> op (V.compare rows.(i).(j) median) 0) indices in
            let left, right = cut ( < ) in
            let ln = List.length left and rn = List.length right in
            if ln >= k && rn >= k then begin
              partition left ln;
              partition right rn
            end
            else begin
              let left, right = cut ( <= ) in
              let ln = List.length left and rn = List.length right in
              if ln >= k && rn >= k then begin
                partition left ln;
                partition right rn
              end
              else try_splits rest
            end
        in
        try_splits candidates
      end
    in
    partition all (T.nrows table);
    Dataset.Gtable.make schema out

  (* Classes keyed by the rendered cells, verified with [Gvalue.equal]. *)
  let classes_on gtable names =
    let sch = Dataset.Gtable.schema gtable in
    let indices = Array.of_list (List.map (S.index_of sch) names) in
    let select r = Array.map (fun j -> r.(j)) indices in
    let render r = String.concat "\x00" (Array.to_list (Array.map G.to_string (select r))) in
    let table = Hashtbl.create 64 in
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
          List.find_opt
            (fun (rep, _) -> Array.for_all2 G.equal (select rep) (select r))
            !bucket
        with
        | Some (_, members) -> members := i :: !members
        | None ->
          let members = ref [ i ] in
          bucket := (r, members) :: !bucket;
          order := (r, members) :: !order)
      (Dataset.Gtable.rows gtable);
    List.rev_map (fun (rep, members) -> (rep, Array.of_list (List.rev !members))) !order
end

(* Bit-for-bit identity of generalized values: floats by their bits, so
   [nan] payloads and the two zeros count as different. *)
let float_identical x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let gvalue_identical (a : Dataset.Gvalue.t) (b : Dataset.Gvalue.t) =
  match (a, b) with
  | Exact x, Exact y -> identical x y
  | Float_range (l1, h1), Float_range (l2, h2) -> float_identical l1 l2 && float_identical h1 h2
  | Category c1, Category c2 ->
    c1.label = c2.label
    && List.length c1.members = List.length c2.members
    && List.for_all2 identical c1.members c2.members
  | _ -> a = b

let gtables_identical a b =
  Dataset.Gtable.nrows a = Dataset.Gtable.nrows b
  && Array.for_all2 (Array.for_all2 gvalue_identical) (Dataset.Gtable.rows a)
       (Dataset.Gtable.rows b)

(* Non-Null values with ties, every float special and same-ordinal
   dates, so cuts, medians and covers meet equal-but-distinct values. *)
let kanon_pool = function
  | V.Kint -> V.Int max_int :: List.init 11 (fun k -> V.Int (k - 4))
  | V.Kfloat -> List.map (fun f -> V.Float f) (0.25 :: 2.5 :: Array.to_list float_pool)
  | V.Kdate -> List.map (fun d -> V.Date d) (Array.to_list date_pool)
  | V.Kstring ->
    List.map (fun s -> V.String s) [ "a1"; "a2"; "ab"; "b1"; "abc"; "abd"; "b"; "" ]
  | V.Kbool -> [ V.Bool true; V.Bool false ]

(* Ints are also drawn from a wide range, so small partitions hold few of
   their column's many distinct values (Mondrian's sorted-median path as
   well as its rank walk). *)
let kanon_value kind =
  QCheck.Gen.(
    frequency
      ([ (1, return V.Null); (8, oneofl (kanon_pool kind)) ]
      @ if kind = V.Kint then [ (6, map (fun i -> V.Int i) (int_range 100 400)) ] else []))

let kanon_kinds = [| V.Kint; V.Kfloat; V.Kdate; V.Kstring |]

let kanon_roles =
  [| S.Quasi_identifier; S.Quasi_identifier; S.Sensitive; S.Insensitive; S.Identifier |]

(* [pick] 1: a two-group taxonomy over the pool (leaves deduplicated the
   way [Hierarchy.categorical] keys them, so [-0.] and the second [nan]
   fall outside it); 2: a numeric ladder for ints; otherwise none. *)
let kanon_hierarchy name kind pick =
  let leaves = List.sort_uniq compare (kanon_pool kind) in
  let half = List.length leaves / 2 in
  let group label vs =
    Dataset.Hierarchy.Node (label, List.map (fun v -> Dataset.Hierarchy.Leaf v) vs)
  in
  match pick with
  | 1 ->
    Some
      ( name,
        Dataset.Hierarchy.categorical ~name
          (Dataset.Hierarchy.Node
             ( "root",
               [
                 group "lo" (List.filteri (fun i _ -> i < half) leaves);
                 group "hi" (List.filteri (fun i _ -> i >= half) leaves);
               ] )) )
  | 2 when kind = V.Kint ->
    Some (name, Dataset.Hierarchy.int_ranges ~name ~lo:(-4) ~widths:[ 2; 4; 8 ])
  | _ -> None

let kanon_case =
  QCheck.Gen.(
    int_range 1 5 >>= fun arity ->
    list_repeat arity (triple (int_range 0 3) (int_range 0 4) (int_range 0 2)) >>= fun specs ->
    let attrs =
      List.mapi
        (fun i (kind, role, _) ->
          { S.name = Printf.sprintf "a%d" i; kind = kanon_kinds.(kind); role = kanon_roles.(role) })
        specs
    in
    let hierarchies =
      List.concat
        (List.mapi
           (fun i (kind, _, h) ->
             Option.to_list (kanon_hierarchy (Printf.sprintf "a%d" i) kanon_kinds.(kind) h))
           specs)
    in
    let sch = S.make attrs in
    int_range 1 40 >>= fun n ->
    array_repeat n (map Array.of_list (flatten_l (List.map (fun a -> kanon_value a.S.kind) attrs)))
    >>= fun rows ->
    (* Small k (deep partitions) more often than large. *)
    frequency [ (1, int_range 1 n); (2, int_range 1 (max 1 (n / 4))) ] >>= fun k ->
    return (T.make sch rows, hierarchies, k))

let prop_mondrian_matches_reference =
  qcheck ~count:400 "mondrian equals the list-based reference" kanon_case
    (fun (t, hierarchies, k) ->
      List.for_all
        (fun recoding ->
          List.for_all
            (fun hierarchies ->
              gtables_identical
                (Kanon.Mondrian.anonymize ~hierarchies ~recoding ~k t)
                (Reference.mondrian ~hierarchies ~recoding ~k t))
            [ []; hierarchies ])
        [ Kanon.Mondrian.Member_level; Kanon.Mondrian.Class_level ])

let prop_cover_matches_reference =
  let values =
    QCheck.Gen.(
      int_range 1 8 >>= fun n ->
      list_repeat n (int_range 0 4 >>= fun kind ->
                     if kind = 4 then return (V.Bool true) else kanon_value kanon_kinds.(kind)))
  in
  qcheck ~count:500 "cover equals the list-based cover"
    QCheck.Gen.(pair values (int_range 0 2))
    (fun (values, h) ->
      let hierarchy =
        Option.map snd
          (kanon_hierarchy "h"
             (match values with V.Int _ :: _ -> V.Kint | V.String _ :: _ -> V.Kstring | _ -> V.Kfloat)
             h)
      in
      gvalue_identical
        (Kanon.Generalization.cover ?hierarchy (Array.of_list values))
        (Reference.cover ?hierarchy values))

(* Classes against the render-keyed grouping, on generalized tables whose
   equal cells also render alike: no [-0.], no negative [nan], no dates
   sharing an ordinal. There the two groupings must agree exactly. *)
let prop_classes_match_render_keyed =
  let gvalue =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun k -> Dataset.Gvalue.Exact (V.Int (k mod 3))) (int_range 0 8));
          (1, return (Dataset.Gvalue.Exact (V.Float Float.nan)));
          (1, oneofl [ Dataset.Gvalue.Exact (V.Float 0.5); Dataset.Gvalue.Exact V.Null ]);
          (1, oneofl [ Dataset.Gvalue.Exact (V.Date { V.year = 2000; month = 2; day = 1 }) ]);
          (2, map (fun k -> Dataset.Gvalue.Int_range (k, k + 2)) (int_range 0 2));
          ( 1,
            oneofl
              [ Dataset.Gvalue.Float_range (0., 1.); Dataset.Gvalue.Float_range (Float.nan, 1.);
                Dataset.Gvalue.Float_range (0.1, 0.1000001) ] );
          ( 2,
            oneofl
              [ Dataset.Gvalue.Prefix ("12345", 3); Dataset.Gvalue.Prefix ("12399", 3);
                Dataset.Gvalue.Prefix ("123", 3); Dataset.Gvalue.Prefix ("12345", 2) ] );
          (1, return (Dataset.Gvalue.Category { label = "PULM"; members = [] }));
          (2, return Dataset.Gvalue.Any);
        ])
  in
  let sch =
    S.make
      (List.init 4 (fun i ->
           { S.name = Printf.sprintf "g%d" i; kind = V.Kint; role = S.Quasi_identifier }))
  in
  qcheck ~count:300 "classes equal the render-keyed grouping"
    QCheck.Gen.(
      pair
        (int_range 0 60 >>= fun n -> array_repeat n (array_repeat 4 gvalue))
        (list_size (int_range 0 4) (oneofl [ "g0"; "g1"; "g2"; "g3" ])))
    (fun (rows, names) ->
      let g = Dataset.Gtable.make sch rows in
      let got = Dataset.Gtable.classes_on g names in
      let want = Reference.classes_on g names in
      List.length got = List.length want
      && List.for_all2
           (fun (c : Dataset.Gtable.eclass) (rep, members) ->
             c.Dataset.Gtable.rep == rep && c.Dataset.Gtable.members = members)
           got want)

(* --- the PSO game --- *)

let prop_game_outcome_sane =
  let model = lazy (Dataset.Synth.pso_model ~attributes:2 ~values_per_attribute:4) in
  qcheck ~count:25 "game outcomes are internally consistent"
    QCheck.Gen.(int_range 0 10_000)
    (fun seed ->
      let outcome =
        Pso.Game.run
          (Prob.Rng.create ~seed:(Int64.of_int seed) ())
          ~model:(Lazy.force model) ~n:20
          ~mechanism:(Query.Mechanism.exact_count P.True)
          ~attacker:(Pso.Attacker.hash_bucket ~buckets:4096)
          ~weight_bound:0.01 ~trials:8
      in
      let lo, hi = outcome.Pso.Game.success_ci in
      outcome.Pso.Game.successes <= outcome.Pso.Game.isolations
      && outcome.Pso.Game.isolations <= outcome.Pso.Game.trials
      && outcome.Pso.Game.successes + outcome.Pso.Game.heavy_isolations
         <= outcome.Pso.Game.isolations
      && Float.abs
           (outcome.Pso.Game.success_rate
           -. (float_of_int outcome.Pso.Game.successes /. float_of_int outcome.Pso.Game.trials))
         < 1e-12
      && 0. <= lo
      && lo <= outcome.Pso.Game.success_rate
      && outcome.Pso.Game.success_rate <= hi
      && hi <= 1.)

let () =
  Alcotest.run "properties"
    [
      ("prob", [ prop_guide_matches_binary_search ]);
      ( "dataset",
        [
          prop_sampled_rows_in_support;
          prop_row_prob;
          prop_group_by_partitions;
          prop_column_matches_map_reference;
        ] );
      ( "query",
        [
          prop_count_matches_eval;
          prop_engines_agree;
          prop_count_many_matches_counts;
          prop_weight_in_unit_interval;
          prop_weight_conjunction_bounded;
          prop_exact_count_mechanism;
        ] );
      ("hierarchy", [ prop_hierarchy_sound ]);
      ( "kanon",
        [
          prop_mondrian_k_anonymous;
          prop_release_covers_input;
          prop_mondrian_matches_reference;
          prop_cover_matches_reference;
          prop_classes_match_render_keyed;
        ] );
      ("pso", [ prop_game_outcome_sane ]);
    ]
