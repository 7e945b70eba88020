(* Tests for the dataset substrate: values, schemas, tables, generalized
   values, hierarchies, CSV round-tripping, product models and the
   synthetic generators. *)

module V = Dataset.Value
module S = Dataset.Schema
module T = Dataset.Table
module G = Dataset.Gvalue
module H = Dataset.Hierarchy

let rng () = Prob.Rng.create ~seed:77L ()

(* --- Value --- *)

let test_value_roundtrip () =
  let cases =
    [
      (V.Kint, V.Int (-42));
      (V.Kfloat, V.Float 3.25);
      (V.Kstring, V.String "hello world");
      (V.Kbool, V.Bool true);
      (V.Kdate, V.make_date ~year:1987 ~month:6 ~day:30);
    ]
  in
  List.iter
    (fun (kind, v) ->
      let s = V.to_string v in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" s)
        true
        (V.equal v (V.of_string kind s)))
    cases

let test_value_null () =
  Alcotest.(check bool) "null parses from empty" true
    (V.equal V.Null (V.of_string V.Kint ""));
  Alcotest.(check string) "null renders empty" "" (V.to_string V.Null)

let test_value_bad_parse () =
  Alcotest.(check bool) "bad int raises" true
    (try
       ignore (V.of_string V.Kint "xyz");
       false
     with Failure _ -> true)

let test_value_date_order () =
  let a = V.make_date ~year:1990 ~month:1 ~day:31 in
  let b = V.make_date ~year:1990 ~month:2 ~day:1 in
  Alcotest.(check bool) "date order" true (V.compare a b < 0)

let test_value_bad_date () =
  Alcotest.check_raises "month 13" (Invalid_argument "Value.make_date: bad month")
    (fun () -> ignore (V.make_date ~year:2000 ~month:13 ~day:1))

let test_value_to_float () =
  Alcotest.(check (option (float 1e-9))) "int" (Some 5.) (V.to_float (V.Int 5));
  Alcotest.(check (option (float 1e-9))) "bool" (Some 1.) (V.to_float (V.Bool true));
  Alcotest.(check (option (float 1e-9))) "string" None (V.to_float (V.String "x"))

(* --- Schema --- *)

let demo_schema =
  S.make
    [
      { S.name = "id"; kind = V.Kint; role = S.Identifier };
      { S.name = "zip"; kind = V.Kstring; role = S.Quasi_identifier };
      { S.name = "dx"; kind = V.Kstring; role = S.Sensitive };
    ]

let test_schema_lookup () =
  Alcotest.(check int) "index" 1 (S.index_of demo_schema "zip");
  Alcotest.(check bool) "mem" true (S.mem demo_schema "dx");
  Alcotest.(check bool) "not mem" false (S.mem demo_schema "nope")

let test_schema_roles () =
  Alcotest.(check (list string)) "QIs" [ "zip" ]
    (S.with_role demo_schema S.Quasi_identifier);
  Alcotest.(check (list string)) "identifiers" [ "id" ]
    (S.with_role demo_schema S.Identifier)

let test_schema_duplicate_rejected () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Schema.make: duplicate attribute \"a\"") (fun () ->
      ignore
        (S.make
           [
             { S.name = "a"; kind = V.Kint; role = S.Insensitive };
             { S.name = "a"; kind = V.Kint; role = S.Insensitive };
           ]))

let test_schema_project () =
  let p = S.project demo_schema [ "dx"; "zip" ] in
  Alcotest.(check (list string)) "projected order" [ "dx"; "zip" ] (S.names p)

(* --- Table --- *)

let demo_table () =
  T.make demo_schema
    [|
      [| V.Int 0; V.String "12345"; V.String "flu" |];
      [| V.Int 1; V.String "12345"; V.String "cold" |];
      [| V.Int 2; V.String "54321"; V.String "flu" |];
    |]

let test_table_basics () =
  let t = demo_table () in
  Alcotest.(check int) "rows" 3 (T.nrows t);
  Alcotest.(check string) "value" "54321" (V.to_string (T.value t 2 "zip"))

let test_table_kind_mismatch () =
  Alcotest.(check bool) "wrong kind rejected" true
    (try
       ignore (T.make demo_schema [| [| V.String "x"; V.String "1"; V.String "y" |] |]);
       false
     with Invalid_argument _ -> true)

let test_table_arity_mismatch () =
  Alcotest.(check bool) "wrong arity rejected" true
    (try
       ignore (T.make demo_schema [| [| V.Int 1 |] |]);
       false
     with Invalid_argument _ -> true)

let test_table_null_allowed () =
  let t = T.make demo_schema [| [| V.Null; V.Null; V.Null |] |] in
  Alcotest.(check int) "null row accepted" 1 (T.nrows t)

let test_table_filter_count () =
  let t = demo_table () in
  let is_flu row = V.equal row.(2) (V.String "flu") in
  Alcotest.(check int) "count" 2 (T.count is_flu t);
  Alcotest.(check int) "filter" 2 (T.nrows (T.filter is_flu t))

let test_table_project () =
  let t = T.project (demo_table ()) [ "dx" ] in
  Alcotest.(check int) "arity" 1 (S.arity (T.schema t));
  Alcotest.(check string) "first dx" "flu" (V.to_string (T.value t 0 "dx"))

let test_table_group_by () =
  let groups = T.group_by (demo_table ()) [ "zip" ] in
  Alcotest.(check int) "two groups" 2 (List.length groups);
  let _, first = List.hd groups in
  Alcotest.(check (array int)) "first group" [| 0; 1 |] first

let test_table_distinct () =
  Alcotest.(check int) "distinct zips" 2 (T.distinct (demo_table ()) [ "zip" ])

let test_table_select_append () =
  let t = demo_table () in
  let s = T.select t [| 2; 0 |] in
  Alcotest.(check int) "selected" 2 (T.nrows s);
  Alcotest.(check int) "append" 5 (T.nrows (T.append t s))

let test_table_columns_roundtrip () =
  let t = demo_table () in
  let cols = Array.init 3 (T.column t) in
  (* Decoding codes through the dictionary reproduces every cell. *)
  Array.iteri
    (fun j col ->
      Array.iteri
        (fun i code ->
          Alcotest.(check bool)
            (Printf.sprintf "cell (%d,%d)" i j)
            true
            (V.equal col.T.dict.(code) (T.row t i).(j)))
        col.T.codes)
    cols;
  let zip = cols.(1) in
  Alcotest.(check int) "zip dictionary size" 2 (Array.length zip.T.dict);
  Alcotest.(check (array int)) "zip codes (first-appearance)" [| 0; 0; 1 |] zip.T.codes;
  Alcotest.(check (option int)) "code_of known" (Some 1)
    (T.code_of zip (V.String "54321"));
  Alcotest.(check (option int)) "code_of unknown" None (T.code_of zip (V.String "?"));
  let id = cols.(0) in
  Alcotest.(check (array (float 1e-9))) "numeric view" [| 0.; 1.; 2. |] id.T.floats;
  Alcotest.(check bool) "non-numeric view is nan" true
    (Array.for_all Float.is_nan zip.T.floats);
  Alcotest.(check bool) "cached" true (T.column t 1 == zip);
  Alcotest.check_raises "no such attribute" (Invalid_argument "index out of bounds")
    (fun () -> ignore (T.column t 3))

let test_table_ids_fresh () =
  let t = demo_table () in
  let derived =
    [
      T.filter (fun _ -> true) t;
      T.select t [| 0; 1; 2 |];
      T.project t [ "dx" ];
      T.append t t;
      T.map_rows Fun.id t;
    ]
  in
  let ids = T.id t :: List.map T.id derived in
  let distinct = List.sort_uniq compare ids in
  Alcotest.(check int) "every table gets a fresh id" (List.length ids)
    (List.length distinct)

(* --- Gvalue --- *)

let test_gvalue_matches () =
  Alcotest.(check bool) "exact" true (G.matches (G.Exact (V.Int 3)) (V.Int 3));
  Alcotest.(check bool) "exact no" false (G.matches (G.Exact (V.Int 3)) (V.Int 4));
  Alcotest.(check bool) "range yes" true (G.matches (G.Int_range (1, 5)) (V.Int 5));
  Alcotest.(check bool) "range no" false (G.matches (G.Int_range (1, 5)) (V.Int 6));
  Alcotest.(check bool) "prefix yes" true
    (G.matches (G.Prefix ("12345", 3)) (V.String "12399"));
  Alcotest.(check bool) "prefix no" false
    (G.matches (G.Prefix ("12345", 3)) (V.String "99945"));
  Alcotest.(check bool) "prefix length" false
    (G.matches (G.Prefix ("12345", 3)) (V.String "123"));
  Alcotest.(check bool) "any" true (G.matches G.Any (V.String "anything"));
  Alcotest.(check bool) "null only matches any" false
    (G.matches (G.Exact V.Null) V.Null);
  Alcotest.(check bool) "null matches any" true (G.matches G.Any V.Null);
  Alcotest.(check bool) "category" true
    (G.matches
       (G.Category { label = "PULM"; members = [ V.String "flu"; V.String "CF" ] })
       (V.String "CF"))

let test_gvalue_date_range () =
  let d = V.make_date ~year:1990 ~month:5 ~day:10 in
  let lo = V.date_ordinal { V.year = 1990; month = 1; day = 1 } in
  let hi = V.date_ordinal { V.year = 1990; month = 12; day = 31 } in
  Alcotest.(check bool) "date in year range" true (G.matches (G.Int_range (lo, hi)) d)

let test_gvalue_to_string () =
  Alcotest.(check string) "prefix stars" "123**" (G.to_string (G.Prefix ("12345", 3)));
  Alcotest.(check string) "range" "30-39" (G.to_string (G.Int_range (30, 39)));
  Alcotest.(check string) "any" "*" (G.to_string G.Any)

let test_gvalue_span () =
  Alcotest.(check (float 1e-9)) "exact span" 0.
    (G.span (G.Exact (V.Int 1)) ~domain_size:10.);
  Alcotest.(check (float 1e-9)) "any span" 1. (G.span G.Any ~domain_size:10.);
  Alcotest.(check (float 1e-9)) "range span" 0.9
    (G.span (G.Int_range (0, 9)) ~domain_size:10.)

(* --- Hierarchy --- *)

let test_hierarchy_zip () =
  let h = H.zip_prefix ~digits:5 in
  Alcotest.(check int) "height" 6 (H.height h);
  (match H.apply h ~level:2 (V.String "12345") with
  | G.Prefix (s, 3) -> Alcotest.(check string) "prefix base" "12345" s
  | _ -> Alcotest.fail "expected prefix");
  Alcotest.(check bool) "top is any" true
    (G.equal G.Any (H.apply h ~level:5 (V.String "12345")));
  Alcotest.(check bool) "level 0 exact" true
    (G.equal (G.Exact (V.String "12345")) (H.apply h ~level:0 (V.String "12345")))

let test_hierarchy_int_ranges () =
  let h = H.int_ranges ~name:"age" ~lo:0 ~widths:[ 10; 50 ] in
  (match H.apply h ~level:1 (V.Int 37) with
  | G.Int_range (30, 39) -> ()
  | g -> Alcotest.failf "expected 30-39, got %s" (G.to_string g));
  match H.apply h ~level:2 (V.Int 37) with
  | G.Int_range (0, 49) -> ()
  | g -> Alcotest.failf "expected 0-49, got %s" (G.to_string g)

let test_hierarchy_widths_validated () =
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Hierarchy.int_ranges: widths must be increasing and positive")
    (fun () -> ignore (H.int_ranges ~name:"x" ~lo:0 ~widths:[ 10; 10 ]))

let test_hierarchy_categorical () =
  let h = Dataset.Synth.disease_hierarchy in
  (match H.apply h ~level:1 (V.String "COVID") with
  | G.Category { label = "PULM"; members } ->
    Alcotest.(check int) "pulm members" 5 (List.length members)
  | g -> Alcotest.failf "expected PULM, got %s" (G.to_string g));
  (match H.apply h ~level:2 (V.String "COVID") with
  | G.Category { label = "ANY-DX"; _ } -> ()
  | g -> Alcotest.failf "expected ANY-DX, got %s" (G.to_string g));
  Alcotest.(check bool) "unknown leaf suppressed" true
    (G.equal G.Any (H.apply h ~level:1 (V.String "NotADisease")))

let test_hierarchy_monotone () =
  (* Higher levels cover everything lower levels cover. *)
  let h = Dataset.Synth.disease_hierarchy in
  List.iter
    (fun leaf ->
      let g1 = H.apply h ~level:1 leaf in
      let g2 = H.apply h ~level:2 leaf in
      List.iter
        (fun other ->
          if G.matches g1 other && not (G.matches g2 other) then
            Alcotest.fail "generalization not monotone")
        (H.leaves h))
    (H.leaves h)

let test_hierarchy_date () =
  let d = V.make_date ~year:1987 ~month:6 ~day:15 in
  (match H.apply H.date_ladder ~level:2 d with
  | G.Int_range (lo, hi) ->
    Alcotest.(check bool) "year range covers date" true
      (lo <= V.date_ordinal { V.year = 1987; month = 6; day = 15 }
      && V.date_ordinal { V.year = 1987; month = 6; day = 15 } <= hi)
  | _ -> Alcotest.fail "expected range");
  match H.apply H.date_ladder ~level:3 d with
  | G.Int_range (lo, _) ->
    Alcotest.(check int) "decade start"
      (V.date_ordinal { V.year = 1980; month = 1; day = 1 })
      lo
  | _ -> Alcotest.fail "expected decade range"

(* --- Gtable --- *)

let test_gtable_classes () =
  let schema =
    S.make
      [
        { S.name = "q"; kind = V.Kint; role = S.Quasi_identifier };
        { S.name = "s"; kind = V.Kstring; role = S.Sensitive };
      ]
  in
  let gt =
    Dataset.Gtable.make schema
      [|
        [| G.Int_range (0, 9); G.Exact (V.String "a") |];
        [| G.Int_range (0, 9); G.Exact (V.String "b") |];
        [| G.Int_range (10, 19); G.Exact (V.String "a") |];
      |]
  in
  Alcotest.(check int) "full classes" 3 (List.length (Dataset.Gtable.classes gt));
  Alcotest.(check int) "QI classes" 2
    (List.length (Dataset.Gtable.classes_on gt [ "q" ]));
  Alcotest.(check int) "min QI class" 1 (Dataset.Gtable.min_class_size_on gt [ "q" ])

(* Classes follow [Gvalue.equal], not the rendering: cells that are equal
   but print differently ([0.] and [-0.], two spellings of one date
   ordinal, a range bounded by [-0.]) share a class, whose [rep] is the
   first member's row. *)
let test_gtable_classes_merge_equal_cells () =
  let schema =
    S.make
      [
        { S.name = "x"; kind = V.Kfloat; role = S.Quasi_identifier };
        { S.name = "d"; kind = V.Kdate; role = S.Quasi_identifier };
        { S.name = "r"; kind = V.Kfloat; role = S.Quasi_identifier };
      ]
  in
  let feb1 = V.Date { V.year = 2000; month = 2; day = 1 } in
  let jan32 = V.Date { V.year = 2000; month = 1; day = 32 } in
  let row x d r = [| G.Exact (V.Float x); G.Exact d; G.Float_range (r, 1.) |] in
  let rows = [| row 0. feb1 0.; row (-0.) jan32 (-0.); row 1. feb1 0.; row (-0.) feb1 0. |] in
  let gt = Dataset.Gtable.make schema rows in
  let classes = Dataset.Gtable.classes gt in
  Alcotest.(check (list (array int))) "members" [ [| 0; 1; 3 |]; [| 2 |] ]
    (List.map (fun c -> c.Dataset.Gtable.members) classes);
  Alcotest.(check bool) "rep is the first member's row" true
    ((List.hd classes).Dataset.Gtable.rep == rows.(0));
  Alcotest.(check (list (array int))) "on the float column alone"
    [ [| 0; 1; 3 |]; [| 2 |] ]
    (List.map (fun c -> c.Dataset.Gtable.members) (Dataset.Gtable.classes_on gt [ "x" ]))

(* Tables over these hashes pick buckets by the low bits. Aligned ranges
   (decades, and full-domain ranges of a power-of-two width) and ints that
   share a power-of-two factor must still reach most of 64 buckets. *)
let test_hashes_spread_low_bits () =
  let buckets hash keys =
    List.length (List.sort_uniq Int.compare (List.map (fun x -> hash x land 63) keys))
  in
  let starts = List.init 256 Fun.id in
  let check name hash keys =
    let b = buckets hash keys in
    if b < 32 then Alcotest.failf "%s: %d of 64 buckets used" name b
  in
  check "decade ranges" G.hash (List.map (fun i -> G.Int_range (10 * i, (10 * i) + 9)) starts);
  check "width-16 ranges" G.hash
    (List.map (fun i -> G.Int_range (16 * i, (16 * i) + 15)) starts);
  check "multiples of 1024" V.hash (List.map (fun i -> V.Int (1024 * i)) starts);
  check "mixed ints" V.hash_mix (List.map (fun i -> i lsl 20) starts)

let test_gtable_matches_row () =
  let grow = [| G.Int_range (0, 9); G.Exact (V.String "a") |] in
  Alcotest.(check bool) "match" true
    (Dataset.Gtable.matches_row grow [| V.Int 5; V.String "a" |]);
  Alcotest.(check bool) "no match" false
    (Dataset.Gtable.matches_row grow [| V.Int 15; V.String "a" |])

(* --- CSV --- *)

let test_csv_roundtrip () =
  let t = demo_table () in
  let t' = Dataset.Csv.of_string demo_schema (Dataset.Csv.to_string t) in
  Alcotest.(check int) "rows preserved" (T.nrows t) (T.nrows t');
  for i = 0 to T.nrows t - 1 do
    Array.iteri
      (fun j v ->
        Alcotest.(check bool) "cell preserved" true (V.equal v (T.row t' i).(j)))
      (T.row t i)
  done

let test_csv_quoting () =
  let schema = S.make [ { S.name = "s"; kind = V.Kstring; role = S.Insensitive } ] in
  let t = T.make schema [| [| V.String "a,b\"c\nd" |] |] in
  let t' = Dataset.Csv.of_string schema (Dataset.Csv.to_string t) in
  Alcotest.(check string) "tricky cell" "a,b\"c\nd" (V.to_string (T.value t' 0 "s"))

let test_csv_gtable_export () =
  let t = demo_table () in
  let release = Kanon.Mondrian.anonymize ~k:1 t in
  let csv = Dataset.Csv.gtable_to_string release in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + rows" 4 (List.length lines);
  Alcotest.(check string) "header" "id,zip,dx" (List.hd lines)

let test_csv_header_mismatch () =
  Alcotest.(check bool) "header mismatch raises" true
    (try
       ignore (Dataset.Csv.of_string demo_schema "a,b,c\n1,2,3\n");
       false
     with Failure _ -> true)

(* --- Model --- *)

let test_model_exact_probs () =
  let model = Dataset.Synth.pso_model ~attributes:2 ~values_per_attribute:4 in
  Alcotest.(check (float 1e-9)) "row prob" (1. /. 16.)
    (Dataset.Model.row_prob model [| V.Int 0; V.Int 3 |]);
  Alcotest.(check (float 1e-9)) "cell prob" 0.5
    (Dataset.Model.cell_prob model "a0" (fun v ->
         match v with V.Int i -> i < 2 | _ -> false))

let test_model_min_entropy () =
  let model = Dataset.Synth.pso_model ~attributes:3 ~values_per_attribute:4 in
  Alcotest.(check (float 1e-9)) "min entropy adds" 6.
    (Dataset.Model.universe_min_entropy model)

let test_model_sample_table () =
  let model = Dataset.Synth.pso_model ~attributes:2 ~values_per_attribute:4 in
  let t = Dataset.Model.sample_table (rng ()) model 50 in
  Alcotest.(check int) "rows" 50 (T.nrows t);
  T.iter
    (fun _ row ->
      Array.iter
        (fun v ->
          match v with
          | V.Int i when i >= 0 && i < 4 -> ()
          | _ -> Alcotest.fail "sample out of support")
        row)
    t

(* [sample_table] skips [Table.make]'s validation because [Model.make]
   checked every support value; the checked constructor must accept every
   table it builds, for each model family the library samples. *)
let test_model_sample_table_valid () =
  List.iter
    (fun (name, model) ->
      for seed = 1 to 5 do
        let t =
          Dataset.Model.sample_table (Prob.Rng.create ~seed:(Int64.of_int seed) ()) model 40
        in
        match T.make (T.schema t) (T.rows t) with
        | _ -> ()
        | exception Invalid_argument msg -> Alcotest.failf "%s, seed %d: %s" name seed msg
      done)
    [
      ("pso", Dataset.Synth.pso_model ~attributes:3 ~values_per_attribute:64);
      ("kanon-pso", Dataset.Synth.kanon_pso_model ~qis:6 ~retained:42 ~domain:64);
      ("gic", Dataset.Synth.gic_model ());
    ]

(* The cells of one sampled table, pinned: rows are drawn in order, each
   attribute left to right, one draw per cell. A change to that order, to
   the generator's stream or to the inverse-CDF map moves this digest. *)
let test_model_sample_table_pinned () =
  let cells t =
    T.rows t
    |> Array.map (fun r -> String.concat "," (Array.to_list (Array.map V.to_string r)))
    |> Array.to_list |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  let draw model = Dataset.Model.sample_table (Prob.Rng.create ~seed:2021L ()) model 6 in
  Alcotest.(check string) "kanon-pso cells" "b1f68bac683a73ee83efa72a71c79ea2"
    (cells (draw (Dataset.Synth.kanon_pso_model ~qis:2 ~retained:3 ~domain:8)));
  Alcotest.(check string) "gic cells" "94d93f15c090fc7918382e6b5c38c2ff"
    (cells (draw (Dataset.Synth.gic_model ())))

let test_model_validates () =
  let schema = S.make [ { S.name = "a"; kind = V.Kint; role = S.Insensitive } ] in
  Alcotest.(check bool) "kind mismatch rejected" true
    (try
       ignore
         (Dataset.Model.make schema
            [ ("a", Prob.Distribution.uniform [ V.String "x" ]) ]);
       false
     with Invalid_argument _ -> true)

(* --- Synth --- *)

let test_synth_population () =
  let t = Dataset.Synth.population (rng ()) ~n:200 () in
  Alcotest.(check int) "rows" 200 (T.nrows t);
  Alcotest.(check int) "unique names" 200 (T.distinct t [ "name" ])

let test_synth_gic_release_drops_identifiers () =
  let t = Dataset.Synth.population (rng ()) ~n:20 () in
  let r = Dataset.Synth.gic_release t in
  Alcotest.(check bool) "no name" false (S.mem (T.schema r) "name");
  Alcotest.(check bool) "no id" false (S.mem (T.schema r) "id");
  Alcotest.(check bool) "keeps zip" true (S.mem (T.schema r) "zip")

let test_synth_voter_list_coverage () =
  let t = Dataset.Synth.population (rng ()) ~n:2000 () in
  let v = Dataset.Synth.voter_list (rng ()) t ~coverage:0.5 in
  let frac = float_of_int (T.nrows v) /. 2000. in
  Alcotest.(check bool) "coverage near half" true (frac > 0.4 && frac < 0.6)

let test_synth_ratings () =
  let ratings =
    Dataset.Synth.ratings (rng ()) ~users:50 ~movies:30 ~ratings_per_user:5
  in
  Array.iter
    (fun r ->
      let open Dataset.Synth in
      if r.stars < 1 || r.stars > 5 then Alcotest.fail "stars out of range";
      if r.movie < 0 || r.movie >= 30 then Alcotest.fail "movie out of range";
      if r.user < 0 || r.user >= 50 then Alcotest.fail "user out of range")
    ratings;
  let by_user = Dataset.Synth.ratings_by_user ratings ~users:50 in
  Alcotest.(check int) "bucket count" 50 (Array.length by_user);
  let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 by_user in
  Alcotest.(check int) "partition" (Array.length ratings) total

let test_synth_census () =
  let r = rng () in
  let replay = Prob.Rng.copy r in
  let people = Dataset.Synth.census_population r ~blocks:20 ~mean_block_size:10 in
  Alcotest.(check bool) "nonempty" true (Array.length people > 0);
  let blocks =
    List.init 20 (fun block ->
        Dataset.Synth.census_block replay ~block ~mean_block_size:10)
  in
  Alcotest.(check bool) "census_block draws concatenated, names included" true
    (people = Array.concat blocks);
  Array.iter
    (fun p ->
      let open Dataset.Synth in
      if p.block < 0 || p.block >= 20 then Alcotest.fail "block range";
      if p.age < 0 || p.age > 99 then Alcotest.fail "age range";
      if p.sex < 0 || p.sex > 1 then Alcotest.fail "sex range")
    people

let test_synth_genotypes () =
  let g = Dataset.Synth.genotype_study (rng ()) ~people:10 ~snps:20 () in
  Alcotest.(check int) "pool size" 10 (Array.length g.Dataset.Synth.pool);
  Alcotest.(check int) "snps" 20 (Array.length g.Dataset.Synth.frequencies);
  Array.iter
    (fun f -> if f < 0. || f > 1. then Alcotest.fail "frequency range")
    g.Dataset.Synth.frequencies

let test_synth_kanon_model_roles () =
  let m = Dataset.Synth.kanon_pso_model ~qis:3 ~retained:4 ~domain:8 in
  let schema = Dataset.Model.schema m in
  Alcotest.(check int) "arity" 7 (S.arity schema);
  Alcotest.(check int) "QIs" 3 (List.length (S.with_role schema S.Quasi_identifier));
  Alcotest.(check int) "sensitive" 1 (List.length (S.with_role schema S.Sensitive))

(* --- QCheck properties --- *)

let qcheck =
  let open QCheck in
  [
    Test.make ~name:"cover matches every covered value" ~count:300
      (list_of_size Gen.(1 -- 8) (int_range 0 100))
      (fun ints ->
        let values = List.map (fun i -> V.Int i) ints in
        let g = Kanon.Generalization.cover (Array.of_list values) in
        List.for_all (G.matches g) values);
    Test.make ~name:"zip cover matches every covered string" ~count:300
      (list_of_size Gen.(1 -- 6) (int_range 10000 99999))
      (fun zips ->
        let values = List.map (fun z -> V.String (string_of_int z)) zips in
        let g = Kanon.Generalization.cover (Array.of_list values) in
        List.for_all (G.matches g) values);
    Test.make ~name:"value to_string/of_string roundtrip (int)" ~count:300 int
      (fun i -> V.equal (V.Int i) (V.of_string V.Kint (V.to_string (V.Int i))));
    Test.make ~name:"csv roundtrip on random string tables" ~count:100
      (list_of_size Gen.(1 -- 10) (pair string string))
      (fun rows ->
        let schema =
          S.make
            [
              { S.name = "a"; kind = V.Kstring; role = S.Insensitive };
              { S.name = "b"; kind = V.Kstring; role = S.Insensitive };
            ]
        in
        assume (List.for_all (fun (a, b) -> a <> "" && b <> "") rows);
        let t =
          T.make schema
            (Array.of_list
               (List.map (fun (a, b) -> [| V.String a; V.String b |]) rows))
        in
        let t' = Dataset.Csv.of_string schema (Dataset.Csv.to_string t) in
        T.nrows t = T.nrows t'
        && List.for_all
             (fun i -> Array.for_all2 V.equal (T.row t i) (T.row t' i))
             (List.init (T.nrows t) Fun.id));
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "dataset"
    [
      ( "value",
        [
          Alcotest.test_case "roundtrip" `Quick test_value_roundtrip;
          Alcotest.test_case "null" `Quick test_value_null;
          Alcotest.test_case "bad parse" `Quick test_value_bad_parse;
          Alcotest.test_case "date order" `Quick test_value_date_order;
          Alcotest.test_case "bad date" `Quick test_value_bad_date;
          Alcotest.test_case "to_float" `Quick test_value_to_float;
        ] );
      ( "schema",
        [
          Alcotest.test_case "lookup" `Quick test_schema_lookup;
          Alcotest.test_case "roles" `Quick test_schema_roles;
          Alcotest.test_case "duplicate rejected" `Quick test_schema_duplicate_rejected;
          Alcotest.test_case "project" `Quick test_schema_project;
        ] );
      ( "table",
        [
          Alcotest.test_case "basics" `Quick test_table_basics;
          Alcotest.test_case "kind mismatch" `Quick test_table_kind_mismatch;
          Alcotest.test_case "arity mismatch" `Quick test_table_arity_mismatch;
          Alcotest.test_case "null allowed" `Quick test_table_null_allowed;
          Alcotest.test_case "filter/count" `Quick test_table_filter_count;
          Alcotest.test_case "project" `Quick test_table_project;
          Alcotest.test_case "group_by" `Quick test_table_group_by;
          Alcotest.test_case "distinct" `Quick test_table_distinct;
          Alcotest.test_case "select/append" `Quick test_table_select_append;
          Alcotest.test_case "columnar view" `Quick test_table_columns_roundtrip;
          Alcotest.test_case "fresh ids" `Quick test_table_ids_fresh;
        ] );
      ( "gvalue",
        [
          Alcotest.test_case "matches" `Quick test_gvalue_matches;
          Alcotest.test_case "date range" `Quick test_gvalue_date_range;
          Alcotest.test_case "to_string" `Quick test_gvalue_to_string;
          Alcotest.test_case "span" `Quick test_gvalue_span;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "zip ladder" `Quick test_hierarchy_zip;
          Alcotest.test_case "int ranges" `Quick test_hierarchy_int_ranges;
          Alcotest.test_case "widths validated" `Quick test_hierarchy_widths_validated;
          Alcotest.test_case "categorical" `Quick test_hierarchy_categorical;
          Alcotest.test_case "monotone" `Quick test_hierarchy_monotone;
          Alcotest.test_case "date ladder" `Quick test_hierarchy_date;
        ] );
      ( "gtable",
        [
          Alcotest.test_case "classes" `Quick test_gtable_classes;
          Alcotest.test_case "classes merge equal cells" `Quick
            test_gtable_classes_merge_equal_cells;
          Alcotest.test_case "hashes spread low bits" `Quick test_hashes_spread_low_bits;
          Alcotest.test_case "matches_row" `Quick test_gtable_matches_row;
        ] );
      ( "csv",
        [
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "quoting" `Quick test_csv_quoting;
          Alcotest.test_case "gtable export" `Quick test_csv_gtable_export;
          Alcotest.test_case "header mismatch" `Quick test_csv_header_mismatch;
        ] );
      ( "model",
        [
          Alcotest.test_case "exact probs" `Quick test_model_exact_probs;
          Alcotest.test_case "min entropy" `Quick test_model_min_entropy;
          Alcotest.test_case "sample table" `Quick test_model_sample_table;
          Alcotest.test_case "validates kinds" `Quick test_model_validates;
          Alcotest.test_case "sampled tables pass Table.make" `Quick
            test_model_sample_table_valid;
          Alcotest.test_case "sampled cells pinned" `Quick test_model_sample_table_pinned;
        ] );
      ( "synth",
        [
          Alcotest.test_case "population" `Quick test_synth_population;
          Alcotest.test_case "gic release" `Quick
            test_synth_gic_release_drops_identifiers;
          Alcotest.test_case "voter coverage" `Quick test_synth_voter_list_coverage;
          Alcotest.test_case "ratings" `Quick test_synth_ratings;
          Alcotest.test_case "census" `Quick test_synth_census;
          Alcotest.test_case "genotypes" `Quick test_synth_genotypes;
          Alcotest.test_case "kanon model roles" `Quick test_synth_kanon_model_roles;
        ] );
      ("properties", qcheck);
    ]
