(* Tests for the query layer: predicate evaluation, isolation, analytic
   weight vs Monte-Carlo, mechanisms and the counting oracle. *)

module P = Query.Predicate
module V = Dataset.Value

let rng () = Prob.Rng.create ~seed:31337L ()

let model = Dataset.Synth.pso_model ~attributes:3 ~values_per_attribute:8

let schema = Dataset.Model.schema model

let row a b c = [| V.Int a; V.Int b; V.Int c |]

let table rows = Dataset.Table.make schema (Array.of_list rows)

(* --- eval --- *)

let test_eval_atoms () =
  let r = row 1 2 3 in
  Alcotest.(check bool) "eq yes" true (P.eval schema (P.Atom (P.Eq ("a0", V.Int 1))) r);
  Alcotest.(check bool) "eq no" false (P.eval schema (P.Atom (P.Eq ("a0", V.Int 2))) r);
  Alcotest.(check bool) "member" true
    (P.eval schema (P.Atom (P.Member ("a1", [ V.Int 2; V.Int 5 ]))) r);
  Alcotest.(check bool) "range" true (P.eval schema (P.Atom (P.Range ("a2", 3., 4.))) r);
  Alcotest.(check bool) "range excl" false
    (P.eval schema (P.Atom (P.Range ("a2", 0., 3.))) r);
  Alcotest.(check bool) "fits" true
    (P.eval schema (P.Atom (P.Fits ("a1", Dataset.Gvalue.Int_range (0, 4)))) r)

let test_eval_connectives () =
  let r = row 1 2 3 in
  let t = P.Atom (P.Eq ("a0", V.Int 1)) in
  let f = P.Atom (P.Eq ("a0", V.Int 9)) in
  Alcotest.(check bool) "and" false (P.eval schema (P.And (t, f)) r);
  Alcotest.(check bool) "or" true (P.eval schema (P.Or (t, f)) r);
  Alcotest.(check bool) "not" true (P.eval schema (P.Not f) r);
  Alcotest.(check bool) "true" true (P.eval schema P.True r);
  Alcotest.(check bool) "false" false (P.eval schema P.False r)

let test_eval_unknown_attr () =
  Alcotest.(check bool) "raises Not_found" true
    (try
       ignore (P.eval schema (P.Atom (P.Eq ("nope", V.Int 1))) (row 1 2 3));
       false
     with Not_found -> true)

let test_conj_disj () =
  Alcotest.(check bool) "empty conj is true" true (P.conj [] = P.True)

let test_encode_row_injective () =
  (* Rows differing in content encode differently, including tricky
     prefix-sharing strings. *)
  let a = [| V.String "ab"; V.String "c" |] in
  let b = [| V.String "a"; V.String "bc" |] in
  Alcotest.(check bool) "injective" true (P.encode_row a <> P.encode_row b)

(* --- The record digest --- *)

(* The encoder the hash atoms hashed before it wrote into a reused buffer,
   kept verbatim as the reference for the bytes. *)
let reference_encode_row row =
  let buf = Buffer.create 64 in
  Array.iter
    (fun v ->
      let s = V.to_string v in
      let tag =
        match V.kind_of v with
        | None -> "n"
        | Some k -> String.sub (V.kind_name k) 0 1
      in
      Buffer.add_string buf (Printf.sprintf "%s%d:%s;" tag (String.length s) s))
    row;
  Buffer.contents buf

let date year month day = V.Date { V.year; month; day }

(* Every value kind, with the edge cases of each printer: negative ints
   and [min_int], float specials, dates outside four digits, empty and
   punctuated strings, [Null], and the empty row. Each row's bytes and
   its salted digests are pinned to the values the [Printf] encoder
   gave. *)
let pinned_digests =
  [
    ( [| V.Int 0; V.Int (-17); V.Int min_int; V.Int max_int |],
      "i1:0;i3:-17;i20:-4611686018427387904;i19:4611686018427387903;",
      -8175599367532151297L,
      -8670779490168367888L );
    ( [| V.Float 3.5; V.Float (-0.); V.Float 1e-300; V.Float (1. /. 3.);
         V.Float Float.infinity; V.Float Float.nan |],
      "f3:3.5;f2:-0;f6:1e-300;f14:0.333333333333;f3:inf;f3:nan;",
      -6997933266777316424L,
      -3329844723063055300L );
    ( [| date 2021 6 21; date 7 1 1; date 12345 12 31; date (-3) 2 9 |],
      "d10:2021-06-21;d10:0007-01-01;d11:12345-12-31;d10:-003-02-09;",
      1032180944292737296L,
      -3266290714530583464L );
    ( [| V.String ""; V.String "a;b:c"; V.String "h\195\169llo" |],
      "s0:;s5:a;b:c;s6:h\195\169llo;",
      -7742318595008366317L,
      6875691518134477660L );
    ( [| V.Bool true; V.Bool false; V.Null |],
      "b4:true;b5:false;n0:;",
      3841799891842911562L,
      3125528578645231801L );
    ([||], "", -780787492076525413L, -6875516158864582851L);
    ( [| V.Int 42; V.Float 2.; V.String "x"; date 1999 12 31; V.Bool true; V.Null |],
      "i2:42;f1:2;s1:x;d10:1999-12-31;b4:true;n0:;",
      6690743778480383837L,
      2520203915855069280L );
  ]

let test_digest_pinned () =
  let e = P.encoder () in
  List.iteri
    (fun i (row, bytes, d0, d1) ->
      let name what = Printf.sprintf "row %d %s" i what in
      Alcotest.(check string) (name "bytes") bytes (P.encode_row row);
      Alcotest.(check int64) (name "digest, salt 0") d0
        (Prob.Hashing.hash64 ~salt:0L (P.encode_row row));
      Alcotest.(check int64) (name "digest, salt 0x5EED") d1
        (Prob.Hashing.hash64 ~salt:0x5EEDL (P.encode_row row));
      Alcotest.(check int64) (name "hash_row, salt 0") d0 (P.hash_row e ~salt:0L row);
      Alcotest.(check int64) (name "hash_row, salt 0x5EED") d1
        (P.hash_row e ~salt:0x5EEDL row))
    pinned_digests

(* Four domains evaluate hash atoms over one table at once, each building
   its own digest columns (no cache, so every count rebuilds them): any
   encoder buffer shared between domains would garble a digest. *)
let test_digest_concurrent () =
  let t = Dataset.Model.sample_table (rng ()) model 400 in
  let preds =
    Array.init 48 (fun i ->
        let salt = Int64.of_int (1000 + i) in
        if i mod 4 = 3 then P.Atom (P.Hash_bit { index = i; salt })
        else P.Atom (P.Hash_bucket { buckets = 5; bucket = i mod 5; salt }))
  in
  let cs = Array.map (P.compile schema) preds in
  let serial = Array.map (fun p -> P.count_interpreted schema p t) preds in
  let run k () =
    Array.init (Array.length cs) (fun i ->
        let i = (i + (k * 11)) mod Array.length cs in
        (i, P.count_compiled ~cache:false cs.(i) t))
  in
  let domains = List.init 4 (fun k -> Domain.spawn (run k)) in
  List.iteri
    (fun k d ->
      Array.iter
        (fun (i, c) ->
          Alcotest.(check int) (Printf.sprintf "domain %d, predicate %d" k i) serial.(i) c)
        (Domain.join d))
    domains

(* Words allocated by [f]: minor + major - promoted from [Gc.counters],
   read between two forced minor collections. *)
let words_allocated f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* A count that reads one attribute of a fresh 48-attribute table builds
   that attribute's column only: it allocates a small fraction of what
   building all 48 columns does. *)
let test_one_column_read () =
  let wide = Dataset.Synth.kanon_pso_model ~qis:6 ~retained:42 ~domain:64 in
  let wide_schema = Dataset.Model.schema wide in
  let fresh () = Dataset.Model.sample_table (rng ()) wide 120 in
  let t = fresh () in
  let every_column =
    words_allocated (fun () ->
        for j = 0 to Dataset.Schema.arity wide_schema - 1 do
          ignore (Dataset.Table.column t j)
        done)
  in
  let t = fresh () in
  let p = P.Atom (P.Range ("q0", 0., 32.)) in
  let expected = P.count_interpreted wide_schema p t in
  let got = ref 0 in
  let one_count = words_allocated (fun () -> got := P.count wide_schema p t) in
  Alcotest.(check int) "count" expected !got;
  if one_count *. 8. > every_column then
    Alcotest.failf "one-attribute count allocated %.0f words, all columns %.0f"
      one_count every_column

let test_count_isolates () =
  let t = table [ row 1 0 0; row 1 1 0; row 2 2 2 ] in
  let p = P.Atom (P.Eq ("a0", V.Int 1)) in
  Alcotest.(check int) "count" 2 (P.count schema p t);
  Alcotest.(check bool) "not isolating" false (P.isolates schema p t);
  Alcotest.(check bool) "isolating" true
    (P.isolates schema (P.Atom (P.Eq ("a0", V.Int 2))) t)

(* --- of_grow --- *)

let test_of_grow () =
  let grow =
    [| Dataset.Gvalue.Int_range (0, 3); Dataset.Gvalue.Any; Dataset.Gvalue.Exact (V.Int 7) |]
  in
  let p = P.of_grow schema grow in
  Alcotest.(check bool) "matches" true (P.eval schema p (row 2 5 7));
  Alcotest.(check bool) "range excludes" false (P.eval schema p (row 4 5 7));
  Alcotest.(check bool) "exact excludes" false (P.eval schema p (row 2 5 6))

(* --- weight --- *)

let test_weight_exact_atoms () =
  (match P.weight model (P.Atom (P.Eq ("a0", V.Int 0))) with
  | P.Exact w -> Alcotest.(check (float 1e-9)) "eq weight" 0.125 w
  | _ -> Alcotest.fail "expected exact");
  match P.weight model (P.Atom (P.Range ("a0", 0., 4.))) with
  | P.Exact w -> Alcotest.(check (float 1e-9)) "range weight" 0.5 w
  | _ -> Alcotest.fail "expected exact"

let test_weight_conjunction_multiplies () =
  let p =
    P.And (P.Atom (P.Eq ("a0", V.Int 0)), P.Atom (P.Eq ("a1", V.Int 0)))
  in
  match P.weight model p with
  | P.Exact w -> Alcotest.(check (float 1e-9)) "product" (0.125 *. 0.125) w
  | _ -> Alcotest.fail "expected exact"

let test_weight_same_attr_conjunction () =
  (* Two constraints on one attribute must NOT multiply naively. *)
  let p =
    P.And (P.Atom (P.Range ("a0", 0., 4.)), P.Atom (P.Range ("a0", 2., 8.)))
  in
  match P.weight model p with
  | P.Exact w -> Alcotest.(check (float 1e-9)) "intersection" 0.25 w
  | _ -> Alcotest.fail "expected exact"

let test_weight_negated_atom () =
  match P.weight model (P.Not (P.Atom (P.Eq ("a0", V.Int 0)))) with
  | P.Exact w -> Alcotest.(check (float 1e-9)) "negation" 0.875 w
  | _ -> Alcotest.fail "expected exact"

let test_weight_constants () =
  (match P.weight model P.True with
  | P.Exact w -> Alcotest.(check (float 1e-9)) "true" 1. w
  | _ -> Alcotest.fail "exact");
  (match P.weight model P.False with
  | P.Exact w -> Alcotest.(check (float 1e-9)) "false" 0. w
  | _ -> Alcotest.fail "exact");
  match P.weight model (P.And (P.False, P.Atom (P.Eq ("a0", V.Int 0)))) with
  | P.Exact w -> Alcotest.(check (float 1e-9)) "false conj" 0. w
  | _ -> Alcotest.fail "exact"

let test_weight_hash_salted () =
  (match P.weight model (P.Atom (P.Hash_bucket { buckets = 64; bucket = 3; salt = 5L })) with
  | P.Salted w -> Alcotest.(check (float 1e-9)) "bucket weight" (1. /. 64.) w
  | _ -> Alcotest.fail "expected salted");
  match P.weight model (P.Atom (P.Hash_bit { index = 5; salt = 5L })) with
  | P.Salted w -> Alcotest.(check (float 1e-9)) "bit weight" 0.5 w
  | _ -> Alcotest.fail "expected salted"

let test_weight_disjunction_estimated () =
  let p = P.Or (P.Atom (P.Eq ("a0", V.Int 0)), P.Atom (P.Eq ("a1", V.Int 0))) in
  match P.weight ~rng:(rng ()) ~trials:40_000 model p with
  | P.Estimated { value; trials } ->
    Alcotest.(check int) "trials recorded" 40_000 trials;
    (* Inclusion-exclusion: 1/8 + 1/8 - 1/64 *)
    Alcotest.(check bool) "estimate near truth" true
      (Float.abs (value -. 0.234375) < 0.01)
  | _ -> Alcotest.fail "expected estimated"

let test_weight_estimate_agrees_with_exact () =
  let p = P.Atom (P.Range ("a1", 0., 2.)) in
  let exact = P.weight_value (P.weight model p) in
  (* Force the Monte-Carlo path via double negation (Not of Not isn't a
     conjunction of atoms). *)
  let mc = P.weight ~rng:(rng ()) ~trials:40_000 model (P.Not (P.Not p)) in
  Alcotest.(check bool) "agreement" true
    (Float.abs (P.weight_value mc -. exact) < 0.01)

let test_hash_bucket_empirical_weight () =
  (* The salted analytic value matches the empirical frequency. *)
  let p = P.Atom (P.Hash_bucket { buckets = 16; bucket = 0; salt = 1234L }) in
  let r = rng () in
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if P.eval schema p (Dataset.Model.sample_row r model) then incr hits
  done;
  Alcotest.(check bool) "frequency near 1/16" true
    (Float.abs ((float_of_int !hits /. float_of_int trials) -. (1. /. 16.)) < 0.01)

(* --- mechanisms --- *)

let test_mechanism_exact_count () =
  let t = table [ row 0 0 0; row 0 1 1; row 1 1 1 ] in
  let m = Query.Mechanism.exact_count (P.Atom (P.Eq ("a0", V.Int 0))) in
  match Query.Mechanism.run m (rng ()) t with
  | Query.Mechanism.Scalar v -> Alcotest.(check (float 1e-9)) "count" 2. v
  | _ -> Alcotest.fail "expected scalar"

let test_mechanism_exact_counts () =
  let t = table [ row 0 0 0; row 1 1 1 ] in
  let m =
    Query.Mechanism.exact_counts_batch
      (Query.Mechanism.batch
         [| P.Atom (P.Eq ("a0", V.Int 0)); P.Atom (P.Eq ("a0", V.Int 1)); P.True |])
  in
  match Query.Mechanism.run m (rng ()) t with
  | Query.Mechanism.Vector v ->
    Alcotest.(check (array (float 1e-9))) "counts" [| 1.; 1.; 2. |] v
  | _ -> Alcotest.fail "expected vector"

let test_mechanism_laplace_counts_noisy () =
  let t = table (List.init 50 (fun _ -> row 0 0 0)) in
  let m = Query.Mechanism.laplace_counts ~epsilon:1. [| P.True |] in
  match Query.Mechanism.run m (rng ()) t with
  | Query.Mechanism.Vector v ->
    Alcotest.(check bool) "near 50" true (Float.abs (v.(0) -. 50.) < 30.)
  | _ -> Alcotest.fail "expected vector"

let test_mechanism_compose_post_process () =
  let t = table [ row 0 0 0 ] in
  let m = Query.Mechanism.exact_count P.True in
  let doubled =
    Query.Mechanism.post_process "double"
      (function Query.Mechanism.Scalar v -> Query.Mechanism.Scalar (2. *. v) | o -> o)
      m
  in
  let pair = Query.Mechanism.compose m doubled in
  match Query.Mechanism.run pair (rng ()) t with
  | Query.Mechanism.Pair (Query.Mechanism.Scalar a, Query.Mechanism.Scalar b) ->
    Alcotest.(check (float 1e-9)) "left" 1. a;
    Alcotest.(check (float 1e-9)) "right" 2. b
  | _ -> Alcotest.fail "expected pair of scalars"

let test_mechanism_as_vector () =
  let open Query.Mechanism in
  (match as_vector (Pair (Scalar 1., Vector [| 2.; 3. |])) with
  | Some v -> Alcotest.(check (array (float 1e-9))) "flattened" [| 1.; 2.; 3. |] v
  | None -> Alcotest.fail "expected vector");
  Alcotest.(check bool) "release is not a vector" true
    (as_vector (Release (table [ row 0 0 0 ])) = None)

(* --- oracle --- *)

let test_oracle_exact () =
  let o = Query.Oracle.exact [| 1; 0; 1; 1 |] in
  Alcotest.(check (float 1e-9)) "subset sum" 2. (Query.Oracle.ask o [| 0; 2 |]);
  Alcotest.(check int) "asked" 1 (Query.Oracle.asked o)

let test_oracle_rejects_nonbinary () =
  Alcotest.(check bool) "nonbinary rejected" true
    (try
       ignore (Query.Oracle.exact [| 2 |]);
       false
     with Invalid_argument _ -> true)

let test_oracle_bounded_noise () =
  let o = Query.Oracle.bounded_noise (rng ()) ~magnitude:3. [| 1; 1; 1; 1 |] in
  for _ = 1 to 200 do
    let a = Query.Oracle.ask o [| 0; 1; 2; 3 |] in
    if Float.abs (a -. 4.) > 3. then Alcotest.failf "noise out of bounds: %f" a
  done

let test_oracle_out_of_range () =
  let o = Query.Oracle.exact [| 1; 0 |] in
  Alcotest.(check bool) "index range" true
    (try
       ignore (Query.Oracle.ask o [| 5 |]);
       false
     with Invalid_argument _ -> true)

let test_oracle_true_answer_free () =
  let o = Query.Oracle.exact [| 1; 1 |] in
  ignore (Query.Oracle.true_answer o [| 0; 1 |]);
  Alcotest.(check int) "true_answer not counted" 0 (Query.Oracle.asked o)

(* --- auditor --- *)

let test_auditor_answers_safe_queries () =
  let a = Query.Auditor.create [| 1; 0; 1; 0 |] in
  (match Query.Auditor.ask a [| 0; 1; 2; 3 |] with
  | Query.Auditor.Answered v -> Alcotest.(check (float 1e-9)) "total" 2. v
  | Query.Auditor.Refused -> Alcotest.fail "total should be safe");
  Alcotest.(check int) "answered" 1 (Query.Auditor.answered a)

let test_auditor_refuses_singletons () =
  let a = Query.Auditor.create [| 1; 0; 1 |] in
  (match Query.Auditor.ask a [| 1 |] with
  | Query.Auditor.Refused -> ()
  | Query.Auditor.Answered _ -> Alcotest.fail "singleton must be refused");
  Alcotest.(check int) "refused" 1 (Query.Auditor.refused a)

let test_auditor_refuses_differencing () =
  (* Answer {0,1,2}, then {1,2}: the difference pins down x_0. *)
  let a = Query.Auditor.create [| 1; 0; 1 |] in
  (match Query.Auditor.ask a [| 0; 1; 2 |] with
  | Query.Auditor.Answered _ -> ()
  | Query.Auditor.Refused -> Alcotest.fail "first query is safe");
  match Query.Auditor.ask a [| 1; 2 |] with
  | Query.Auditor.Refused -> ()
  | Query.Auditor.Answered _ -> Alcotest.fail "difference attack must be refused"

let test_auditor_dependent_queries_free () =
  let a = Query.Auditor.create [| 1; 0; 1; 0 |] in
  ignore (Query.Auditor.ask a [| 0; 1 |]);
  ignore (Query.Auditor.ask a [| 2; 3 |]);
  (* The union is dependent: answering it reveals nothing new. *)
  match Query.Auditor.ask a [| 0; 1; 2; 3 |] with
  | Query.Auditor.Answered v -> Alcotest.(check (float 1e-9)) "sum" 2. v
  | Query.Auditor.Refused -> Alcotest.fail "dependent query is safe"

let test_auditor_would_disclose_is_pure () =
  let a = Query.Auditor.create [| 1; 0 |] in
  Alcotest.(check bool) "peek" true (Query.Auditor.would_disclose a [| 0 |]);
  Alcotest.(check int) "no state change" 0
    (Query.Auditor.answered a + Query.Auditor.refused a)

let test_auditor_soundness_random () =
  (* Property: after any sequence of answered queries, no single bit is
     determined — verified by checking that for every i there exist two
     datasets consistent with all answers differing at i. We test the
     contrapositive cheaply: the auditor's own reduced basis never contains
     a unit row, which the public API exposes as would_disclose [] = ... ;
     instead replay: every answered query set on the flipped dataset gives
     the same answers for some flip. Here we check a weaker but concrete
     invariant: singleton probes are always refused after any history. *)
  let r = rng () in
  for _ = 1 to 20 do
    let n = 8 in
    let data = Array.init n (fun _ -> if Prob.Rng.bool r then 1 else 0) in
    let a = Query.Auditor.create data in
    for _ = 1 to 15 do
      let q =
        Array.of_list
          (List.filter (fun _ -> Prob.Rng.bool r) (List.init n Fun.id))
      in
      if Array.length q > 1 then ignore (Query.Auditor.ask a q)
    done;
    for i = 0 to n - 1 do
      match Query.Auditor.ask a [| i |] with
      | Query.Auditor.Refused -> ()
      | Query.Auditor.Answered _ ->
        Alcotest.fail "a singleton slipped through the audit"
    done
  done

(* A pinned instance where the heuristic detectors miss an integrality
   disclosure (unique 0/1 point on a fractional solution line). Exact mode
   must refuse before the system pins down; heuristic mode answers all
   seven — the documented limitation. *)
let pinned_data = [| 1; 1; 1; 1; 1; 0; 0; 1 |]

let pinned_queries =
  [
    [| 1; 2; 4; 5 |];
    [| 1; 3; 4; 5; 7 |];
    [| 1; 3; 4; 6; 7 |];
    [| 4; 5 |];
    [| 1; 5; 7 |];
    [| 0; 2; 4; 5; 7 |];
    [| 1; 2; 3; 4; 5; 6; 7 |];
  ]

let test_auditor_heuristic_known_limitation () =
  let a = Query.Auditor.create ~mode:Query.Auditor.Heuristic pinned_data in
  List.iter (fun q -> ignore (Query.Auditor.ask a q)) pinned_queries;
  (* All seven answered: the heuristic missed the (real) disclosure. *)
  Alcotest.(check int) "heuristic answers all" 7 (Query.Auditor.answered a)

let test_auditor_exact_catches_pinned_instance () =
  let a = Query.Auditor.create ~mode:Query.Auditor.Exact pinned_data in
  List.iter (fun q -> ignore (Query.Auditor.ask a q)) pinned_queries;
  Alcotest.(check bool) "exact mode refuses at least one" true
    (Query.Auditor.refused a > 0)

let test_auditor_exact_rejects_large_n () =
  Alcotest.(check bool) "n cap" true
    (try
       ignore (Query.Auditor.create ~mode:Query.Auditor.Exact (Array.make 30 0));
       false
     with Invalid_argument _ -> true)

let test_auditor_default_mode () =
  Alcotest.(check bool) "small n exact" true
    (Query.Auditor.mode (Query.Auditor.create (Array.make 10 0)) = Query.Auditor.Exact);
  Alcotest.(check bool) "large n heuristic" true
    (Query.Auditor.mode (Query.Auditor.create (Array.make 50 0))
    = Query.Auditor.Heuristic)

let test_auditor_sound_against_brute_force () =
  (* Ground truth by enumeration: after any audited session over n=8 bits,
     every individual bit must still be ambiguous — some dataset consistent
     with all answered queries has bit i = 0 and another has bit i = 1. *)
  let r = rng () in
  let n = 8 in
  for _ = 1 to 10 do
    let data = Array.init n (fun _ -> if Prob.Rng.bool r then 1 else 0) in
    let a = Query.Auditor.create data in
    let answered = ref [] in
    for _ = 1 to 12 do
      let q =
        Array.of_list
          (List.filter (fun _ -> Prob.Rng.bool r) (List.init n Fun.id))
      in
      if Array.length q > 0 then
        match Query.Auditor.ask a q with
        | Query.Auditor.Answered v -> answered := (q, int_of_float v) :: !answered
        | Query.Auditor.Refused -> ()
    done;
    (* Enumerate all candidate datasets consistent with the answers. *)
    let consistent = ref [] in
    for mask = 0 to (1 lsl n) - 1 do
      let ok =
        List.for_all
          (fun (q, v) ->
            Array.fold_left (fun acc i -> acc + ((mask lsr i) land 1)) 0 q = v)
          !answered
      in
      if ok then consistent := mask :: !consistent
    done;
    for i = 0 to n - 1 do
      let zeros = List.exists (fun m -> (m lsr i) land 1 = 0) !consistent in
      let ones = List.exists (fun m -> (m lsr i) land 1 = 1) !consistent in
      if not (zeros && ones) then
        Alcotest.failf "bit %d exactly determined after audited session" i
    done
  done

let test_auditor_does_not_stop_reconstruction () =
  (* The documented limitation: exact-disclosure auditing does not prevent
     approximate reconstruction. Feed the answered queries to the
     least-squares attack. *)
  let r = rng () in
  let n = 24 in
  let data = Array.init n (fun _ -> if Prob.Rng.bool r then 1 else 0) in
  let a = Query.Auditor.create data in
  let rows = ref [] and answers = ref [] in
  let attempts = 12 * n in
  for _ = 1 to attempts do
    let q =
      Array.of_list (List.filter (fun _ -> Prob.Rng.bool r) (List.init n Fun.id))
    in
    if Array.length q > 0 then
      match Query.Auditor.ask a q with
      | Query.Auditor.Answered v ->
        let row = Array.make n 0. in
        Array.iter (fun i -> row.(i) <- 1.) q;
        rows := row :: !rows;
        answers := v :: !answers
      | Query.Auditor.Refused -> ()
  done;
  let m = Linalg.Matrix.of_rows (Array.of_list !rows) in
  let b = Array.of_list !answers in
  let z = Linalg.Lsq.solve_box m b ~lo:0. ~hi:1. in
  let est = Array.map (fun v -> if v >= 0.5 then 1 else 0) z in
  let agreement = Attacks.Reconstruction.agreement est data in
  Alcotest.(check bool)
    (Printf.sprintf "audited oracle still reconstructable (%.2f)" agreement)
    true (agreement >= 0.9)

(* --- curator --- *)

let curator_table n =
  let schema =
    Dataset.Schema.make
      [
        { Dataset.Schema.name = "trait"; kind = Dataset.Value.Kint; role = Dataset.Schema.Sensitive };
        { Dataset.Schema.name = "grp"; kind = Dataset.Value.Kint; role = Dataset.Schema.Quasi_identifier };
      ]
  in
  Dataset.Table.make schema
    (Array.init n (fun i -> [| Dataset.Value.Int (i mod 2); Dataset.Value.Int (i mod 4) |]))

let test_curator_exact () =
  let c = Query.Curator.create ~policy:Query.Curator.Exact ~target:"trait" (curator_table 10) in
  (match Query.Curator.ask c Query.Predicate.True with
  | Query.Curator.Answer v -> Alcotest.(check (float 1e-9)) "total trait count" 5. v
  | Query.Curator.Refusal r -> Alcotest.failf "refused: %s" r);
  match Query.Curator.ask c (Query.Predicate.Atom (Query.Predicate.Eq ("grp", Dataset.Value.Int 1))) with
  | Query.Curator.Answer v -> Alcotest.(check (float 1e-9)) "subpopulation" 3. v
  | Query.Curator.Refusal r -> Alcotest.failf "refused: %s" r

let test_curator_limited () =
  let c = Query.Curator.create ~policy:(Query.Curator.Limited 2) ~target:"trait" (curator_table 10) in
  ignore (Query.Curator.ask_subset c [| 0; 1 |]);
  ignore (Query.Curator.ask_subset c [| 2; 3 |]);
  (match Query.Curator.ask_subset c [| 4 |] with
  | Query.Curator.Refusal _ -> ()
  | Query.Curator.Answer _ -> Alcotest.fail "limit not enforced");
  Alcotest.(check int) "answered" 2 (Query.Curator.answered c);
  Alcotest.(check int) "refused" 1 (Query.Curator.refused c)

let test_curator_audited () =
  let c = Query.Curator.create ~policy:Query.Curator.Audited ~target:"trait" (curator_table 10) in
  (match Query.Curator.ask_subset c [| 0 |] with
  | Query.Curator.Refusal _ -> ()
  | Query.Curator.Answer _ -> Alcotest.fail "singleton answered under audit");
  match Query.Curator.ask_subset c [| 0; 1; 2 |] with
  | Query.Curator.Answer _ -> ()
  | Query.Curator.Refusal r -> Alcotest.failf "safe query refused: %s" r

let test_curator_noisy_budget () =
  let c =
    Query.Curator.create ~rng:(rng ())
      ~policy:(Query.Curator.Noisy { per_query_epsilon = 0.5; total_epsilon = 1. })
      ~target:"trait" (curator_table 10)
  in
  ignore (Query.Curator.ask_subset c [| 0; 1 |]);
  ignore (Query.Curator.ask_subset c [| 0; 1 |]);
  Alcotest.(check (float 1e-9)) "spent" 1. (Query.Curator.spent_epsilon c);
  Alcotest.(check (option (float 1e-9))) "remaining" (Some 0.)
    (Query.Curator.remaining_epsilon c);
  match Query.Curator.ask_subset c [| 0 |] with
  | Query.Curator.Refusal _ -> ()
  | Query.Curator.Answer _ -> Alcotest.fail "budget not enforced"

let test_curator_noisy_answers_are_noisy () =
  let c =
    Query.Curator.create ~rng:(rng ())
      ~policy:(Query.Curator.Noisy { per_query_epsilon = 1.; total_epsilon = 1000. })
      ~target:"trait" (curator_table 100)
  in
  let different = ref false in
  let first =
    match Query.Curator.ask c Query.Predicate.True with
    | Query.Curator.Answer v -> v
    | Query.Curator.Refusal _ -> Alcotest.fail "refused"
  in
  for _ = 1 to 10 do
    match Query.Curator.ask c Query.Predicate.True with
    | Query.Curator.Answer v -> if v <> first then different := true
    | Query.Curator.Refusal _ -> Alcotest.fail "refused within budget"
  done;
  Alcotest.(check bool) "noise varies" true !different

let test_curator_rejects_non_binary_target () =
  Alcotest.(check bool) "non-binary target rejected" true
    (try
       ignore
         (Query.Curator.create ~policy:Query.Curator.Exact ~target:"grp"
            (curator_table 10));
       false
     with Invalid_argument _ -> true)

(* --- erasure --- *)

let erasure_table () =
  (* Row 0 is unique on a0; rows 1 and 2 collide. *)
  Dataset.Table.make schema
    [| row 7 1 1; row 2 2 2; row 2 2 2 |]

let test_erasure_recompute_forgets () =
  let s = Query.Erasure.create Query.Erasure.Recompute (erasure_table ()) in
  let p = P.Atom (P.Eq ("a0", V.Int 7)) in
  Alcotest.(check int) "before" 1 (Query.Erasure.count s p);
  Query.Erasure.erase s 0;
  Alcotest.(check int) "after" 0 (Query.Erasure.count s p);
  Alcotest.(check int) "live records" 2 (Query.Erasure.live_records s);
  Alcotest.(check bool) "verified" true (Query.Erasure.verify_erasure s 0)

let test_erasure_cached_retains () =
  let s = Query.Erasure.create Query.Erasure.Cached (erasure_table ()) in
  Query.Erasure.erase s 0;
  let p = P.Atom (P.Eq ("a0", V.Int 7)) in
  Alcotest.(check int) "stale answer still counts the erased record" 1
    (Query.Erasure.count s p);
  Alcotest.(check bool) "verification fails" false (Query.Erasure.verify_erasure s 0)

let test_erasure_cached_fails_even_with_twin () =
  (* Even a record with a surviving identical twin is detected: the stale
     count (2) disagrees with the count over remaining records (1). *)
  let s = Query.Erasure.create Query.Erasure.Cached (erasure_table ()) in
  Query.Erasure.erase s 1;
  Alcotest.(check bool) "stale count betrays retention" false
    (Query.Erasure.verify_erasure s 1)

let test_erasure_idempotent_and_validated () =
  let s = Query.Erasure.create Query.Erasure.Recompute (erasure_table ()) in
  Query.Erasure.erase s 0;
  Query.Erasure.erase s 0;
  Alcotest.(check int) "idempotent" 2 (Query.Erasure.live_records s);
  Alcotest.(check bool) "out of range" true
    (try
       Query.Erasure.erase s 9;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "verify requires erased" true
    (try
       ignore (Query.Erasure.verify_erasure s 1);
       false
     with Invalid_argument _ -> true)

(* --- bitset --- *)

module B = Query.Bitset

let test_bitset_word_boundaries () =
  (* 63 bits per word: straddle every boundary shape. *)
  List.iter
    (fun n ->
      let even = B.init n (fun i -> i mod 2 = 0) in
      Alcotest.(check int) (Printf.sprintf "ones count n=%d" n) n (B.count (B.ones n));
      Alcotest.(check int) (Printf.sprintf "zeros count n=%d" n) 0 (B.count (B.create n));
      Alcotest.(check int) (Printf.sprintf "even count n=%d" n) ((n + 1) / 2) (B.count even);
      Alcotest.(check bool) (Printf.sprintf "get round-trip n=%d" n) true
        (List.for_all (fun i -> B.get even i = (i mod 2 = 0)) (List.init n Fun.id));
      Alcotest.(check bool) (Printf.sprintf "indices n=%d" n) true
        (Array.to_list (B.indices even)
        = List.filter (fun i -> i mod 2 = 0) (List.init n Fun.id)))
    [ 0; 1; 62; 63; 64; 65; 126; 127 ]

let test_bitset_validation () =
  Alcotest.(check bool) "negative length" true
    (try ignore (B.create (-1)); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "get out of range" true
    (try ignore (B.get (B.create 5) 5); false with Invalid_argument _ -> true);
  Alcotest.(check int) "popcount16 all ones" 16 (B.popcount16 0xffff)

(* --- engines --- *)

let engine_preds =
  [
    P.Atom (P.Eq ("a0", V.Int 1));
    P.Atom (P.Eq ("a0", V.Int 9));  (* absent from the dictionary *)
    P.Atom (P.Member ("a1", [ V.Int 0; V.Int 2; V.Int 9 ]));
    P.Atom (P.Range ("a2", 0., 3.));
    P.Atom (P.Fits ("a1", Dataset.Gvalue.Int_range (0, 2)));
    P.Atom (P.Hash_bucket { buckets = 3; bucket = 1; salt = 99L });
    P.Atom (P.Hash_bit { index = 7; salt = 42L });
    P.And (P.Atom (P.Eq ("a0", V.Int 1)), P.Not (P.Atom (P.Eq ("a1", V.Int 1))));
    P.Or (P.False, P.Not P.True);
    P.True;
    P.False;
  ]

let test_engines_agree_on_fixtures () =
  let t = table [ row 1 0 0; row 1 1 0; row 2 2 2; row 3 1 7 ] in
  List.iter
    (fun p ->
      let interp = P.count_interpreted schema p t in
      let c = P.compile schema p in
      Alcotest.(check int) (P.to_string p) interp (P.count_compiled c t);
      Alcotest.(check int) (P.to_string p ^ " uncached") interp
        (P.count_compiled ~cache:false c t);
      Alcotest.(check int) (P.to_string p ^ " bits") interp
        (Array.length (B.indices (P.bits c t)));
      Alcotest.(check int) (P.to_string p ^ " count") interp (P.count schema p t);
      Alcotest.(check bool) (P.to_string p ^ " isolates") (interp = 1)
        (P.isolates schema p t))
    engine_preds

let test_engines_agree_on_nulls () =
  (* Null is a dictionary value like any other: Eq/Member match it under
     Value.equal on both paths; Range sees no numeric view and rejects. *)
  let t = Dataset.Table.make schema [| [| V.Null; V.Int 1; V.Int 2 |]; row 1 1 1 |] in
  List.iter
    (fun p ->
      let interp = P.count_interpreted schema p t in
      Alcotest.(check int) (P.to_string p) interp
        (P.count_compiled (P.compile schema p) t))
    [
      P.Atom (P.Eq ("a0", V.Null));
      P.Atom (P.Range ("a0", 0., 10.));
      P.Atom (P.Member ("a0", [ V.Null; V.Int 1 ]));
    ]

let test_compile_unknown_attr_raises () =
  Alcotest.(check bool) "compile raises eagerly" true
    (try
       ignore (P.compile schema (P.Or (P.True, P.Atom (P.Eq ("nope", V.Int 1)))));
       false
     with Not_found -> true)

let test_engine_cache_invalidation () =
  (* A table derived from another gets a fresh generation id, so a
     bitset cached for the parent can never be served for the child. *)
  let t = table [ row 1 0 0; row 1 1 0; row 2 2 2 ] in
  let p = P.Atom (P.Eq ("a0", V.Int 1)) in
  let c = P.compile schema p in
  Alcotest.(check int) "parent" 2 (P.count_compiled c t);
  let t' = Dataset.Table.filter (fun r -> r.(0) = V.Int 1) t in
  Alcotest.(check bool) "fresh id" true (Dataset.Table.id t' <> Dataset.Table.id t);
  Alcotest.(check int) "derived (all match)" 2 (P.count_compiled c t');
  let t'' = Dataset.Table.select t [| 2 |] in
  Alcotest.(check int) "selected (none match)" 0 (P.count_compiled c t'');
  Alcotest.(check int) "parent again after interleaving" 2 (P.count_compiled c t)

(* The rows [p] holds on, by the reference interpreter. *)
let interpreted_rows t p =
  let acc = ref [] in
  Dataset.Table.iter
    (fun i r -> if P.eval (Dataset.Table.schema t) p r then acc := i :: !acc)
    t;
  Array.of_list (List.rev !acc)

let test_checked_engine_full_stack () =
  (* The mechanism, curator and erasure fixtures' predicate queries, each
     answered through the compiled evaluator and compared with the
     reference interpreter on the same table. *)
  let t = table [ row 0 0 0; row 1 1 1 ] in
  let qs = [| P.Atom (P.Eq ("a0", V.Int 0)); P.Atom (P.Eq ("a0", V.Int 1)); P.True |] in
  let interp = Array.map (fun q -> float_of_int (P.count_interpreted schema q t)) qs in
  (match
     Query.Mechanism.run
       (Query.Mechanism.exact_counts_batch (Query.Mechanism.batch qs))
       (rng ()) t
   with
  | Query.Mechanism.Vector v -> Alcotest.(check (array (float 0.))) "mechanism counts" interp v
  | _ -> Alcotest.fail "expected vector");
  Array.iteri
    (fun i q ->
      match Query.Mechanism.run (Query.Mechanism.exact_count q) (rng ()) t with
      | Query.Mechanism.Scalar v ->
        Alcotest.(check (float 0.)) ("mechanism count " ^ P.to_string q) interp.(i) v
      | _ -> Alcotest.fail "expected scalar")
    qs;
  let ct = curator_table 10 in
  let exact () = Query.Curator.create ~policy:Query.Curator.Exact ~target:"trait" ct in
  let c = exact () and reference = exact () in
  List.iter
    (fun p ->
      Alcotest.(check bool) ("curator " ^ P.to_string p) true
        (Query.Curator.ask c p
        = Query.Curator.ask_subset reference (interpreted_rows ct p)))
    [ P.True; P.Atom (P.Eq ("grp", V.Int 1)); P.Atom (P.Member ("grp", [ V.Int 0; V.Int 3 ])) ];
  List.iter
    (fun implementation ->
      let et = erasure_table () in
      let s = Query.Erasure.create implementation et in
      Query.Erasure.erase s 0;
      List.iter
        (fun p ->
          let all = interpreted_rows et p in
          let live = Array.of_list (List.filter (( <> ) 0) (Array.to_list all)) in
          let expected =
            match implementation with
            | Query.Erasure.Recompute -> Array.length live
            | Query.Erasure.Cached -> Array.length all
          in
          Alcotest.(check int) ("erasure " ^ P.to_string p) expected
            (Query.Erasure.count s p))
        [ P.Atom (P.Eq ("a0", V.Int 7)); P.Atom (P.Eq ("a0", V.Int 2)); P.True ])
    [ Query.Erasure.Recompute; Query.Erasure.Cached ]

(* --- batched evaluation --- *)

(* Telemetry on for one test, off again after (suite independence). *)
let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable f

let batch_table = lazy (Dataset.Model.sample_table (rng ()) model 500)

(* A batch with duplicate predicates and heavily shared atoms: slots 0/3
   and 1/4 are equal predicates (program dedup must fan one answer out),
   and the same Eq atoms recur across different connective shapes (atom
   dedup must build each bitset once). *)
let batch_preds =
  let a0 = P.Atom (P.Eq ("a0", V.Int 1)) in
  let a1 = P.Atom (P.Eq ("a1", V.Int 2)) in
  let r = P.Atom (P.Range ("a2", 0., 4.)) in
  [| a0; P.And (a0, a1); P.Or (P.Not a0, r); a0; P.And (a0, a1);
     P.And (P.Or (a0, a1), P.Not r); P.True; P.False |]

let test_count_many_matches_loop () =
  let t = Lazy.force batch_table in
  let cs = Array.map (fun p -> P.compile schema p) batch_preds in
  let expected = Array.map (fun c -> P.count_compiled c t) cs in
  Alcotest.(check (array int)) "count_many" expected (P.count_many t cs);
  Alcotest.(check (array int)) "count_many uncached" expected
    (P.count_many ~cache:false t cs);
  Alcotest.(check (array bool)) "isolates_many"
    (Array.map (fun n -> n = 1) expected)
    (P.isolates_many t cs);
  Alcotest.(check (array int)) "bits_many counts" expected
    (Array.map B.count (P.bits_many t cs));
  Alcotest.(check (array int)) "empty batch" [||] (P.count_many t [||])

let test_engine_counts_dispatch () =
  let t = Lazy.force batch_table in
  let expected =
    Array.map (fun p -> P.count_interpreted schema p t) batch_preds
  in
  Alcotest.(check (array int)) "counts" expected (Query.Engine.counts t batch_preds);
  (* Reusing a caller-held compilation must not change answers. *)
  let cs = Array.map (fun p -> P.compile schema p) batch_preds in
  Alcotest.(check (array int)) "counts with ?compiled" expected
    (Query.Engine.counts ~compiled:cs t batch_preds)

let test_engine_counts_pool_deterministic () =
  (* Above the chunking threshold, answers must be identical with and
     without a pool, at several pool sizes. *)
  let t = Lazy.force batch_table in
  let qs =
    Array.init 300 (fun i ->
        let base = batch_preds.(i mod Array.length batch_preds) in
        if i mod 2 = 0 then base
        else P.And (base, P.Atom (P.Range ("a1", 0., float_of_int (i mod 8)))))
  in
  let sequential = Query.Engine.counts t qs in
  List.iter
    (fun jobs ->
      let pool = Parallel.Pool.create ~jobs () in
      Fun.protect
        ~finally:(fun () -> Parallel.Pool.shutdown pool)
        (fun () ->
          Alcotest.(check (array int))
            (Printf.sprintf "counts at jobs=%d" jobs)
            sequential
            (Query.Engine.counts ~pool t qs)))
    [ 1; 2; 4 ]

let test_mechanism_batch () =
  let t = Lazy.force batch_table in
  let b = Query.Mechanism.batch batch_preds in
  let batched = Query.Mechanism.exact_counts_batch b in
  Alcotest.(check bool) "exact outputs match the interpreter" true
    (Query.Mechanism.run batched (rng ()) t
    = Query.Mechanism.Vector
        (Array.map
           (fun p -> float_of_int (P.count_interpreted schema p t))
           batch_preds));
  (* Reusing one batch across runs (the composition game's pattern) must
     keep returning the same answers. *)
  Alcotest.(check bool) "batch reuse stable" true
    (Query.Mechanism.run batched (rng ()) t
    = Query.Mechanism.run batched (rng ()) t);
  let nl = Query.Mechanism.laplace_counts ~epsilon:1. batch_preds in
  let nb = Query.Mechanism.laplace_counts_batch ~epsilon:1. b in
  Alcotest.(check string) "laplace name preserved"
    nl.Query.Mechanism.name nb.Query.Mechanism.name;
  Alcotest.(check bool) "laplace outputs equal at fixed seed" true
    (Query.Mechanism.run nl (rng ()) t = Query.Mechanism.run nb (rng ()) t)

let test_curator_ask_many () =
  let t = curator_table 40 in
  let ps =
    [|
      P.True;
      P.Atom (P.Eq ("grp", V.Int 1));
      P.Atom (P.Range ("grp", 0., 2.));
      P.True;
    |]
  in
  let render = function
    | Query.Curator.Answer x -> Printf.sprintf "Answer %g" x
    | Query.Curator.Refusal r -> "Refusal " ^ r
  in
  let make () =
    Query.Curator.create ~policy:Query.Curator.Exact ~target:"trait" t
  in
  let many = Query.Curator.ask_many (make ()) ps in
  let loop =
    let c = make () in
    Array.map (fun p -> Query.Curator.ask c p) ps
  in
  Alcotest.(check (array string)) "ask_many = per-query ask"
    (Array.map render loop) (Array.map render many);
  (* Budget accounting matches: each batched query spends like an ask. *)
  let c = make () in
  ignore (Query.Curator.ask_many c ps);
  Alcotest.(check int) "answered" (Array.length ps) (Query.Curator.answered c)

let test_oracle_ask_many () =
  let data = Array.init 20 (fun i -> i mod 2) in
  let subsets = Array.init 6 (fun i -> Array.init (i + 2) (fun j -> j)) in
  let o1 = Query.Oracle.exact data in
  let many = Query.Oracle.ask_many o1 subsets in
  let o2 = Query.Oracle.exact data in
  let loop = Array.map (fun s -> Query.Oracle.ask o2 s) subsets in
  Alcotest.(check (array (float 0.))) "exact ask_many = loop" loop many;
  Alcotest.(check int) "asked counts batch" (Array.length subsets)
    (Query.Oracle.asked o1);
  (* A noisy oracle consumes its RNG in slot order, so a fixed seed gives
     identical answers batched and looped. *)
  let noisy seed = Query.Oracle.laplace
      (Prob.Rng.create ~seed ()) ~scale:2. data
  in
  Alcotest.(check (array (float 0.))) "laplace ask_many = loop"
    (let o = noisy 5L in Array.map (fun s -> Query.Oracle.ask o s) subsets)
    (Query.Oracle.ask_many (noisy 5L) subsets)

let test_batch_counters () =
  (* The dedup machinery must prove itself in telemetry: a batch with
     repeated atoms reports dedup hits, and a batch sized within the atom
     cache bound never rejects a bitset. *)
  with_obs (fun () ->
      let t = Lazy.force batch_table in
      let cs = Array.map (fun p -> P.compile schema p) batch_preds in
      ignore (P.count_many t cs);
      ignore (P.count_many t cs);
      let counters =
        List.filter_map
          (fun ((m : Obs.Metric.meta), v) ->
            if m.Obs.Metric.timing then None else Some (m.Obs.Metric.name, v))
          (Obs.Metric.values ()).Obs.Metric.v_counters
      in
      let value name = Option.value ~default:0 (List.assoc_opt name counters) in
      Alcotest.(check int) "batch_evals counts both batches"
        (2 * Array.length cs)
        (value "query.batch_evals");
      Alcotest.(check bool) "atom dedup hits recorded" true
        (value "query.batch_atom_dedup_hits" > 0);
      Alcotest.(check int) "no cache rejections" 0
        (value "query.bitset_cache_rejected"))

let test_mechanism_concurrent_first_run () =
  (* With telemetry on, a mechanism's first runs compute its ledger
     digest; Pso.Game makes those runs from several pool domains at once.
     A long query list widens the window in which they overlap. *)
  let t = Dataset.Model.sample_table (rng ()) model 20 in
  let qs =
    Array.init 4000 (fun i ->
        P.And
          ( P.Atom (P.Eq ("a0", V.Int (i mod 8))),
            P.Atom (P.Range ("a1", 0., float_of_int i)) ))
  in
  let pool = Parallel.Pool.create ~jobs:4 () in
  with_obs (fun () ->
      Fun.protect
        ~finally:(fun () -> Parallel.Pool.shutdown pool)
        (fun () ->
          for round = 1 to 5 do
            let m = Query.Mechanism.exact_counts_batch (Query.Mechanism.batch qs) in
            let outs =
              Parallel.Pool.parallel_init_array pool 8 (fun _ ->
                  Query.Mechanism.run m (rng ()) t)
            in
            Alcotest.(check bool)
              (Printf.sprintf "round %d: every run agrees" round)
              true
              (Array.for_all (fun o -> o = outs.(0)) outs)
          done))

(* --- QCheck properties --- *)

let qcheck =
  let open QCheck in
  let atom_gen =
    Gen.oneof
      [
        Gen.map (fun i -> P.Atom (P.Eq ("a0", V.Int (i mod 8)))) Gen.small_nat;
        Gen.map (fun i -> P.Atom (P.Range ("a1", 0., float_of_int (i mod 9)))) Gen.small_nat;
        Gen.return P.True;
        Gen.return P.False;
      ]
  in
  let pred_gen =
    Gen.sized (fun size ->
        let rec go size =
          if size <= 1 then atom_gen
          else
            Gen.oneof
              [
                atom_gen;
                Gen.map2 (fun a b -> P.And (a, b)) (go (size / 2)) (go (size / 2));
                Gen.map2 (fun a b -> P.Or (a, b)) (go (size / 2)) (go (size / 2));
                Gen.map (fun a -> P.Not a) (go (size - 1));
              ]
        in
        go (min size 8))
  in
  let pred = make ~print:P.to_string pred_gen in
  let value_gen =
    Gen.oneof
      [
        Gen.map (fun i -> V.Int i) Gen.int;
        Gen.oneofl [ V.Int min_int; V.Int max_int; V.Int 0; V.Int (-1); V.Null ];
        (* Either side of the one-digit header width: 9, 10 and 19
           digits, either sign ([-] makes the width 10, 11 and 20). *)
        Gen.map3
          (fun digits neg r ->
            let lo = int_of_float (10. ** float_of_int (digits - 1)) in
            let hi = if digits >= 19 then max_int else (10 * lo) - 1 in
            let x = lo + ((r land max_int) mod (hi - lo + 1)) in
            V.Int (if neg then -x else x))
          (Gen.oneofl [ 9; 10; 19 ]) Gen.bool Gen.int;
        Gen.map (fun f -> V.Float f) Gen.float;
        Gen.map (fun s -> V.String s) Gen.string;
        Gen.map (fun s -> V.String s) (Gen.string_size (Gen.int_range 200 1200));
        Gen.map3 date (Gen.int_range (-20000) 20000) (Gen.int_range (-120) 120)
          (Gen.int_range (-120) 120);
        Gen.map (fun b -> V.Bool b) Gen.bool;
      ]
  in
  let record =
    make ~print:reference_encode_row Gen.(array_size (int_range 0 10) value_gen)
  in
  (* One encoder across every case, so its reuse and growth are exercised. *)
  let e = P.encoder () in
  [
    Test.make ~name:"encode_row matches the Printf reference" ~count:500 record
      (fun row ->
        let bytes = reference_encode_row row in
        P.encode_row row = bytes
        && P.hash_row e ~salt:0x5EEDL row = Prob.Hashing.hash64 ~salt:0x5EEDL bytes);
    Test.make ~name:"negation flips evaluation" ~count:300 pred (fun p ->
        let r = Dataset.Model.sample_row (rng ()) model in
        P.eval schema (P.Not p) r = not (P.eval schema p r));
    Test.make ~name:"weight is a probability" ~count:200 pred (fun p ->
        let w = P.weight_value (P.weight ~rng:(rng ()) ~trials:500 model p) in
        0. <= w && w <= 1.);
    Test.make ~name:"analytic weight agrees with Monte-Carlo on conjunctions"
      ~count:60
      (list_of_size Gen.(1 -- 4)
         (pair (int_range 0 2) (pair (int_range 0 7) (int_range 1 8))))
      (fun atoms ->
        (* Random conjunction of per-attribute constraints; the analytic
           engine must match a large-sample Monte-Carlo estimate. *)
        let conj =
          P.conj
            (List.map
               (fun (attr, (lo, width)) ->
                 P.Atom
                   (P.Range
                      ( Printf.sprintf "a%d" attr,
                        float_of_int lo,
                        float_of_int (lo + width) )))
               atoms)
        in
        match P.weight model conj with
        | P.Exact w ->
          let r = rng () in
          let hits = ref 0 in
          let trials = 20_000 in
          for _ = 1 to trials do
            if P.eval schema conj (Dataset.Model.sample_row r model) then incr hits
          done;
          Float.abs (w -. (float_of_int !hits /. float_of_int trials)) < 0.02
        | _ -> false);
    Test.make ~name:"count <= nrows and isolation iff count=1" ~count:100 pred
      (fun p ->
        let t = Dataset.Model.sample_table (rng ()) model 30 in
        let c = P.count schema p t in
        0 <= c && c <= 30 && P.isolates schema p t = (c = 1));
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "query"
    [
      ( "predicate",
        [
          Alcotest.test_case "atoms" `Quick test_eval_atoms;
          Alcotest.test_case "connectives" `Quick test_eval_connectives;
          Alcotest.test_case "unknown attribute" `Quick test_eval_unknown_attr;
          Alcotest.test_case "conj/disj" `Quick test_conj_disj;
          Alcotest.test_case "encode_row injective" `Quick test_encode_row_injective;
          Alcotest.test_case "count/isolates" `Quick test_count_isolates;
          Alcotest.test_case "of_grow" `Quick test_of_grow;
        ] );
      ( "digest",
        [
          Alcotest.test_case "bytes and digests pinned" `Quick test_digest_pinned;
          Alcotest.test_case "four domains agree" `Quick test_digest_concurrent;
          Alcotest.test_case "one column read" `Quick test_one_column_read;
        ] );
      ( "weight",
        [
          Alcotest.test_case "exact atoms" `Quick test_weight_exact_atoms;
          Alcotest.test_case "conjunction multiplies" `Quick
            test_weight_conjunction_multiplies;
          Alcotest.test_case "same-attribute conjunction" `Quick
            test_weight_same_attr_conjunction;
          Alcotest.test_case "negated atom" `Quick test_weight_negated_atom;
          Alcotest.test_case "constants" `Quick test_weight_constants;
          Alcotest.test_case "hash salted" `Quick test_weight_hash_salted;
          Alcotest.test_case "disjunction estimated" `Slow
            test_weight_disjunction_estimated;
          Alcotest.test_case "estimate agrees with exact" `Slow
            test_weight_estimate_agrees_with_exact;
          Alcotest.test_case "hash bucket empirical" `Slow
            test_hash_bucket_empirical_weight;
        ] );
      ( "mechanism",
        [
          Alcotest.test_case "exact count" `Quick test_mechanism_exact_count;
          Alcotest.test_case "exact counts" `Quick test_mechanism_exact_counts;
          Alcotest.test_case "laplace counts" `Quick test_mechanism_laplace_counts_noisy;
          Alcotest.test_case "compose/post-process" `Quick
            test_mechanism_compose_post_process;
          Alcotest.test_case "as_vector" `Quick test_mechanism_as_vector;
        ] );
      ( "auditor",
        [
          Alcotest.test_case "answers safe queries" `Quick
            test_auditor_answers_safe_queries;
          Alcotest.test_case "refuses singletons" `Quick test_auditor_refuses_singletons;
          Alcotest.test_case "refuses differencing" `Quick
            test_auditor_refuses_differencing;
          Alcotest.test_case "dependent queries free" `Quick
            test_auditor_dependent_queries_free;
          Alcotest.test_case "would_disclose is pure" `Quick
            test_auditor_would_disclose_is_pure;
          Alcotest.test_case "singletons always refused" `Quick
            test_auditor_soundness_random;
          Alcotest.test_case "sound against brute force" `Quick
            test_auditor_sound_against_brute_force;
          Alcotest.test_case "heuristic known limitation" `Quick
            test_auditor_heuristic_known_limitation;
          Alcotest.test_case "exact catches pinned instance" `Quick
            test_auditor_exact_catches_pinned_instance;
          Alcotest.test_case "exact rejects large n" `Quick
            test_auditor_exact_rejects_large_n;
          Alcotest.test_case "default mode" `Quick test_auditor_default_mode;
          Alcotest.test_case "does not stop reconstruction" `Quick
            test_auditor_does_not_stop_reconstruction;
        ] );
      ( "erasure",
        [
          Alcotest.test_case "recompute forgets" `Quick test_erasure_recompute_forgets;
          Alcotest.test_case "cached retains" `Quick test_erasure_cached_retains;
          Alcotest.test_case "cached fails even with twin" `Quick
            test_erasure_cached_fails_even_with_twin;
          Alcotest.test_case "idempotent and validated" `Quick
            test_erasure_idempotent_and_validated;
        ] );
      ( "curator",
        [
          Alcotest.test_case "exact" `Quick test_curator_exact;
          Alcotest.test_case "limited" `Quick test_curator_limited;
          Alcotest.test_case "audited" `Quick test_curator_audited;
          Alcotest.test_case "noisy budget" `Quick test_curator_noisy_budget;
          Alcotest.test_case "noisy answers vary" `Quick
            test_curator_noisy_answers_are_noisy;
          Alcotest.test_case "rejects non-binary target" `Quick
            test_curator_rejects_non_binary_target;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "exact" `Quick test_oracle_exact;
          Alcotest.test_case "rejects non-binary" `Quick test_oracle_rejects_nonbinary;
          Alcotest.test_case "bounded noise" `Quick test_oracle_bounded_noise;
          Alcotest.test_case "out of range" `Quick test_oracle_out_of_range;
          Alcotest.test_case "true_answer free" `Quick test_oracle_true_answer_free;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "word boundaries" `Quick test_bitset_word_boundaries;
          Alcotest.test_case "validation" `Quick test_bitset_validation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "fixtures agree" `Quick test_engines_agree_on_fixtures;
          Alcotest.test_case "nulls agree" `Quick test_engines_agree_on_nulls;
          Alcotest.test_case "compile raises eagerly" `Quick
            test_compile_unknown_attr_raises;
          Alcotest.test_case "cache invalidation" `Quick test_engine_cache_invalidation;
          Alcotest.test_case "checked full stack" `Quick test_checked_engine_full_stack;
        ] );
      ( "batch",
        [
          Alcotest.test_case "count_many matches the loop" `Quick
            test_count_many_matches_loop;
          Alcotest.test_case "engine dispatch" `Quick test_engine_counts_dispatch;
          Alcotest.test_case "pool determinism" `Quick
            test_engine_counts_pool_deterministic;
          Alcotest.test_case "mechanism batch" `Quick test_mechanism_batch;
          Alcotest.test_case "curator ask_many" `Quick test_curator_ask_many;
          Alcotest.test_case "oracle ask_many" `Quick test_oracle_ask_many;
          Alcotest.test_case "telemetry counters" `Quick test_batch_counters;
          Alcotest.test_case "concurrent first run" `Quick
            test_mechanism_concurrent_first_run;
        ] );
      ("properties", qcheck);
    ]
