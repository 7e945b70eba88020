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
  Alcotest.(check bool) "empty conj is true" true (P.conj [] = P.True);
  Alcotest.(check bool) "empty disj is false" true (P.disj [] = P.False)

let test_encode_row_injective () =
  (* Rows differing in content encode differently, including tricky
     prefix-sharing strings. *)
  let a = [| V.String "ab"; V.String "c" |] in
  let b = [| V.String "a"; V.String "bc" |] in
  Alcotest.(check bool) "injective" true (P.encode_row a <> P.encode_row b)

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
    Query.Mechanism.exact_counts
      [| P.Atom (P.Eq ("a0", V.Int 0)); P.Atom (P.Eq ("a0", V.Int 1)); P.True |]
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

let test_oracle_limit () =
  let o = Query.Oracle.with_limit 2 (Query.Oracle.exact [| 1; 0 |]) in
  ignore (Query.Oracle.ask o [| 0 |]);
  ignore (Query.Oracle.ask o [| 1 |]);
  Alcotest.check_raises "limit" Query.Oracle.Query_limit_exceeded (fun () ->
      ignore (Query.Oracle.ask o [| 0 |]))

let test_oracle_out_of_range () =
  let o = Query.Oracle.exact [| 1; 0 |] in
  Alcotest.(check bool) "index range" true
    (try
       ignore (Query.Oracle.ask o [| 5 |]);
       false
     with Invalid_argument _ -> true)

let test_oracle_true_answer_free () =
  let o = Query.Oracle.with_limit 1 (Query.Oracle.exact [| 1; 1 |]) in
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

let with_engine e f =
  let prev = P.engine () in
  P.set_engine e;
  Fun.protect ~finally:(fun () -> P.set_engine prev) f

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
      List.iter
        (fun e ->
          with_engine e (fun () ->
              Alcotest.(check int) (P.to_string p ^ " dispatched") interp
                (P.count schema p t);
              Alcotest.(check bool) (P.to_string p ^ " isolates") (interp = 1)
                (P.isolates schema p t)))
        [ P.Interpreted; P.Compiled; P.Checked ])
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
  (* Derived tables get fresh generation ids, so a bitset cached for the
     parent can never be served for the child. *)
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

let test_engine_of_string () =
  List.iter
    (fun (s, e) -> Alcotest.(check bool) s true (P.engine_of_string s = e))
    [
      ("interp", Some P.Interpreted);
      ("bitset", Some P.Compiled);
      ("check", Some P.Checked);
      ("compiled", Some P.Compiled);
      ("INTERP", Some P.Interpreted);
      ("garbage", None);
    ];
  List.iter
    (fun e ->
      Alcotest.(check bool) (P.engine_name e) true
        (P.engine_of_string (P.engine_name e) = Some e))
    [ P.Interpreted; P.Compiled; P.Checked ]

let test_by_engine_switch () =
  (* The one engine switch: each mode runs its side, Checked runs both,
     returns the interpreter's answer when they agree and fails when they
     do not. *)
  let ran = ref [] in
  let side name v () =
    ran := name :: !ran;
    v
  in
  let run e interp compiled =
    ran := [];
    with_engine e (fun () ->
        P.by_engine ~what:(fun () -> "test") ~show:string_of_int
          (side "interp" interp) (side "compiled" compiled))
  in
  Alcotest.(check int) "interpreted" 1 (run P.Interpreted 1 2);
  Alcotest.(check (list string)) "interpreted runs one side" [ "interp" ] !ran;
  Alcotest.(check int) "compiled" 2 (run P.Compiled 1 2);
  Alcotest.(check (list string)) "compiled runs one side" [ "compiled" ] !ran;
  Alcotest.(check int) "checked agreeing" 3 (run P.Checked 3 3);
  Alcotest.(check (list string)) "checked runs both" [ "compiled"; "interp" ] !ran;
  Alcotest.check_raises "checked disagreeing"
    (Failure "test: engine mismatch (interpreter 1, compiled 2)") (fun () ->
      ignore (run P.Checked 1 2))

let test_checked_engine_full_stack () =
  (* Re-run representative mechanism/curator/erasure fixtures with the
     cross-validating engine: any interpreter/compiled divergence fails. *)
  with_engine P.Checked (fun () ->
      test_mechanism_exact_counts ();
      test_curator_exact ();
      test_erasure_recompute_forgets ();
      test_erasure_cached_retains ())

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
  List.iter
    (fun e ->
      with_engine e (fun () ->
          Alcotest.(check (array int))
            (P.engine_name e ^ " counts") expected
            (Query.Engine.counts t batch_preds);
          Alcotest.(check (array bool))
            (P.engine_name e ^ " isolations")
            (Array.map (fun n -> n = 1) expected)
            (Query.Engine.isolations t batch_preds)))
    [ P.Interpreted; P.Compiled; P.Checked ];
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
  Alcotest.(check int) "batch_queries" (Array.length batch_preds)
    (Array.length (Query.Mechanism.batch_queries b));
  let plain = Query.Mechanism.exact_counts batch_preds in
  let batched = Query.Mechanism.exact_counts_batch b in
  Alcotest.(check string) "exact name preserved"
    plain.Query.Mechanism.name batched.Query.Mechanism.name;
  Alcotest.(check bool) "exact outputs equal" true
    (Query.Mechanism.run plain (rng ()) t
    = Query.Mechanism.run batched (rng ()) t);
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
          (Obs.snapshot ()).Obs.Metric.counters
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
  [
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
          Alcotest.test_case "query limit" `Quick test_oracle_limit;
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
          Alcotest.test_case "engine_of_string" `Quick test_engine_of_string;
          Alcotest.test_case "checked full stack" `Quick test_checked_engine_full_stack;
          Alcotest.test_case "by_engine switch" `Quick test_by_engine_switch;
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
