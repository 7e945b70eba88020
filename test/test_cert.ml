(* Tests for the machine-checked certificate layer: exact rational
   arithmetic, the trusted witness checker's failure taxonomy, the
   complete alignment search (including the search-failure case no
   catalog entry exercises, and its completeness against brute force),
   the catalog/registry verdicts, the tamper suite, and QCheck
   properties tying exact certification back to the sampling auditor. *)

module Q = Cert.Q
module Model = Cert.Model
module Witness = Cert.Witness
module Search = Cert.Search
module Catalog = Cert.Catalog
module Registry = Cert.Registry
module F = Dp.Finite
module Audit = Stattest.Dp_audit

let rng () = Prob.Rng.create ~seed:31337L ()

let q = Q.make

let check_q msg expected actual =
  Alcotest.(check string) msg (Q.to_string expected) (Q.to_string actual)

(* --- Exact rationals --- *)

let test_q_arithmetic () =
  check_q "reduction" (q 1 2) (q 3 6);
  check_q "negative den normalized" (q (-1) 2) (q 1 (-2));
  check_q "add" (q 5 6) (Q.add (q 1 2) (q 1 3));
  check_q "mul" (q 1 6) (Q.mul (q 1 2) (q 1 3));
  check_q "div" (q 3 2) (Q.div (q 1 2) (q 1 3));
  check_q "neg" (q (-1) 2) (Q.neg (q 1 2));
  Alcotest.(check string) "to_string integer" "4" (Q.to_string (Q.of_int 4));
  Alcotest.(check string) "to_string fraction" "-2/3" (Q.to_string (q 2 (-3)));
  Alcotest.(check int) "num" 2 (Q.num (q 4 6))

let test_q_compare () =
  Alcotest.(check bool) "equal" true (Q.equal (q 2 4) (q 1 2));
  Alcotest.(check bool) "lt" true (Q.lt (q 1 3) (q 1 2));
  Alcotest.(check bool) "leq equal" true (Q.leq (q 1 2) (q 2 4));
  Alcotest.(check bool) "not lt" false (Q.lt (q 1 2) (q 1 2));
  Alcotest.(check int) "compare" (-1) (Q.compare (q 1 3) (q 1 2));
  Alcotest.(check int) "sign neg" (-1) (Q.sign (q (-1) 7));
  Alcotest.(check int) "sign zero" 0 (Q.sign Q.zero);
  Alcotest.(check bool) "zero" true (Q.equal Q.zero (Q.of_int 0));
  Alcotest.(check bool) "one" true (Q.equal Q.one (q 7 7))

let test_q_overflow () =
  Alcotest.check_raises "mul overflow" Q.Overflow (fun () ->
      ignore (Q.mul (Q.of_int max_int) (Q.of_int 2)));
  Alcotest.check_raises "add overflow" Q.Overflow (fun () ->
      ignore (Q.add (Q.of_int max_int) Q.one));
  Alcotest.check_raises "zero denominator"
    (Invalid_argument "Q.make: zero denominator") (fun () ->
      ignore (q 1 0))

(* --- Tiny hand-built models --- *)

let mk ?(name = "tiny") ~atoms ~outputs ~wa ~wb ~oa ~ob ~bound () =
  let bound_num, bound_den = bound in
  {
    F.name;
    atoms;
    outputs;
    weights_a = wa;
    weights_b = wb;
    out_a = oa;
    out_b = ob;
    bound_num;
    bound_den;
    epsilon_label = "test";
    out_label = (fun o -> Printf.sprintf "out %d" o);
  }

(* Randomized response at lambda = 3, claimed bound 3: exactly eps-DP. *)
let rr_spec () =
  mk ~atoms:2 ~outputs:2 ~wa:[| 3; 1 |] ~wb:[| 3; 1 |] ~oa:[| 1; 0 |]
    ~ob:[| 0; 1 |] ~bound:(3, 1) ()

(* One output class, uniform weights: the identity witness is valid at
   bound 1, and non-injective or out-of-range corruptions are the only
   ways to break it. *)
let flat_spec () =
  mk ~atoms:2 ~outputs:1 ~wa:[| 1; 1 |] ~wb:[| 1; 1 |] ~oa:[| 0; 0 |]
    ~ob:[| 0; 0 |] ~bound:(1, 1) ()

let test_model_validation () =
  (match Model.of_spec (rr_spec ()) with
  | Ok m ->
    Alcotest.(check int) "atoms" 2 m.Model.atoms;
    check_q "mass normalized" (q 3 4) (Model.mass m Model.A).(0);
    check_q "bound" (Q.of_int 3) m.Model.bound
  | Error e -> Alcotest.failf "valid spec rejected: %s" e);
  let rejects msg spec =
    match Model.of_spec spec with
    | Ok _ -> Alcotest.failf "%s: invalid spec accepted" msg
    | Error _ -> ()
  in
  rejects "negative weight"
    (mk ~atoms:2 ~outputs:1 ~wa:[| -1; 2 |] ~wb:[| 1; 1 |] ~oa:[| 0; 0 |]
       ~ob:[| 0; 0 |] ~bound:(2, 1) ());
  rejects "zero total"
    (mk ~atoms:2 ~outputs:1 ~wa:[| 0; 0 |] ~wb:[| 1; 1 |] ~oa:[| 0; 0 |]
       ~ob:[| 0; 0 |] ~bound:(2, 1) ());
  rejects "out map out of range"
    (mk ~atoms:2 ~outputs:1 ~wa:[| 1; 1 |] ~wb:[| 1; 1 |] ~oa:[| 0; 1 |]
       ~ob:[| 0; 0 |] ~bound:(2, 1) ());
  rejects "bound below one"
    (mk ~atoms:2 ~outputs:1 ~wa:[| 1; 1 |] ~wb:[| 1; 1 |] ~oa:[| 0; 0 |]
       ~ob:[| 0; 0 |] ~bound:(1, 2) ());
  Alcotest.(check bool) "of_spec_exn raises" true
    (try
       ignore
         (Model.of_spec_exn
            (mk ~atoms:1 ~outputs:1 ~wa:[| 0 |] ~wb:[| 1 |] ~oa:[| 0 |]
               ~ob:[| 0 |] ~bound:(2, 1) ()));
       false
     with Invalid_argument _ -> true)

let test_output_dist () =
  let m = Model.of_spec_exn (rr_spec ()) in
  let da = Model.output_dist m Model.A and db = Model.output_dist m Model.B in
  check_q "Pr[A -> 0]" (q 1 4) da.(0);
  check_q "Pr[A -> 1]" (q 3 4) da.(1);
  check_q "Pr[B -> 0]" (q 3 4) db.(0);
  check_q "sums to one" Q.one (Q.add db.(0) db.(1))

(* --- The trusted checker --- *)

let witness direction map = { Witness.direction; map }

let expect_ok msg = function
  | Ok () -> ()
  | Error fs ->
    Alcotest.failf "%s: rejected:@.%a" msg
      (Format.pp_print_list Witness.pp_failure)
      fs

let expect_failure msg pred = function
  | Ok () -> Alcotest.failf "%s: invalid witness accepted" msg
  | Error fs ->
    if not (List.exists pred fs) then
      Alcotest.failf "%s: wrong failure kind:@.%a" msg
        (Format.pp_print_list Witness.pp_failure)
        fs

let test_checker_accepts_swap () =
  let m = Model.of_spec_exn (rr_spec ()) in
  expect_ok "swap pair"
    (Witness.check_pair m
       (witness Witness.A_to_b [| 1; 0 |])
       (witness Witness.B_to_a [| 1; 0 |]))

let test_checker_failures () =
  let m = Model.of_spec_exn (rr_spec ()) in
  expect_failure "wrong map length"
    (function Witness.Bad_shape _ -> true | _ -> false)
    (Witness.check m (witness Witness.A_to_b [| 1 |]));
  expect_failure "directions swapped in pair"
    (function Witness.Bad_shape _ -> true | _ -> false)
    (Witness.check_pair m
       (witness Witness.B_to_a [| 1; 0 |])
       (witness Witness.A_to_b [| 1; 0 |]));
  expect_failure "target out of range"
    (function
      | Witness.Target_out_of_range { source = 0; target = 5 } -> true
      | _ -> false)
    (Witness.check m (witness Witness.A_to_b [| 5; 0 |]));
  (* Identity on the randomized-response model pairs opposite bits. *)
  expect_failure "class mismatch"
    (function Witness.Class_mismatch _ -> true | _ -> false)
    (Witness.check m (witness Witness.A_to_b [| 0; 1 |]));
  let flat = Model.of_spec_exn (flat_spec ()) in
  expect_failure "collision"
    (function
      | Witness.Not_injective { source1 = 0; source2 = 1; target = 0 } -> true
      | _ -> false)
    (Witness.check flat (witness Witness.A_to_b [| 0; 0 |]));
  (* Skewed masses at bound 1: identity violates the mass bound on atom 0
     (3/4 > 1/4) even though the swap direction would be fine. *)
  let skew =
    Model.of_spec_exn
      (mk ~atoms:2 ~outputs:1 ~wa:[| 3; 1 |] ~wb:[| 1; 3 |] ~oa:[| 0; 0 |]
         ~ob:[| 0; 0 |] ~bound:(1, 1) ())
  in
  expect_failure "mass exceeded"
    (function Witness.Mass_exceeded { source = 0; _ } -> true | _ -> false)
    (Witness.check skew (witness Witness.A_to_b [| 0; 1 |]));
  expect_ok "swap respects skewed masses"
    (Witness.check skew (witness Witness.A_to_b [| 1; 0 |]))

(* --- Search: certify, refute, and the search-failure case --- *)

let test_search_certifies_production () =
  let m = Model.of_spec_exn (F.laplace_pair ()) in
  match Search.certify m with
  | Search.Certified (w_ab, w_ba) ->
    expect_ok "re-checked" (Witness.check_pair m w_ab w_ba)
  | Search.Refuted c ->
    Alcotest.failf "laplace refuted: %a"
      (Search.pp_counterexample ~label:m.Model.out_label)
      c
  | Search.No_witness why -> Alcotest.failf "laplace: %s" why

let test_search_refutes () =
  (* Randomized response at lambda = 9 claiming bound 3: the output
     distributions themselves violate the inequality, so the refuter
     produces an exact counterexample. *)
  let m =
    Model.of_spec_exn
      (F.randomized_response_pair ~name:"hot-rr" ~lambda:9 ~bound:(3, 1)
         ~epsilon_label:"claims ln 3")
  in
  match Search.certify m with
  | Search.Refuted c ->
    Alcotest.(check int) "output" 0 c.Search.output;
    Alcotest.(check bool) "direction" true (c.Search.direction = Witness.B_to_a);
    check_q "p_src" (q 9 10) c.Search.p_src;
    check_q "p_dst" (q 1 10) c.Search.p_dst
  | Search.Certified _ -> Alcotest.fail "hot-rr certified"
  | Search.No_witness why -> Alcotest.failf "expected refutation, got: %s" why

let test_search_no_witness () =
  (* Masses a = [1/2, 1/2] vs b = [3/4, 1/4] in one output class at bound
     1: both output distributions are the point mass, so the pointwise
     refuter finds nothing — but no injective alignment exists (both A
     atoms need the single B atom with mass >= 1/2). Search failure, not
     refutation: the complete matching proves no alignment-shaped
     certificate exists even though no output event witnesses a
     violation. *)
  let m =
    Model.of_spec_exn
      (mk ~atoms:2 ~outputs:1 ~wa:[| 1; 1 |] ~wb:[| 3; 1 |] ~oa:[| 0; 0 |]
         ~ob:[| 0; 0 |] ~bound:(1, 1) ())
  in
  Alcotest.(check bool) "refuter finds nothing" true (Search.refute m = None);
  match Search.certify m with
  | Search.No_witness _ -> ()
  | Search.Certified _ -> Alcotest.fail "uncertifiable model certified"
  | Search.Refuted _ -> Alcotest.fail "refuter claimed a pointwise violation"

(* --- Catalog and registry --- *)

let test_registry_verdicts () =
  let rows = Registry.verify_all () in
  Alcotest.(check int) "catalog size" 12 (List.length rows);
  Alcotest.(check bool) "all rows ok" true (Registry.all_ok rows);
  let production, controls =
    List.partition
      (fun (r : Registry.row) -> not r.entry.Catalog.negative)
      rows
  in
  Alcotest.(check int) "8 production mechanisms" 8 (List.length production);
  Alcotest.(check int) "4 negative controls" 4 (List.length controls);
  List.iter
    (fun (r : Registry.row) ->
      match r.verdict with
      | Search.Certified (w_ab, w_ba) ->
        (* The registry's verdict must survive independent re-checking. *)
        expect_ok
          (r.entry.Catalog.name ^ " re-checked")
          (Witness.check_pair r.entry.Catalog.model w_ab w_ba)
      | _ -> Alcotest.failf "%s not certified" r.entry.Catalog.name)
    production;
  List.iter
    (fun (r : Registry.row) ->
      match r.verdict with
      | Search.Refuted _ | Search.No_witness _ -> ()
      | Search.Certified _ ->
        Alcotest.failf "negative control %s certified" r.entry.Catalog.name)
    controls

let test_registry_table_stable () =
  let t1 = Registry.render_table (Registry.verify_all ()) in
  let t2 = Registry.render_table (Registry.verify_all ()) in
  Alcotest.(check string) "deterministic" t1 t2;
  let contains needle =
    let nl = String.length needle and hl = String.length t1 in
    let rec go i = i + nl <= hl && (String.sub t1 i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "verdict line" true
    (contains "8/8 production mechanisms certified");
  Alcotest.(check bool) "controls line" true
    (contains "4/4 negative controls rejected -> OK")

let test_catalog_find () =
  Alcotest.(check bool) "find laplace" true (Catalog.find "LAPLACE" <> None);
  Alcotest.(check bool) "find control" true
    (Catalog.find "broken-laplace" <> None);
  Alcotest.(check bool) "unknown absent" true (Catalog.find "nope" = None)

let test_tamper_suite () =
  let results = Registry.tamper_suite () in
  Alcotest.(check int) "three tampers per certified entry" 24
    (List.length results);
  List.iter
    (fun (r : Registry.tamper_result) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s rejected" r.entry_name r.tamper)
        true r.rejected)
    results

(* --- QCheck properties --- *)

(* Random small finite mechanism pairs: a few atoms, a few output
   classes, positive single-digit weights, a small claimed bound. Many
   are not DP at their claimed bound; the properties quantify over
   whatever the search decides. *)
let spec_gen =
  let open QCheck.Gen in
  int_range 2 5 >>= fun atoms ->
  int_range 1 3 >>= fun outputs ->
  array_repeat atoms (int_range 1 8) >>= fun wa ->
  array_repeat atoms (int_range 1 8) >>= fun wb ->
  array_repeat atoms (int_range 0 (outputs - 1)) >>= fun oa ->
  array_repeat atoms (int_range 0 (outputs - 1)) >>= fun ob ->
  oneofl [ (2, 1); (3, 2); (3, 1) ] >>= fun bound ->
  return (mk ~name:"random" ~atoms ~outputs ~wa ~wb ~oa ~ob ~bound ())

let spec_print (s : F.spec) =
  let arr a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "atoms=%d outputs=%d wa=[%s] wb=[%s] oa=[%s] ob=[%s] bound=%d/%d"
    s.F.atoms s.F.outputs (arr s.F.weights_a) (arr s.F.weights_b)
    (arr s.F.out_a) (arr s.F.out_b) s.F.bound_num s.F.bound_den

let spec_arb = QCheck.make ~print:spec_print spec_gen

(* Certification is sound exactly: a certified model's output
   distributions satisfy the inequality pointwise in both directions,
   with no sampling involved. *)
let prop_certified_implies_pointwise_bound =
  QCheck.Test.make ~name:"certified => exact pointwise eps-DP" ~count:200
    spec_arb (fun spec ->
      let m = Model.of_spec_exn spec in
      match Search.certify m with
      | Search.Refuted _ | Search.No_witness _ -> true
      | Search.Certified _ ->
        let da = Model.output_dist m Model.A
        and db = Model.output_dist m Model.B in
        Array.for_all Fun.id
          (Array.init m.Model.outputs (fun o ->
               Q.leq da.(o) (Q.mul m.Model.bound db.(o))
               && Q.leq db.(o) (Q.mul m.Model.bound da.(o)))))

(* ... and the sampling auditor agrees: where the search certifies, the
   empirical counterexample hunt at the same epsilon finds nothing. *)
let prop_certified_passes_audit =
  QCheck.Test.make ~name:"certified => auditor finds no counterexample"
    ~count:12 spec_arb (fun spec ->
      let m = Model.of_spec_exn spec in
      match Search.certify m with
      | Search.Refuted _ | Search.No_witness _ -> true
      | Search.Certified _ ->
        let epsilon =
          Float.log (float_of_int spec.F.bound_num /. float_of_int spec.F.bound_den)
        in
        let case =
          {
            Audit.name = "random-certified";
            epsilon;
            delta = 0.;
            events = spec.F.outputs;
            label = spec.F.out_label;
            sample_a = (fun r -> F.sample r spec F.A);
            sample_b = (fun r -> F.sample r spec F.B);
            broken = false;
          }
        in
        Audit.passed (Audit.run ~trials:4000 (rng ()) case))

(* Every map of the atoms into the atoms (at most 5^5), tried in order
   until one passes the trusted checker. *)
let some_witness_exists (m : Model.t) direction =
  let n = m.Model.atoms in
  let map = Array.make n 0 in
  let rec fill i =
    if i = n then Result.is_ok (Witness.check m { Witness.direction; map })
    else
      List.exists
        (fun t ->
          map.(i) <- t;
          fill (i + 1))
        (List.init n Fun.id)
  in
  fill 0

(* The search is complete: it certifies exactly when the refuter finds
   nothing and brute force finds a witness in each direction. *)
let prop_search_complete =
  QCheck.Test.make ~name:"certified <=> brute force finds both witnesses"
    ~count:200 spec_arb (fun spec ->
      let m = Model.of_spec_exn spec in
      let certified =
        match Search.certify m with
        | Search.Certified _ -> true
        | Search.Refuted _ | Search.No_witness _ -> false
      in
      certified
      = (Search.refute m = None
        && some_witness_exists m Witness.A_to_b
        && some_witness_exists m Witness.B_to_a))

(* Tampering a verified witness in a way that is invalid by construction
   (out-of-range target, or two support atoms collided) must always be
   rejected by the checker. *)
let prop_tampered_rejected =
  QCheck.Test.make ~name:"tampered certificates always rejected" ~count:200
    (QCheck.pair spec_arb QCheck.bool) (fun (spec, collide) ->
      let m = Model.of_spec_exn spec in
      match Search.certify m with
      | Search.Refuted _ | Search.No_witness _ -> true
      | Search.Certified (w_ab, _) ->
        let support =
          List.filter
            (fun i -> Q.sign (Model.mass m Model.A).(i) > 0)
            (List.init m.Model.atoms Fun.id)
        in
        let map = Array.copy w_ab.Witness.map in
        let tampered =
          match support with
          | s1 :: s2 :: _ when collide ->
            map.(s2) <- map.(s1);
            true
          | s :: _ ->
            map.(s) <- m.Model.atoms;
            true
          | [] -> false
        in
        (not tampered)
        || Result.is_error
             (Witness.check m { Witness.direction = Witness.A_to_b; map }))

let () =
  Alcotest.run "cert"
    [
      ( "q",
        [
          Alcotest.test_case "arithmetic" `Quick test_q_arithmetic;
          Alcotest.test_case "comparison" `Quick test_q_compare;
          Alcotest.test_case "overflow" `Quick test_q_overflow;
        ] );
      ( "model",
        [
          Alcotest.test_case "validation" `Quick test_model_validation;
          Alcotest.test_case "output distributions" `Quick test_output_dist;
        ] );
      ( "checker",
        [
          Alcotest.test_case "accepts valid pair" `Quick test_checker_accepts_swap;
          Alcotest.test_case "failure taxonomy" `Quick test_checker_failures;
        ] );
      ( "search",
        [
          Alcotest.test_case "certifies production model" `Quick
            test_search_certifies_production;
          Alcotest.test_case "exact refutation" `Quick test_search_refutes;
          Alcotest.test_case "no-alignment failure" `Quick test_search_no_witness;
        ] );
      ( "registry",
        [
          Alcotest.test_case "catalog verdicts" `Quick test_registry_verdicts;
          Alcotest.test_case "table stable" `Quick test_registry_table_stable;
          Alcotest.test_case "catalog find" `Quick test_catalog_find;
          Alcotest.test_case "tamper suite" `Quick test_tamper_suite;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_certified_implies_pointwise_bound;
            prop_search_complete;
            prop_certified_passes_audit;
            prop_tampered_rejected;
          ] );
    ]
