(* Tests for the differential-privacy library: calibration of each
   mechanism, an empirical DP-inequality check for the Laplace mechanism
   (via the Stattest auditor), randomized response debiasing, sparse vector
   behaviour, and accounting arithmetic. Statistical claims go through
   Stattest.Check confidence intervals; `close` remains only for exact
   analytic formulas. *)

module P = Query.Predicate
module V = Dataset.Value
module Ck = Stattest.Check

let rng () = Prob.Rng.create ~seed:606L ()

let close ?(tol = 0.05) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %g within %g, got %g" msg expected tol actual

let model = Dataset.Synth.pso_model ~attributes:2 ~values_per_attribute:4

let table n = Dataset.Model.sample_table (rng ()) model n

(* --- Laplace --- *)

let test_laplace_count_unbiased () =
  let t = table 200 in
  let truth = float_of_int (P.count (Dataset.Table.schema t) P.True t) in
  let r = rng () in
  let draws = Array.init 5000 (fun _ -> Dp.Laplace.count r ~epsilon:1. t P.True) in
  Ck.mean ~expected:truth "unbiased" draws;
  (* E[(X - truth)^2] = Var = 2/eps^2 = 2; asserted as a mean of squared
     deviations because the chi-square variance interval assumes normal
     data and Laplace noise is leptokurtic. *)
  Ck.mean ~expected:2. "noise second moment"
    (Array.map (fun x -> (x -. truth) *. (x -. truth)) draws)

let test_laplace_noise_scales_with_epsilon () =
  let t = table 100 in
  let r = rng () in
  let spread eps =
    Prob.Stats.std (Array.init 3000 (fun _ -> Dp.Laplace.count r ~epsilon:eps t P.True))
  in
  Alcotest.(check bool) "smaller eps, more noise" true (spread 0.1 > 3. *. spread 1.)

let test_laplace_dp_inequality () =
  (* Empirical check of Definition 1.2 for the count mechanism on
     neighbouring datasets, via the CI-corrected counterexample auditor:
     no event's certified privacy loss may exceed epsilon. *)
  match Stattest.Dp_audit.find "laplace" with
  | None -> Alcotest.fail "laplace auditor case missing from the battery"
  | Some case ->
    let report = Stattest.Dp_audit.run (rng ()) ~trials:30_000 case in
    if not (Stattest.Dp_audit.passed report) then
      Alcotest.failf "DP inequality violated:@.%a" Stattest.Dp_audit.pp_report
        report

let test_laplace_sum_clamps () =
  (* One huge outlier must influence the (clamped) sum by at most the clamp. *)
  let r = rng () in
  let base = Array.make 50 1. in
  let with_outlier = Array.append base [| 1e9 |] in
  let avg f =
    Prob.Stats.mean (Array.init 2000 (fun _ -> f ()))
  in
  let s1 = avg (fun () -> Dp.Laplace.sum r ~epsilon:1. ~lo:0. ~hi:2. base) in
  let s2 = avg (fun () -> Dp.Laplace.sum r ~epsilon:1. ~lo:0. ~hi:2. with_outlier) in
  Alcotest.(check bool) "outlier bounded by clamp" true (Float.abs (s2 -. s1) < 3.)

let test_laplace_mean () =
  let r = rng () in
  let xs = Array.init 500 (fun i -> float_of_int (i mod 10)) in
  let releases =
    Array.init 500 (fun _ -> Dp.Laplace.mean r ~epsilon:2. ~lo:0. ~hi:9. xs)
  in
  Ck.mean ~expected:4.5 "dp mean" releases

let test_laplace_counts_splits_budget () =
  let t = table 100 in
  let truth = float_of_int (P.count (Dataset.Table.schema t) P.True t) in
  let r = rng () in
  let qs = [| P.True; P.True; P.True; P.True |] in
  (* Four queries at total eps=1 -> per-query scale 4: Var = 2*4^2 = 32. *)
  let draws =
    Array.init 2000 (fun _ -> (Dp.Laplace.counts r ~epsilon:1. t qs).(0))
  in
  Ck.mean ~expected:32. "per-query noise second moment"
    (Array.map (fun x -> (x -. truth) *. (x -. truth)) draws)

let test_laplace_epsilon_validated () =
  Alcotest.check_raises "eps 0" (Invalid_argument "Dp.Laplace: epsilon must be positive")
    (fun () -> ignore (Dp.Laplace.count (rng ()) ~epsilon:0. (table 5) P.True))

(* --- Geometric --- *)

let test_geometric_integer_and_unbiased () =
  let t = table 150 in
  let truth = P.count (Dataset.Table.schema t) P.True t in
  let r = rng () in
  let draws =
    Array.init 5000 (fun _ ->
        float_of_int (Dp.Geometric.count r ~epsilon:1. t P.True))
  in
  Ck.mean ~expected:(float_of_int truth) "unbiased" draws

(* --- Gaussian --- *)

let test_gaussian_sigma_formula () =
  let s = Dp.Gaussian.sigma ~epsilon:1. ~delta:1e-5 ~sensitivity:1. in
  close ~tol:1e-6 "sigma" (Float.sqrt (2. *. Float.log (1.25 /. 1e-5))) s

let test_gaussian_count_noise () =
  let t = table 100 in
  let r = rng () in
  let truth = float_of_int (P.count (Dataset.Table.schema t) P.True t) in
  let draws =
    Array.init 5000 (fun _ -> Dp.Gaussian.count r ~epsilon:1. ~delta:1e-5 t P.True)
  in
  let expected_sigma = Dp.Gaussian.sigma ~epsilon:1. ~delta:1e-5 ~sensitivity:1. in
  Ck.mean ~expected:truth "unbiased" draws;
  (* Gaussian noise, so the chi-square variance interval is exact. *)
  Ck.variance ~expected:(expected_sigma *. expected_sigma) "empirical variance" draws

let test_gaussian_validates () =
  Alcotest.check_raises "delta 0" (Invalid_argument "Dp.Gaussian: delta in (0,1)")
    (fun () -> ignore (Dp.Gaussian.sigma ~epsilon:1. ~delta:0. ~sensitivity:1.))

(* --- Randomized response --- *)

let test_rr_flip_probability () =
  close ~tol:1e-9 "flip prob" (1. /. (Float.exp 1. +. 1.))
    (Dp.Randomized_response.flip_probability ~epsilon:1.)

let test_rr_estimate_unbiased () =
  let r = rng () in
  let bits = Array.init 2000 (fun i -> i mod 4 = 0) in
  let truth = 500. in
  let estimates =
    Array.init 300 (fun _ ->
        Dp.Randomized_response.estimate ~epsilon:1.
          (Dp.Randomized_response.survey r ~epsilon:1. bits))
  in
  Ck.mean ~expected:truth "debiased estimate" estimates

let test_rr_high_epsilon_truthful () =
  let r = rng () in
  let responses = Dp.Randomized_response.survey r ~epsilon:20. [| true; false; true |] in
  Alcotest.(check (array bool)) "almost no flips" [| true; false; true |] responses

(* --- Exponential mechanism --- *)

let test_exponential_prefers_high_utility () =
  let r = rng () in
  let candidates = [| 0; 1; 2; 3 |] in
  let utility c = if c = 2 then 10. else 0. in
  let hits = ref 0 in
  let trials = 1000 in
  for _ = 1 to trials do
    if Dp.Exponential.select r ~epsilon:2. ~sensitivity:1. ~utility candidates = 2
    then incr hits
  done;
  (* p = e^{eps*u/2} / sum_j e^{eps*u_j/2} = e^10 / (e^10 + 3) *)
  let p = Float.exp 10. /. (Float.exp 10. +. 3.) in
  Ck.proportion ~expected:p "picks best almost always" ~successes:!hits ~trials

let test_exponential_low_epsilon_uniformish () =
  let r = rng () in
  let candidates = [| 0; 1 |] in
  let utility c = float_of_int c in
  let ones = ref 0 in
  let trials = 4000 in
  for _ = 1 to trials do
    if Dp.Exponential.select r ~epsilon:0.01 ~sensitivity:1. ~utility candidates = 1
    then incr ones
  done;
  (* p(1) = e^{0.005} / (1 + e^{0.005}), barely above a coin flip *)
  let p = Float.exp 0.005 /. (1. +. Float.exp 0.005) in
  Ck.proportion ~expected:p "near uniform at tiny epsilon" ~successes:!ones ~trials

let test_exponential_median () =
  let r = rng () in
  let xs = Array.init 101 (fun i -> float_of_int i) in
  let med = Dp.Exponential.median r ~epsilon:5. ~lo:0. ~hi:100. ~bins:50 xs in
  Alcotest.(check bool) "median near 50" true (Float.abs (med -. 50.) < 15.)

(* --- Sparse vector --- *)

let test_svt_obvious_answers () =
  let r = rng () in
  let t = Dp.Sparse_vector.create r ~epsilon:20. ~threshold:50. ~max_hits:3 in
  Alcotest.(check bool) "far below" false (Dp.Sparse_vector.ask t 0.);
  Alcotest.(check bool) "far above" true (Dp.Sparse_vector.ask t 100.);
  Alcotest.(check int) "hits counted" 1 (Dp.Sparse_vector.hits t);
  Alcotest.(check int) "asked counted" 2 (Dp.Sparse_vector.asked t)

let test_svt_budget_exhausted () =
  let r = rng () in
  let t = Dp.Sparse_vector.create r ~epsilon:20. ~threshold:0. ~max_hits:2 in
  ignore (Dp.Sparse_vector.ask t 1000.);
  ignore (Dp.Sparse_vector.ask t 1000.);
  Alcotest.check_raises "exhausted" Dp.Sparse_vector.Budget_exhausted (fun () ->
      ignore (Dp.Sparse_vector.ask t 1000.))

(* --- Histogram --- *)

let test_histogram_partition_and_counts () =
  let cells = Dp.Histogram.partition_by_attribute model "a0" in
  Alcotest.(check int) "one cell per value" 4 (Array.length cells);
  let t = table 200 in
  let exact = Dp.Histogram.exact t cells in
  let total = Array.fold_left (fun acc (_, c) -> acc + c) 0 exact in
  Alcotest.(check int) "cells partition the data" 200 total

let test_histogram_noisy_near_exact () =
  let cells = Dp.Histogram.partition_by_attribute model "a0" in
  let t = table 400 in
  let exact = Dp.Histogram.exact t cells in
  let noisy = Dp.Histogram.noisy (rng ()) ~epsilon:2. t cells in
  Array.iteri
    (fun i (_, v) ->
      let _, e = exact.(i) in
      if Float.abs (v -. float_of_int e) > 10. then
        Alcotest.failf "cell %d too noisy: %f vs %d" i v e)
    noisy

(* --- Accountant --- *)

let test_accountant_basic () =
  let a = Dp.Accountant.create () in
  Dp.Accountant.spend a ~epsilon:0.5 "q1";
  Dp.Accountant.spend a ~epsilon:0.25 ~delta:1e-6 "q2";
  let eps, delta = Dp.Accountant.basic a in
  close ~tol:1e-9 "eps adds" 0.75 eps;
  close ~tol:1e-12 "delta adds" 1e-6 delta;
  Alcotest.(check int) "steps recorded" 2 (List.length (Dp.Accountant.steps a))

let test_accountant_advanced_beats_basic_for_many_queries () =
  let a = Dp.Accountant.create () in
  for i = 1 to 200 do
    Dp.Accountant.spend a ~epsilon:0.1 (Printf.sprintf "q%d" i)
  done;
  let basic_eps, _ = Dp.Accountant.basic a in
  let adv_eps, adv_delta = Dp.Accountant.advanced a ~delta_slack:1e-6 in
  Alcotest.(check bool) "advanced smaller" true (adv_eps < basic_eps);
  close ~tol:1e-12 "delta slack" 1e-6 adv_delta;
  let best_eps, _ = Dp.Accountant.best a ~delta_slack:1e-6 in
  close ~tol:1e-9 "best picks advanced" adv_eps best_eps

let test_accountant_empty () =
  let a = Dp.Accountant.create () in
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "empty basic" (0., 0.)
    (Dp.Accountant.basic a);
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "empty advanced" (0., 0.)
    (Dp.Accountant.advanced a ~delta_slack:0.1)

let test_accountant_validates () =
  let a = Dp.Accountant.create () in
  Alcotest.check_raises "eps 0" (Invalid_argument "Dp.Accountant.spend: epsilon")
    (fun () -> Dp.Accountant.spend a ~epsilon:0. "bad")

(* --- Hierarchical (tree) mechanism --- *)

let test_tree_unbiased_total () =
  let hist = Array.make 64 10 in
  let r = rng () in
  let totals =
    Array.init 500 (fun _ -> Dp.Tree.total (Dp.Tree.build r ~epsilon:1. hist))
  in
  Ck.mean ~expected:640. "unbiased total" totals

let test_tree_range_matches_truth_roughly () =
  let r = rng () in
  let hist = Array.init 128 (fun i -> i mod 7) in
  let t = Dp.Tree.build r ~epsilon:5. hist in
  let truth lo hi =
    let acc = ref 0 in
    for i = lo to hi do
      acc := !acc + hist.(i)
    done;
    float_of_int !acc
  in
  List.iter
    (fun (lo, hi) ->
      let err = Float.abs (Dp.Tree.range t ~lo ~hi -. truth lo hi) in
      if err > 30. then Alcotest.failf "range (%d,%d) error %.1f" lo hi err)
    [ (0, 127); (5, 9); (64, 100); (0, 0) ]

(* The flat baseline: every cell of [lo, hi] released with its own
   Laplace(1/eps) noise, then summed. *)
let flat_range r ~epsilon hist ~lo ~hi =
  let acc = ref 0. in
  for i = lo to hi do
    acc :=
      !acc +. float_of_int hist.(i)
      +. Prob.Sampler.laplace r ~scale:(1. /. epsilon)
  done;
  !acc

let test_tree_beats_flat_on_wide_ranges () =
  let r = rng () in
  let hist = Array.make 1024 5 in
  let truth = 5. *. 1024. in
  let trials = 150 in
  let tree_err = ref 0. and flat_err = ref 0. in
  for _ = 1 to trials do
    let t = Dp.Tree.build r ~epsilon:1. hist in
    tree_err := !tree_err +. ((Dp.Tree.range t ~lo:0 ~hi:1023 -. truth) ** 2.);
    let f = flat_range r ~epsilon:1. hist ~lo:0 ~hi:1023 in
    flat_err := !flat_err +. ((f -. truth) ** 2.)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "tree RMSE << flat RMSE (%.1f vs %.1f)"
       (Float.sqrt (!tree_err /. float_of_int trials))
       (Float.sqrt (!flat_err /. float_of_int trials)))
    true
    (!tree_err < !flat_err /. 4.)

let test_tree_deterministic () =
  (* Same seed, same histogram -> byte-identical releases: the tree draws
     its noise in a fixed node order from one generator. *)
  let hist = Array.init 37 (fun i -> (i * 5) mod 11) in
  let build () = Dp.Tree.build (rng ()) ~epsilon:0.7 hist in
  let t1 = build () and t2 = build () in
  Alcotest.(check (float 0.)) "total" (Dp.Tree.total t1) (Dp.Tree.total t2);
  List.iter
    (fun (lo, hi) ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "range (%d,%d)" lo hi)
        (Dp.Tree.range t1 ~lo ~hi)
        (Dp.Tree.range t2 ~lo ~hi))
    [ (0, 36); (0, 0); (3, 17); (20, 36) ]

let test_tree_dp_inequality () =
  (* The tree mechanism is part of the standard dpcheck battery; audit its
     case here like the Laplace one, so a calibration regression in
     Tree.build fails the dp suite directly. *)
  match Stattest.Dp_audit.find "tree" with
  | None -> Alcotest.fail "tree auditor case missing from the battery"
  | Some case ->
    let report = Stattest.Dp_audit.run (rng ()) ~trials:30_000 case in
    if not (Stattest.Dp_audit.passed report) then
      Alcotest.failf "DP inequality violated:@.%a" Stattest.Dp_audit.pp_report
        report

let test_tree_validates () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Dp.Tree.build (rng ()) ~epsilon:1. [||]);
       false
     with Invalid_argument _ -> true);
  let t = Dp.Tree.build (rng ()) ~epsilon:1. [| 1; 2; 3 |] in
  Alcotest.(check int) "cells" 3 (Dp.Tree.cells t);
  Alcotest.(check bool) "bad range rejected" true
    (try
       ignore (Dp.Tree.range t ~lo:2 ~hi:1);
       false
     with Invalid_argument _ -> true)

(* --- Subsampling --- *)

let test_subsample_amplification_formula () =
  let e = Dp.Subsample.amplified_epsilon ~q:0.1 ~epsilon:1. in
  close ~tol:1e-9 "formula" (Float.log (1. +. (0.1 *. (Float.exp 1. -. 1.)))) e;
  Alcotest.(check bool) "amplified below q(e^eps - 1)" true
    (e <= (0.1 *. (Float.exp 1. -. 1.)) +. 1e-9);
  Alcotest.(check bool) "amplified below eps" true (e < 1.);
  close ~tol:1e-9 "q=1 is identity" 1. (Dp.Subsample.amplified_epsilon ~q:1. ~epsilon:1.)

let test_subsample_inverse () =
  let target = 0.3 and q = 0.2 in
  let base = Dp.Subsample.required_epsilon ~q ~target in
  close ~tol:1e-9 "roundtrip" target (Dp.Subsample.amplified_epsilon ~q ~epsilon:base)

let test_subsample_rate () =
  let t = table 4000 in
  let s = Dp.Subsample.subsample (rng ()) ~q:0.25 t in
  (* Each row is kept independently with probability q. *)
  Ck.proportion ~expected:0.25 "poisson rate"
    ~successes:(Dataset.Table.nrows s) ~trials:4000

let test_subsample_mechanism_runs () =
  let m =
    Dp.Subsample.mechanism ~q:0.5 (Query.Mechanism.exact_count P.True)
  in
  match Query.Mechanism.run m (rng ()) (table 200) with
  | Query.Mechanism.Scalar v -> Alcotest.(check bool) "plausible" true (v > 50. && v < 150.)
  | _ -> Alcotest.fail "expected scalar"

(* --- Noisy max --- *)

let test_noisy_max_picks_clear_winner () =
  let r = rng () in
  let hits = ref 0 in
  for _ = 1 to 300 do
    if Dp.Noisy_max.select_values r ~epsilon:2. [| 0.; 100.; 3. |] = 1 then incr hits
  done;
  Alcotest.(check bool) "clear winner wins" true (!hits > 290)

let test_noisy_max_randomizes_close_calls () =
  let r = rng () in
  let zero = ref 0 in
  let trials = 1000 in
  for _ = 1 to trials do
    if Dp.Noisy_max.select_values r ~epsilon:0.05 [| 10.; 10.5 |] = 0 then incr zero
  done;
  (* No clean closed form for the win probability; assert the whole CI
     sits in a wide non-degenerate band. *)
  Ck.proportion_within ~lo:0.15 ~hi:0.85 "both sides selected sometimes"
    ~successes:!zero ~trials

let test_noisy_max_on_table () =
  let t = table 400 in
  let candidates =
    Array.init 4 (fun v -> P.Atom (P.Eq ("a0", V.Int v)))
  in
  (* All cells ~100; just verify it returns a valid index. *)
  let i = Dp.Noisy_max.select (rng ()) ~epsilon:1. t candidates in
  Alcotest.(check bool) "valid index" true (i >= 0 && i < 4)

(* --- Synthetic data --- *)

let synth_domains () =
  List.map
    (fun name -> (name, List.init 4 (fun v -> V.Int v)))
    (Dataset.Schema.names (Dataset.Model.schema model))

let test_synthetic_shapes () =
  let t = table 300 in
  let g = Dp.Synthetic.fit (rng ()) ~epsilon:4. ~domains:(synth_domains ()) t in
  let s = Dp.Synthetic.sample (rng ()) g 120 in
  Alcotest.(check int) "rows" 120 (Dataset.Table.nrows s);
  Alcotest.(check bool) "schema preserved" true
    (Dataset.Schema.equal (Dataset.Table.schema s) (Dataset.Table.schema t))

let test_synthetic_marginals_close_at_high_epsilon () =
  let t = table 2000 in
  let g = Dp.Synthetic.fit (rng ()) ~epsilon:50. ~domains:(synth_domains ()) t in
  let err = Dp.Synthetic.total_variation_error g model in
  Alcotest.(check bool)
    (Printf.sprintf "small marginal error (%.3f)" err)
    true (err < 0.05)

let test_synthetic_utility_improves_with_epsilon () =
  let t = table 500 in
  let err eps =
    Dp.Synthetic.total_variation_error
      (Dp.Synthetic.fit (rng ()) ~epsilon:eps ~domains:(synth_domains ()) t)
      model
  in
  Alcotest.(check bool) "monotone-ish in epsilon" true (err 0.05 > err 20.)

let test_synthetic_requires_domains () =
  Alcotest.(check bool) "missing domain rejected" true
    (try
       ignore (Dp.Synthetic.fit (rng ()) ~epsilon:1. ~domains:[] (table 10));
       false
     with Invalid_argument _ -> true)

let test_synthetic_rows_are_not_real_rows () =
  (* The release-row attacker's failure mode, unit-sized: a synthetic row
     almost never equals a specific real row in a large universe. *)
  let big = Dataset.Synth.kanon_pso_model ~qis:4 ~retained:8 ~domain:16 in
  let t = Dataset.Model.sample_table (rng ()) big 100 in
  let domains =
    List.map
      (fun name -> (name, List.init 16 (fun v -> V.Int v)))
      (Dataset.Schema.names (Dataset.Model.schema big))
  in
  let g = Dp.Synthetic.fit (rng ()) ~epsilon:1. ~domains t in
  let s = Dp.Synthetic.sample (rng ()) g 100 in
  let real = Hashtbl.create 128 in
  Dataset.Table.iter
    (fun _ row -> Hashtbl.replace real (Query.Predicate.encode_row row) ())
    t;
  let collisions =
    Dataset.Table.fold
      (fun acc row ->
        if Hashtbl.mem real (Query.Predicate.encode_row row) then acc + 1 else acc)
      0 s
  in
  Alcotest.(check int) "no verbatim leakage" 0 collisions

(* --- bulk sampling --- *)

let exact_floats = Alcotest.(array (float 0.))

(* The Bulk samplers promise byte-identity to sequential draws from the
   same stream; the loops below draw in explicit ascending order (the
   order the contract names), so the check is exact equality, not a
   statistical band. *)
let test_bulk_matches_sequential_draws () =
  let n = 64 in
  let bulk_lap = Dp.Bulk.laplace_many (rng ()) ~scale:3. n in
  let seq_lap = Array.make n 0. in
  let r = rng () in
  for i = 0 to n - 1 do
    seq_lap.(i) <- Prob.Sampler.laplace r ~scale:3.
  done;
  Alcotest.check exact_floats "laplace_many" seq_lap bulk_lap;
  let bulk_gauss = Dp.Bulk.gaussian_many (rng ()) ~mean:1. ~std:2. n in
  let seq_gauss = Array.make n 0. in
  let r = rng () in
  for i = 0 to n - 1 do
    seq_gauss.(i) <- Prob.Sampler.gaussian r ~mean:1. ~std:2.
  done;
  Alcotest.check exact_floats "gaussian_many" seq_gauss bulk_gauss;
  let bulk_geo = Dp.Bulk.geometric_many (rng ()) ~alpha:0.5 n in
  let seq_geo = Array.make n 0 in
  let r = rng () in
  for i = 0 to n - 1 do
    seq_geo.(i) <- Prob.Sampler.two_sided_geometric r ~alpha:0.5
  done;
  Alcotest.(check (array int)) "geometric_many" seq_geo bulk_geo;
  Alcotest.(check (array (float 0.))) "n = 0" [||]
    (Dp.Bulk.laplace_many (rng ()) ~scale:1. 0)

let test_bulk_validates () =
  List.iter
    (fun f ->
      Alcotest.(check bool) "negative n raises" true
        (try
           ignore (f ());
           false
         with Invalid_argument _ -> true))
    [
      (fun () -> ignore (Dp.Bulk.laplace_many (rng ()) ~scale:1. (-1)));
      (fun () -> ignore (Dp.Bulk.gaussian_many (rng ()) ~mean:0. ~std:1. (-1)));
      (fun () -> ignore (Dp.Bulk.geometric_many (rng ()) ~alpha:0.5 (-1)));
    ]

(* Batched counts must equal a hand-rolled per-query loop at the split
   budget: counts are exact (no RNG), so the noise stream lines up. *)
let batch_queries =
  [|
    P.True;
    P.Atom (P.Eq ("a0", V.Int 1));
    P.Atom (P.Range ("a1", 0., 2.));
    P.True;
  |]

let test_batched_counts_match_per_query () =
  let t = table 60 in
  let k = Array.length batch_queries in
  let eps = 1.2 in
  let per = eps /. float_of_int k in
  let lap_batch = Dp.Laplace.counts (rng ()) ~epsilon:eps t batch_queries in
  let lap_loop = Array.make k 0. in
  let r = rng () in
  for i = 0 to k - 1 do
    lap_loop.(i) <- Dp.Laplace.count r ~epsilon:per t batch_queries.(i)
  done;
  Alcotest.check exact_floats "laplace counts" lap_loop lap_batch;
  let geo_batch = Dp.Geometric.counts (rng ()) ~epsilon:eps t batch_queries in
  let geo_loop = Array.make k 0 in
  let r = rng () in
  for i = 0 to k - 1 do
    geo_loop.(i) <- Dp.Geometric.count r ~epsilon:per t batch_queries.(i)
  done;
  Alcotest.(check (array int)) "geometric counts" geo_loop geo_batch;
  let delta = 1e-5 in
  let dper = delta /. float_of_int k in
  let gauss_batch =
    Dp.Gaussian.counts (rng ()) ~epsilon:eps ~delta t batch_queries
  in
  let gauss_loop = Array.make k 0. in
  let r = rng () in
  for i = 0 to k - 1 do
    gauss_loop.(i) <-
      Dp.Gaussian.count r ~epsilon:per ~delta:dper t batch_queries.(i)
  done;
  Alcotest.check exact_floats "gaussian counts" gauss_loop gauss_batch

let test_accountant_spend_many () =
  let a = Dp.Accountant.create () in
  Dp.Accountant.spend_many a ~epsilon:0.1 ~n:5 "bulk";
  Alcotest.(check int) "one step per query" 5
    (List.length (Dp.Accountant.steps a));
  let e, d = Dp.Accountant.basic a in
  close ~tol:1e-12 "basic epsilon composes" 0.5 e;
  close ~tol:1e-12 "no delta" 0. d;
  Dp.Accountant.spend_many a ~epsilon:0.2 ~n:0 "noop";
  Alcotest.(check int) "n = 0 spends nothing" 5
    (List.length (Dp.Accountant.steps a));
  List.iter
    (fun f ->
      Alcotest.(check bool) "spend_many validates" true
        (try
           f ();
           false
         with Invalid_argument _ -> true))
    [
      (fun () -> Dp.Accountant.spend_many a ~epsilon:0.1 ~n:(-1) "bad");
      (fun () -> Dp.Accountant.spend_many a ~epsilon:0. ~n:1 "bad");
    ]

let test_bulk_samples_counter () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      ignore (Dp.Bulk.laplace_many (rng ()) ~scale:1. 17);
      ignore (Dp.Bulk.geometric_many (rng ()) ~alpha:0.5 5);
      let counters =
        List.filter_map
          (fun ((m : Obs.Metric.meta), v) ->
            if m.Obs.Metric.timing then None else Some (m.Obs.Metric.name, v))
          (Obs.Metric.values ()).Obs.Metric.v_counters
      in
      Alcotest.(check (option int)) "bulk samples counted" (Some 22)
        (List.assoc_opt "dp.bulk_samples" counters);
      Alcotest.(check (option int)) "bulk draws are noise draws" (Some 22)
        (List.assoc_opt "dp.noise_draws" counters))

let test_laplace_counts_accountant () =
  let t = table 30 in
  let a = Dp.Accountant.create () in
  ignore (Dp.Laplace.counts ~accountant:a (rng ()) ~epsilon:1. t batch_queries);
  Alcotest.(check int) "one step per released count"
    (Array.length batch_queries)
    (List.length (Dp.Accountant.steps a));
  close ~tol:1e-12 "total budget recorded" 1. (fst (Dp.Accountant.basic a))

(* --- QCheck properties --- *)

let qcheck =
  let open QCheck in
  [
    Test.make ~name:"geometric mechanism keeps integrality" ~count:200
      (int_range 0 1000) (fun v ->
        let r = rng () in
        let noisy = Dp.Geometric.perturb r ~epsilon:1. v in
        (* trivially integral by type; check it is within a sane band *)
        abs (noisy - v) < 100);
    Test.make ~name:"rr estimate within plausible band" ~count:50
      (int_range 0 500) (fun ones ->
        let bits = Array.init 500 (fun i -> i < ones) in
        let r = rng () in
        let est =
          Dp.Randomized_response.estimate ~epsilon:2.
            (Dp.Randomized_response.survey r ~epsilon:2. bits)
        in
        Float.abs (est -. float_of_int ones) < 100.);
    Test.make ~name:"accountant basic epsilon is monotone" ~count:100
      (list_of_size Gen.(1 -- 10) (float_range 0.01 1.))
      (fun epss ->
        let a = Dp.Accountant.create () in
        let partial = ref [] in
        List.iter
          (fun e ->
            Dp.Accountant.spend a ~epsilon:e "q";
            partial := fst (Dp.Accountant.basic a) :: !partial)
          epss;
        let rec increasing = function
          | a :: b :: rest -> a >= b -. 1e-12 && increasing (b :: rest)
          | _ -> true
        in
        increasing !partial);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "dp"
    [
      ( "laplace",
        [
          Alcotest.test_case "count unbiased" `Slow test_laplace_count_unbiased;
          Alcotest.test_case "noise scales with epsilon" `Slow
            test_laplace_noise_scales_with_epsilon;
          Alcotest.test_case "DP inequality" `Slow test_laplace_dp_inequality;
          Alcotest.test_case "sum clamps" `Slow test_laplace_sum_clamps;
          Alcotest.test_case "mean" `Slow test_laplace_mean;
          Alcotest.test_case "counts splits budget" `Slow
            test_laplace_counts_splits_budget;
          Alcotest.test_case "epsilon validated" `Quick test_laplace_epsilon_validated;
        ] );
      ( "geometric",
        [ Alcotest.test_case "integer and unbiased" `Slow test_geometric_integer_and_unbiased ] );
      ( "gaussian",
        [
          Alcotest.test_case "sigma formula" `Quick test_gaussian_sigma_formula;
          Alcotest.test_case "count noise" `Slow test_gaussian_count_noise;
          Alcotest.test_case "validates" `Quick test_gaussian_validates;
        ] );
      ( "randomized response",
        [
          Alcotest.test_case "flip probability" `Quick test_rr_flip_probability;
          Alcotest.test_case "estimate unbiased" `Slow test_rr_estimate_unbiased;
          Alcotest.test_case "high epsilon truthful" `Quick test_rr_high_epsilon_truthful;
        ] );
      ( "exponential",
        [
          Alcotest.test_case "prefers high utility" `Slow
            test_exponential_prefers_high_utility;
          Alcotest.test_case "low epsilon uniformish" `Slow
            test_exponential_low_epsilon_uniformish;
          Alcotest.test_case "median" `Quick test_exponential_median;
        ] );
      ( "sparse vector",
        [
          Alcotest.test_case "obvious answers" `Quick test_svt_obvious_answers;
          Alcotest.test_case "budget exhausted" `Quick test_svt_budget_exhausted;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "partition and counts" `Quick
            test_histogram_partition_and_counts;
          Alcotest.test_case "noisy near exact" `Quick test_histogram_noisy_near_exact;
        ] );
      ( "tree",
        [
          Alcotest.test_case "unbiased total" `Slow test_tree_unbiased_total;
          Alcotest.test_case "range near truth" `Quick
            test_tree_range_matches_truth_roughly;
          Alcotest.test_case "beats flat on wide ranges" `Slow
            test_tree_beats_flat_on_wide_ranges;
          Alcotest.test_case "deterministic per seed" `Quick
            test_tree_deterministic;
          Alcotest.test_case "DP inequality" `Slow test_tree_dp_inequality;
          Alcotest.test_case "validates" `Quick test_tree_validates;
        ] );
      ( "subsample",
        [
          Alcotest.test_case "amplification formula" `Quick
            test_subsample_amplification_formula;
          Alcotest.test_case "inverse" `Quick test_subsample_inverse;
          Alcotest.test_case "rate" `Quick test_subsample_rate;
          Alcotest.test_case "mechanism runs" `Quick test_subsample_mechanism_runs;
        ] );
      ( "noisy max",
        [
          Alcotest.test_case "clear winner" `Quick test_noisy_max_picks_clear_winner;
          Alcotest.test_case "close calls randomized" `Quick
            test_noisy_max_randomizes_close_calls;
          Alcotest.test_case "on table" `Quick test_noisy_max_on_table;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "shapes" `Quick test_synthetic_shapes;
          Alcotest.test_case "marginals at high epsilon" `Quick
            test_synthetic_marginals_close_at_high_epsilon;
          Alcotest.test_case "utility improves with epsilon" `Quick
            test_synthetic_utility_improves_with_epsilon;
          Alcotest.test_case "requires domains" `Quick test_synthetic_requires_domains;
          Alcotest.test_case "rows are not real rows" `Quick
            test_synthetic_rows_are_not_real_rows;
        ] );
      ( "accountant",
        [
          Alcotest.test_case "basic" `Quick test_accountant_basic;
          Alcotest.test_case "advanced beats basic" `Quick
            test_accountant_advanced_beats_basic_for_many_queries;
          Alcotest.test_case "empty" `Quick test_accountant_empty;
          Alcotest.test_case "validates" `Quick test_accountant_validates;
          Alcotest.test_case "spend_many" `Quick test_accountant_spend_many;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "matches sequential draws" `Quick
            test_bulk_matches_sequential_draws;
          Alcotest.test_case "validates" `Quick test_bulk_validates;
          Alcotest.test_case "batched counts match per-query" `Quick
            test_batched_counts_match_per_query;
          Alcotest.test_case "bulk samples counter" `Quick
            test_bulk_samples_counter;
          Alcotest.test_case "laplace counts accountant" `Quick
            test_laplace_counts_accountant;
        ] );
      ("properties", qcheck);
    ]
