(* Tests for the prob substrate: RNG determinism and uniformity, discrete
   distributions, samplers (moment checks), statistics, hashing, decay
   classification. Statistical claims are asserted through Stattest.Check
   confidence intervals rather than hand-picked tolerances; `close` remains
   only for deterministic quantities with an exact analytic value. *)

module Ck = Stattest.Check

let rng () = Prob.Rng.create ~seed:12345L ()

let check_float = Alcotest.(check (float 1e-9))

let close ?(tol = 0.05) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %g within %g, got %g" msg expected tol actual

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Prob.Rng.create ~seed:7L () and b = Prob.Rng.create ~seed:7L () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prob.Rng.bits64 a) (Prob.Rng.bits64 b)
  done

let test_rng_seed_changes_stream () =
  let a = Prob.Rng.create ~seed:1L () and b = Prob.Rng.create ~seed:2L () in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prob.Rng.bits64 a <> Prob.Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_rng_int_bounds () =
  let r = rng () in
  for _ = 1 to 10_000 do
    let v = Prob.Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_int_uniform () =
  let r = rng () in
  let counts = Array.make 5 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    let v = Prob.Rng.int r 5 in
    counts.(v) <- counts.(v) + 1
  done;
  Ck.uniform "rng int over 5 buckets" counts

let test_rng_int_invalid () =
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Prob.Rng.int (rng ()) 0))

let test_rng_int_in () =
  let r = rng () in
  for _ = 1 to 1000 do
    let v = Prob.Rng.int_in r (-3) 3 in
    if v < -3 || v > 3 then Alcotest.failf "out of range: %d" v
  done

let test_rng_uniform_range () =
  let r = rng () in
  for _ = 1 to 10_000 do
    let u = Prob.Rng.uniform r in
    if u < 0. || u >= 1. then Alcotest.failf "uniform out of range: %f" u
  done

let test_rng_split_independent () =
  let r = rng () in
  let a = Prob.Rng.split r in
  let b = Prob.Rng.split r in
  Alcotest.(check bool) "split streams differ" true
    (Prob.Rng.bits64 a <> Prob.Rng.bits64 b)

let test_rng_copy () =
  let r = rng () in
  let c = Prob.Rng.copy r in
  Alcotest.(check int64) "copy continues identically" (Prob.Rng.bits64 r)
    (Prob.Rng.bits64 c)

let test_rng_shuffle_permutes () =
  let r = rng () in
  let a = Array.init 50 Fun.id in
  Prob.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let r = rng () in
  for _ = 1 to 100 do
    let s = Prob.Rng.sample_without_replacement r 5 20 in
    Alcotest.(check int) "size" 5 (Array.length s);
    let dedup = List.sort_uniq compare (Array.to_list s) in
    Alcotest.(check int) "distinct" 5 (List.length dedup);
    Array.iter (fun i -> if i < 0 || i >= 20 then Alcotest.fail "out of range") s
  done

let test_sample_without_replacement_all () =
  let s = Prob.Rng.sample_without_replacement (rng ()) 10 10 in
  Alcotest.(check (array int)) "k = n takes everything" (Array.init 10 Fun.id) s

(* --- Distribution --- *)

let test_dist_normalizes () =
  let d = Prob.Distribution.of_weights [ ("a", 1.); ("b", 3.) ] in
  check_float "quarter" 0.25 (Prob.Distribution.prob d "a");
  check_float "three quarters" 0.75 (Prob.Distribution.prob d "b")

let test_dist_merges_duplicates () =
  let d = Prob.Distribution.of_weights [ ("a", 1.); ("a", 1.); ("b", 2.) ] in
  Alcotest.(check int) "merged support" 2 (Array.length (Prob.Distribution.support d));
  check_float "merged mass" 0.5 (Prob.Distribution.prob d "a")

let test_dist_off_support () =
  let d = Prob.Distribution.uniform [ 1; 2; 3 ] in
  check_float "off support" 0. (Prob.Distribution.prob d 9)

let test_dist_empty_rejected () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Distribution.of_weights: empty support") (fun () ->
      ignore (Prob.Distribution.of_weights ([] : (int * float) list)))

let test_dist_negative_rejected () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Distribution.of_weights: weights must be finite and >= 0")
    (fun () -> ignore (Prob.Distribution.of_weights [ (1, -1.) ]))

let test_dist_sampling_frequencies () =
  let d = Prob.Distribution.of_weights [ (0, 0.7); (1, 0.3) ] in
  let r = rng () in
  let ones = ref 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    if Prob.Distribution.sample r d = 1 then incr ones
  done;
  Ck.proportion ~expected:0.3 "sampled frequency" ~successes:!ones ~trials

let test_dist_entropy_uniform () =
  let d = Prob.Distribution.uniform [ 0; 1; 2; 3 ] in
  check_float "entropy of uniform-4" 2. (Prob.Distribution.entropy d);
  check_float "min-entropy of uniform-4" 2. (Prob.Distribution.min_entropy d)

let test_dist_entropy_point_mass () =
  check_float "entropy of point mass" 0.
    (Prob.Distribution.entropy (Prob.Distribution.singleton 42))

let test_dist_tv_distance () =
  let a = Prob.Distribution.of_weights [ (0, 0.5); (1, 0.5) ] in
  let b = Prob.Distribution.of_weights [ (0, 1.) ] in
  check_float "TV" 0.5 (Prob.Distribution.total_variation a b);
  check_float "TV self" 0. (Prob.Distribution.total_variation a a)

let test_dist_map_merges () =
  let d = Prob.Distribution.uniform [ 0; 1; 2; 3 ] in
  let e = Prob.Distribution.map (fun x -> x mod 2) d in
  check_float "pushforward" 0.5 (Prob.Distribution.prob e 0)

let test_dist_product () =
  let d = Prob.Distribution.of_weights [ (0, 0.5); (1, 0.5) ] in
  let p = Prob.Distribution.product d d in
  check_float "independent product" 0.25 (Prob.Distribution.prob p (0, 1))

let test_dist_expect () =
  let d = Prob.Distribution.of_weights [ (0, 0.5); (10, 0.5) ] in
  check_float "expectation" 5. (Prob.Distribution.expect float_of_int d)

let test_dist_zipf_monotone () =
  let d = Prob.Distribution.zipf 10 in
  for i = 0 to 8 do
    if Prob.Distribution.prob d i < Prob.Distribution.prob d (i + 1) then
      Alcotest.fail "zipf not monotone"
  done

(* --- Sampler --- *)

let draws sample count =
  let r = rng () in
  Array.init count (fun _ -> sample r)

(* The second moment is checked as a mean of squares: the CLT interval in
   Ck.mean is valid for any finite-variance population, whereas Ck.variance's
   chi-square interval assumes normal data (used below only for the
   gaussian sampler, where it is exact). *)

let test_laplace_moments () =
  let xs = draws (fun r -> Prob.Sampler.laplace r ~scale:2.) 100_000 in
  Ck.mean ~expected:0. "laplace mean" xs;
  (* E[X^2] = Var = 2 b^2 = 8 *)
  Ck.mean ~expected:8. "laplace second moment" (Array.map (fun x -> x *. x) xs);
  let cdf x =
    if x < 0. then 0.5 *. Float.exp (x /. 2.)
    else 1. -. (0.5 *. Float.exp (-.x /. 2.))
  in
  Ck.ks_cdf ~cdf "laplace distribution shape" xs

let test_gaussian_moments () =
  let xs = draws (fun r -> Prob.Sampler.gaussian r ~mean:3. ~std:2.) 100_000 in
  Ck.mean ~expected:3. "gaussian mean" xs;
  Ck.variance ~expected:4. "gaussian variance" xs;
  Ck.ks_cdf
    ~cdf:(fun x -> Stattest.Special.normal_cdf ((x -. 3.) /. 2.))
    "gaussian distribution shape" xs

let test_exponential_mean () =
  let xs = draws (fun r -> Prob.Sampler.exponential r ~rate:4.) 100_000 in
  Ck.mean ~expected:0.25 "exponential mean" xs;
  Ck.ks_cdf
    ~cdf:(fun x -> if x < 0. then 0. else 1. -. Float.exp (-4. *. x))
    "exponential distribution shape" xs

let test_geometric_mean () =
  let xs = draws (fun r -> float_of_int (Prob.Sampler.geometric r ~p:0.25)) 100_000 in
  (* E = (1-p)/p = 3 *)
  Ck.mean ~expected:3. "geometric mean" xs

let test_two_sided_geometric_symmetric () =
  let xs =
    draws (fun r -> float_of_int (Prob.Sampler.two_sided_geometric r ~alpha:0.5)) 100_000
  in
  Ck.mean ~expected:0. "two-sided geometric mean" xs;
  (* E[K^2] = Var = 2 alpha / (1 - alpha)^2 = 4 at alpha = 1/2 *)
  Ck.mean ~expected:4. "two-sided geometric second moment"
    (Array.map (fun x -> x *. x) xs)

let test_bernoulli_frequency () =
  let r = rng () in
  let trials = 100_000 in
  let successes = ref 0 in
  for _ = 1 to trials do
    if Prob.Sampler.bernoulli r ~p:0.3 then incr successes
  done;
  Ck.proportion ~expected:0.3 "bernoulli frequency" ~successes:!successes ~trials

let test_binomial_mean () =
  let xs = draws (fun r -> float_of_int (Prob.Sampler.binomial r ~n:20 ~p:0.5)) 20_000 in
  Ck.mean ~expected:10. "binomial mean" xs;
  (* E[(X - np)^2] = np(1-p) = 5; mean known exactly, so CLT applies. *)
  Ck.mean ~expected:5. "binomial spread"
    (Array.map (fun x -> (x -. 10.) *. (x -. 10.)) xs)

let test_sampler_invalid_args () =
  let r = rng () in
  Alcotest.check_raises "laplace scale"
    (Invalid_argument "Sampler.laplace: scale must be positive") (fun () ->
      ignore (Prob.Sampler.laplace r ~scale:0.));
  Alcotest.check_raises "geometric p"
    (Invalid_argument "Sampler.geometric") (fun () ->
      ignore (Prob.Sampler.geometric r ~p:0.))

(* --- Stats --- *)

let test_stats_summary () =
  let s = Prob.Stats.summarize [| 1.; 2.; 3.; 4. |] in
  check_float "mean" 2.5 s.Prob.Stats.mean;
  check_float "min" 1. s.Prob.Stats.min;
  check_float "max" 4. s.Prob.Stats.max;
  Alcotest.(check int) "count" 4 s.Prob.Stats.count;
  close ~tol:1e-9 "variance" (5. /. 3.) s.Prob.Stats.variance

let test_stats_median_quantile () =
  check_float "median odd" 2. (Prob.Stats.quantile [| 3.; 1.; 2. |] 0.5);
  check_float "median even" 2.5 (Prob.Stats.quantile [| 4.; 1.; 2.; 3. |] 0.5);
  check_float "q0" 1. (Prob.Stats.quantile [| 1.; 2.; 3. |] 0.);
  check_float "q1" 3. (Prob.Stats.quantile [| 1.; 2.; 3. |] 1.)

let test_stats_wilson_interval () =
  let lo, hi = Prob.Stats.proportion_ci ~successes:50 ~trials:100 in
  Alcotest.(check bool) "contains p-hat" true (lo < 0.5 && 0.5 < hi);
  Alcotest.(check bool) "reasonable width" true (hi -. lo < 0.25);
  let lo0, _ = Prob.Stats.proportion_ci ~successes:0 ~trials:100 in
  check_float "zero successes floor" 0. lo0

let test_stats_histogram () =
  let h = Prob.Stats.histogram ~bins:2 ~lo:0. ~hi:10. [| 1.; 2.; 7.; 11. |] in
  Alcotest.(check (array int)) "bins" [| 2; 2 |] h

let test_stats_pearson () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float "self correlation" 1. (Prob.Stats.pearson xs xs);
  check_float "anti correlation" (-1.)
    (Prob.Stats.pearson xs (Array.map (fun x -> -.x) xs))

let test_stats_fraction () =
  check_float "fraction" 0.5 (Prob.Stats.fraction (fun x -> x > 0) [| 1; -1; 2; -2 |])

(* --- Hashing --- *)

let test_hash_deterministic () =
  Alcotest.(check int64) "same input same hash"
    (Prob.Hashing.hash64 ~salt:1L "hello")
    (Prob.Hashing.hash64 ~salt:1L "hello")

let test_hash_salt_sensitivity () =
  Alcotest.(check bool) "different salts differ" true
    (Prob.Hashing.hash64 ~salt:1L "hello" <> Prob.Hashing.hash64 ~salt:2L "hello")

let test_hash_bucket_uniform () =
  let buckets = 10 in
  let counts = Array.make buckets 0 in
  for i = 0 to 9999 do
    let b = Prob.Hashing.bucket ~salt:99L ~buckets (string_of_int i) in
    counts.(b) <- counts.(b) + 1
  done;
  Ck.uniform "hash bucket frequencies" counts

let test_hash_bit_balance () =
  let ones = ref 0 in
  for i = 0 to 9999 do
    if Prob.Hashing.bit ~salt:5L ~index:17 (string_of_int i) then incr ones
  done;
  Ck.proportion ~expected:0.5 "bit balance" ~successes:!ones ~trials:10_000

(* Words allocated by [f]: minor + major - promoted from [Gc.counters],
   read between two forced minor collections. *)
let words_allocated f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* The byte loop allocates nothing: hashing a 4 KiB string costs exactly
   the words hashing the empty string does (the boxed result), and no
   more than a boxed int64. *)
let test_hash_allocation_free () =
  let long = String.init 4096 (fun i -> Char.chr (i land 255)) in
  let cost s = words_allocated (fun () -> ignore (Prob.Hashing.hash64 ~salt:7L s)) in
  let empty = cost "" in
  Alcotest.(check (float 0.)) "4 KiB costs what the empty string costs" empty (cost long);
  Alcotest.(check (float 0.)) "at most one boxed int64" 0.
    (Float.max 0. (empty -. words_allocated ignore -. 3.));
  Alcotest.(check int64) "prefix hashes the same bytes"
    (Prob.Hashing.hash64 ~salt:7L (String.sub long 0 100))
    (Prob.Hashing.hash64_prefix ~salt:7L (Bytes.of_string long) 100)

(* --- Decay --- *)

let test_decay_plateau () =
  match Prob.Decay.classify [| (10, 0.37); (100, 0.38); (1000, 0.36) |] with
  | Prob.Decay.Plateau p -> close ~tol:0.02 "plateau level" 0.37 p
  | other -> Alcotest.failf "expected plateau, got %s" (Prob.Decay.to_string other)

let test_decay_polynomial () =
  let points = Array.map (fun n -> (n, 10. /. float_of_int n)) [| 10; 100; 1000 |] in
  match Prob.Decay.classify points with
  | Prob.Decay.Polynomial_decay k -> close ~tol:0.05 "exponent" 1. k
  | other -> Alcotest.failf "expected decay, got %s" (Prob.Decay.to_string other)

let test_decay_below_resolution () =
  match Prob.Decay.classify [| (10, 0.); (100, 0.) |] with
  | Prob.Decay.Below_resolution -> ()
  | other -> Alcotest.failf "expected below-resolution, got %s" (Prob.Decay.to_string other)

(* --- QCheck properties --- *)

let qcheck =
  let open QCheck in
  [
    Test.make ~name:"distribution probabilities sum to 1" ~count:200
      (list_of_size Gen.(1 -- 10) (pair small_nat (float_bound_inclusive 10.)))
      (fun weights ->
        let weights = List.map (fun (v, w) -> (v, w +. 0.01)) weights in
        let d = Prob.Distribution.of_weights weights in
        let total =
          Array.fold_left
            (fun acc v -> acc +. Prob.Distribution.prob d v)
            0.
            (Prob.Distribution.support d)
        in
        Float.abs (total -. 1.) < 1e-9);
    Test.make ~name:"min-entropy <= entropy" ~count:200
      (list_of_size Gen.(1 -- 10) (pair small_nat (float_bound_inclusive 10.)))
      (fun weights ->
        let weights = List.map (fun (v, w) -> (v, w +. 0.01)) weights in
        let d = Prob.Distribution.of_weights weights in
        Prob.Distribution.min_entropy d <= Prob.Distribution.entropy d +. 1e-9);
    Test.make ~name:"quantile is monotone in q" ~count:200
      (pair (array_of_size Gen.(2 -- 30) (float_bound_inclusive 100.))
         (pair (float_bound_inclusive 1.) (float_bound_inclusive 1.)))
      (fun (xs, (q1, q2)) ->
        let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
        Prob.Stats.quantile xs lo <= Prob.Stats.quantile xs hi +. 1e-9);
    Test.make ~name:"rng int stays within bound" ~count:500
      (pair int64 (int_range 1 1000))
      (fun (seed, bound) ->
        let r = Prob.Rng.create ~seed () in
        let v = Prob.Rng.int r bound in
        0 <= v && v < bound);
    Test.make ~name:"hash bucket stays within range" ~count:500
      (pair string (int_range 1 64))
      (fun (s, buckets) ->
        let b = Prob.Hashing.bucket ~salt:3L ~buckets s in
        0 <= b && b < buckets);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "prob"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed changes stream" `Quick test_rng_seed_changes_stream;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniform" `Slow test_rng_int_uniform;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "int_in range" `Quick test_rng_int_in;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "sample without replacement" `Quick
            test_sample_without_replacement;
          Alcotest.test_case "sample w/o replacement, k=n" `Quick
            test_sample_without_replacement_all;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "normalizes" `Quick test_dist_normalizes;
          Alcotest.test_case "merges duplicates" `Quick test_dist_merges_duplicates;
          Alcotest.test_case "off support" `Quick test_dist_off_support;
          Alcotest.test_case "empty rejected" `Quick test_dist_empty_rejected;
          Alcotest.test_case "negative rejected" `Quick test_dist_negative_rejected;
          Alcotest.test_case "sampling frequencies" `Slow test_dist_sampling_frequencies;
          Alcotest.test_case "entropy uniform" `Quick test_dist_entropy_uniform;
          Alcotest.test_case "entropy point mass" `Quick test_dist_entropy_point_mass;
          Alcotest.test_case "total variation" `Quick test_dist_tv_distance;
          Alcotest.test_case "map merges" `Quick test_dist_map_merges;
          Alcotest.test_case "product" `Quick test_dist_product;
          Alcotest.test_case "expectation" `Quick test_dist_expect;
          Alcotest.test_case "zipf monotone" `Quick test_dist_zipf_monotone;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "laplace moments" `Slow test_laplace_moments;
          Alcotest.test_case "gaussian moments" `Slow test_gaussian_moments;
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
          Alcotest.test_case "geometric mean" `Slow test_geometric_mean;
          Alcotest.test_case "two-sided geometric symmetric" `Slow
            test_two_sided_geometric_symmetric;
          Alcotest.test_case "bernoulli frequency" `Slow test_bernoulli_frequency;
          Alcotest.test_case "binomial mean" `Slow test_binomial_mean;
          Alcotest.test_case "invalid args" `Quick test_sampler_invalid_args;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "median/quantile" `Quick test_stats_median_quantile;
          Alcotest.test_case "wilson interval" `Quick test_stats_wilson_interval;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "pearson" `Quick test_stats_pearson;
          Alcotest.test_case "fraction" `Quick test_stats_fraction;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "salt sensitivity" `Quick test_hash_salt_sensitivity;
          Alcotest.test_case "bucket uniform" `Quick test_hash_bucket_uniform;
          Alcotest.test_case "bit balance" `Quick test_hash_bit_balance;
          Alcotest.test_case "allocation-free" `Quick test_hash_allocation_free;
        ] );
      ( "decay",
        [
          Alcotest.test_case "plateau" `Quick test_decay_plateau;
          Alcotest.test_case "polynomial" `Quick test_decay_polynomial;
          Alcotest.test_case "below resolution" `Quick test_decay_below_resolution;
        ] );
      ("properties", qcheck);
    ]
