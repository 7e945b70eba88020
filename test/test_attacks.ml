(* Tests for the attacks library: reconstruction (exhaustive, least-squares,
   LP decoding), quasi-identifier linkage, sparse-data de-anonymization,
   membership inference, and the census pipeline. *)

let rng () = Prob.Rng.create ~seed:1789L ()

let random_bits r n = Array.init n (fun _ -> if Prob.Rng.bool r then 1 else 0)

(* --- Reconstruction --- *)

let test_agreement () =
  Alcotest.(check (float 1e-9)) "half" 0.5
    (Attacks.Reconstruction.agreement [| 0; 1; 0; 1 |] [| 0; 1; 1; 0 |])

let test_exhaustive_exact_answers () =
  let r = rng () in
  let truth = random_bits r 8 in
  let result = Attacks.Reconstruction.exhaustive (Query.Oracle.exact truth) ~truth in
  Alcotest.(check int) "perfect reconstruction" 0
    result.Attacks.Reconstruction.hamming_errors;
  Alcotest.(check int) "all queries asked" 256
    result.Attacks.Reconstruction.queries_used

let test_exhaustive_tolerates_small_noise () =
  let r = rng () in
  let truth = random_bits r 8 in
  let oracle = Query.Oracle.bounded_noise r ~magnitude:1. truth in
  let result = Attacks.Reconstruction.exhaustive oracle ~truth in
  (* With alpha = 1 = n/8 the candidate disagrees on at most a few bits. *)
  Alcotest.(check bool) "near-perfect" true
    (result.Attacks.Reconstruction.agreement >= 0.75)

let test_exhaustive_rejects_large_n () =
  Alcotest.check_raises "n > 16"
    (Invalid_argument "Reconstruction.exhaustive: n > 16") (fun () ->
      let truth = Array.make 17 0 in
      ignore (Attacks.Reconstruction.exhaustive (Query.Oracle.exact truth) ~truth))

let test_least_squares_exact_answers () =
  let r = rng () in
  let truth = random_bits r 48 in
  let result =
    Attacks.Reconstruction.least_squares r (Query.Oracle.exact truth)
      ~queries:(8 * 48) ~truth
  in
  Alcotest.(check bool) "blatant reconstruction" true
    (result.Attacks.Reconstruction.agreement
    >= Attacks.Reconstruction.blatant_non_privacy_threshold)

let test_least_squares_small_noise () =
  let r = rng () in
  let truth = random_bits r 64 in
  let oracle = Query.Oracle.bounded_noise r ~magnitude:2. truth in
  let result =
    Attacks.Reconstruction.least_squares r oracle ~queries:(8 * 64) ~truth
  in
  Alcotest.(check bool) "still mostly recovered" true
    (result.Attacks.Reconstruction.agreement >= 0.9)

let test_least_squares_huge_noise_fails () =
  let r = rng () in
  let truth = random_bits r 64 in
  let oracle = Query.Oracle.bounded_noise r ~magnitude:24. truth in
  let result =
    Attacks.Reconstruction.least_squares r oracle ~queries:(8 * 64) ~truth
  in
  Alcotest.(check bool) "defended by Omega(n) noise" true
    (result.Attacks.Reconstruction.agreement
    < Attacks.Reconstruction.blatant_non_privacy_threshold)

(* E1's quick least-squares rows: n = 64, 512 queries, every alpha of the
   table, two trials each. Each decode's box solve must stop on its
   step-length test, not at the 2,000-iteration cap. *)
let test_least_squares_converges_at_e1_shape () =
  let r = rng () in
  let n = 64 in
  let sqrt_n = Float.sqrt (float_of_int n) in
  List.iter
    (fun alpha ->
      for trial = 1 to 2 do
        let truth = random_bits r n in
        let oracle =
          if alpha = 0. then Query.Oracle.exact truth
          else Query.Oracle.bounded_noise r ~magnitude:alpha truth
        in
        let result =
          Attacks.Reconstruction.least_squares r oracle ~queries:(8 * n) ~truth
        in
        Alcotest.(check bool)
          (Printf.sprintf "alpha %.1f trial %d converged" alpha trial)
          true result.Attacks.Reconstruction.converged
      done)
    [ 0.; 0.5 *. sqrt_n; sqrt_n; float_of_int n /. 8.; float_of_int n /. 3. ]

let test_lp_decode_exact_answers () =
  let r = rng () in
  let truth = random_bits r 24 in
  let result =
    Attacks.Reconstruction.lp_decode r (Query.Oracle.exact truth) ~queries:120 ~truth
  in
  Alcotest.(check bool) "blatant reconstruction" true
    (result.Attacks.Reconstruction.agreement
    >= Attacks.Reconstruction.blatant_non_privacy_threshold)

let test_laplace_oracle_reconstruction () =
  (* Constant-scale Laplace noise (~eps per query, no budget) does not stop
     least squares — sub-sqrt(n) noise is below the Theorem 1.1 bar. *)
  let r = rng () in
  let truth = random_bits r 64 in
  let oracle = Query.Oracle.laplace r ~scale:1. truth in
  let result =
    Attacks.Reconstruction.least_squares r oracle ~queries:(8 * 64) ~truth
  in
  Alcotest.(check bool) "noise too small to defend" true
    (result.Attacks.Reconstruction.agreement >= 0.9)

(* --- Linkage --- *)

let test_unique_fraction () =
  let schema =
    Dataset.Schema.make
      [
        { Dataset.Schema.name = "a"; kind = Dataset.Value.Kint; role = Dataset.Schema.Quasi_identifier };
      ]
  in
  let t =
    Dataset.Table.make schema
      [| [| Dataset.Value.Int 1 |]; [| Dataset.Value.Int 1 |]; [| Dataset.Value.Int 2 |] |]
  in
  Alcotest.(check (float 1e-9)) "one of three unique" (1. /. 3.)
    (Attacks.Linkage.unique_fraction t ~on:[ "a" ])

let test_uniqueness_histogram () =
  let schema =
    Dataset.Schema.make
      [
        { Dataset.Schema.name = "a"; kind = Dataset.Value.Kint; role = Dataset.Schema.Quasi_identifier };
      ]
  in
  let t =
    Dataset.Table.make schema
      [| [| Dataset.Value.Int 1 |]; [| Dataset.Value.Int 1 |]; [| Dataset.Value.Int 2 |] |]
  in
  Alcotest.(check (list (pair int int))) "histogram" [ (1, 1); (2, 2) ]
    (Attacks.Linkage.uniqueness_histogram t ~on:[ "a" ])

let test_linkage_end_to_end () =
  let r = rng () in
  let population = Dataset.Synth.population r ~n:1500 () in
  let release = Dataset.Synth.gic_release population in
  let voters = Dataset.Synth.voter_list r population ~coverage:0.5 in
  let stats =
    Attacks.Linkage.reidentify ~population ~release ~aux:voters
      ~on:[ "zip"; "birth_date"; "sex" ] ~name_attr:"name"
  in
  Alcotest.(check (float 1e-9)) "linkage is exact here" 1.
    stats.Attacks.Linkage.precision;
  Alcotest.(check bool) "large minority re-identified" true
    (stats.Attacks.Linkage.reidentification_rate > 0.3)

let test_linkage_requires_alignment () =
  let r = rng () in
  let population = Dataset.Synth.population r ~n:20 () in
  let release = Dataset.Synth.gic_release population in
  let short = Dataset.Table.select population [| 0; 1 |] in
  Alcotest.(check bool) "misaligned rejected" true
    (try
       ignore
         (Attacks.Linkage.reidentify ~population:short ~release
            ~aux:release ~on:[ "zip" ] ~name_attr:"name");
       false
     with Invalid_argument _ -> true)

let test_linkage_unique_both_sides () =
  (* A QI combination duplicated on the aux side must not produce a claim. *)
  let schema =
    Dataset.Schema.make
      [
        { Dataset.Schema.name = "q"; kind = Dataset.Value.Kint; role = Dataset.Schema.Quasi_identifier };
      ]
  in
  let release = Dataset.Table.make schema [| [| Dataset.Value.Int 1 |] |] in
  let aux =
    Dataset.Table.make schema [| [| Dataset.Value.Int 1 |]; [| Dataset.Value.Int 1 |] |]
  in
  Alcotest.(check int) "no claim on ambiguous aux" 0
    (List.length (Attacks.Linkage.link ~release ~aux ~on:[ "q" ]))

(* --- Sparse linkage --- *)

let test_sparse_support () =
  let ratings =
    [|
      { Dataset.Synth.user = 0; movie = 0; stars = 5; day = 0 };
      { Dataset.Synth.user = 1; movie = 0; stars = 4; day = 1 };
      { Dataset.Synth.user = 1; movie = 2; stars = 3; day = 2 };
    |]
  in
  Alcotest.(check (array int)) "support" [| 2; 0; 1 |]
    (Attacks.Sparse_linkage.movie_support ratings ~movies:3)

let test_sparse_score_matches () =
  let candidate =
    [| { Dataset.Synth.user = 0; movie = 7; stars = 4; day = 100 } |]
  in
  let support = Array.make 10 5 in
  let hit = { Attacks.Sparse_linkage.movie = 7; stars = 5; day = 110 } in
  let miss = { Attacks.Sparse_linkage.movie = 3; stars = 5; day = 110 } in
  Alcotest.(check bool) "hit scores" true
    (Attacks.Sparse_linkage.score ~support [| hit |] candidate > 0.);
  Alcotest.(check (float 1e-9)) "miss scores zero" 0.
    (Attacks.Sparse_linkage.score ~support [| miss |] candidate)

let test_sparse_rare_movies_weigh_more () =
  let candidate =
    [|
      { Dataset.Synth.user = 0; movie = 0; stars = 4; day = 0 };
      { Dataset.Synth.user = 0; movie = 1; stars = 4; day = 0 };
    |]
  in
  let support = [| 2; 1000 |] in
  let rare = { Attacks.Sparse_linkage.movie = 0; stars = 4; day = 0 } in
  let common = { Attacks.Sparse_linkage.movie = 1; stars = 4; day = 0 } in
  Alcotest.(check bool) "rare > common" true
    (Attacks.Sparse_linkage.score ~support [| rare |] candidate
    > Attacks.Sparse_linkage.score ~support [| common |] candidate)

let test_sparse_deanonymize_planted () =
  let r = rng () in
  let ratings = Dataset.Synth.ratings r ~users:200 ~movies:100 ~ratings_per_user:10 in
  let by_user = Dataset.Synth.ratings_by_user ratings ~users:200 in
  let support = Attacks.Sparse_linkage.movie_support ratings ~movies:100 in
  let hits = ref 0 in
  for _ = 1 to 20 do
    let target = Prob.Rng.int r 200 in
    let aux = Attacks.Sparse_linkage.make_aux r by_user.(target) ~items:5 in
    let v = Attacks.Sparse_linkage.deanonymize ~support ~threshold:1.5 aux by_user in
    if v.Attacks.Sparse_linkage.matched = Some target then incr hits
  done;
  Alcotest.(check bool) "mostly re-identified" true (!hits >= 15)

let test_sparse_abstains_on_garbage () =
  let r = rng () in
  let ratings = Dataset.Synth.ratings r ~users:100 ~movies:50 ~ratings_per_user:8 in
  let by_user = Dataset.Synth.ratings_by_user ratings ~users:100 in
  let support = Attacks.Sparse_linkage.movie_support ratings ~movies:50 in
  (* Auxiliary information about movies nobody matches on: day offsets far
     beyond the data's range. *)
  let garbage =
    [|
      { Attacks.Sparse_linkage.movie = 0; stars = 3; day = 100_000 };
      { Attacks.Sparse_linkage.movie = 1; stars = 3; day = 100_000 };
    |]
  in
  let v = Attacks.Sparse_linkage.deanonymize ~support ~threshold:1.5 garbage by_user in
  Alcotest.(check bool) "abstains" true (v.Attacks.Sparse_linkage.matched = None)

(* --- Membership --- *)

let test_membership_means () =
  let m = Attacks.Membership.means [| [| true; false |]; [| true; true |] |] in
  Alcotest.(check (array (float 1e-9))) "column means" [| 1.; 0.5 |] m

let test_membership_statistic_sign () =
  (* A member's genotype is closer to pool means than to reference means. *)
  let r = rng () in
  let g = Dataset.Synth.genotype_study r ~people:50 ~snps:500 () in
  let pool_means = Attacks.Membership.means g.Dataset.Synth.pool in
  let ref_means = Attacks.Membership.means g.Dataset.Synth.reference in
  let member_t =
    Attacks.Membership.statistic ~pool_means ~ref_means g.Dataset.Synth.pool.(0)
  in
  Alcotest.(check bool) "member statistic positive" true (member_t > 0.)

let test_membership_auc_grows_with_snps () =
  let r = rng () in
  let auc snps =
    (Attacks.Membership.evaluate
       (Dataset.Synth.genotype_study r ~people:40 ~snps ()))
      .Attacks.Membership.auc
  in
  let a50 = auc 50 and a2000 = auc 2000 in
  Alcotest.(check bool) "more attributes, better attack" true (a2000 > a50);
  Alcotest.(check bool) "near perfect at 2000" true (a2000 > 0.9)

let test_membership_auc_bounds () =
  Alcotest.(check (float 1e-9)) "separated" 1.
    (Attacks.Membership.auc ~positives:[| 2.; 3. |] ~negatives:[| 0.; 1. |]);
  Alcotest.(check (float 1e-9)) "ties" 0.5
    (Attacks.Membership.auc ~positives:[| 1. |] ~negatives:[| 1. |])

(* --- Census --- *)

let test_census_tables_consistent () =
  let r = rng () in
  let truth = Dataset.Synth.census_population r ~blocks:30 ~mean_block_size:15 in
  let tables = Attacks.Census.tabulate truth in
  Array.iter
    (fun t ->
      let ages = List.fold_left (fun acc (_, c) -> acc + c) 0 t.Attacks.Census.age_histogram in
      let sexes =
        List.fold_left (fun acc (_, c) -> acc + c) 0 t.Attacks.Census.sex_by_bucket
      in
      let races = List.fold_left (fun acc (_, c) -> acc + c) 0 t.Attacks.Census.race_eth in
      Alcotest.(check int) "ages sum to total" t.Attacks.Census.total ages;
      Alcotest.(check int) "sex cells sum to total" t.Attacks.Census.total sexes;
      Alcotest.(check int) "race cells sum to total" t.Attacks.Census.total races)
    tables

let test_census_reconstruction_consistent_with_tables () =
  let r = rng () in
  let truth = Dataset.Synth.census_population r ~blocks:30 ~mean_block_size:15 in
  let tables = Attacks.Census.tabulate truth in
  let recon = Attacks.Census.reconstruct tables in
  Alcotest.(check int) "record count preserved" (Array.length truth)
    (Array.length recon);
  (* Re-tabulating the reconstruction reproduces the published tables. *)
  let as_people =
    Array.map
      (fun (rr : Attacks.Census.record) ->
        {
          Dataset.Synth.block = rr.Attacks.Census.r_block;
          sex = rr.Attacks.Census.r_sex;
          age = rr.Attacks.Census.r_age;
          race = rr.Attacks.Census.r_race;
          ethnicity = rr.Attacks.Census.r_eth;
          person_name = "";
        })
      recon
  in
  let tables' = Attacks.Census.tabulate as_people in
  Array.iteri
    (fun b t ->
      let t' = tables'.(b) in
      Alcotest.(check int) "total" t.Attacks.Census.total t'.Attacks.Census.total;
      Alcotest.(check bool) "age histogram" true
        (t.Attacks.Census.age_histogram = t'.Attacks.Census.age_histogram);
      Alcotest.(check bool) "sex by bucket" true
        (t.Attacks.Census.sex_by_bucket = t'.Attacks.Census.sex_by_bucket);
      Alcotest.(check bool) "race/eth" true
        (t.Attacks.Census.race_eth = t'.Attacks.Census.race_eth))
    tables

let test_census_reconstruction_quality () =
  let r = rng () in
  let truth = Dataset.Synth.census_population r ~blocks:100 ~mean_block_size:20 in
  let recon = Attacks.Census.reconstruct (Attacks.Census.tabulate truth) in
  let eval = Attacks.Census.evaluate ~truth recon in
  Alcotest.(check bool) "ages nearly all within one" true
    (eval.Attacks.Census.age_within_one_rate > 0.5);
  Alcotest.(check bool) "substantial exact fraction" true
    (eval.Attacks.Census.exact_rate > 0.2)

let test_census_reidentification () =
  let r = rng () in
  let truth = Dataset.Synth.census_population r ~blocks:100 ~mean_block_size:20 in
  let recon = Attacks.Census.reconstruct (Attacks.Census.tabulate truth) in
  let commercial =
    Attacks.Census.commercial_db r truth ~coverage:0.6 ~age_error_rate:0.1
  in
  let reid = Attacks.Census.reidentify recon commercial ~truth in
  Alcotest.(check bool) "some confirmed" true (reid.Attacks.Census.confirmed > 0);
  Alcotest.(check bool) "confirmed <= putative" true
    (reid.Attacks.Census.confirmed <= reid.Attacks.Census.putative)

let test_census_commercial_coverage () =
  let r = rng () in
  let truth = Dataset.Synth.census_population r ~blocks:100 ~mean_block_size:20 in
  let db = Attacks.Census.commercial_db r truth ~coverage:0.5 ~age_error_rate:0. in
  let frac = float_of_int (Array.length db) /. float_of_int (Array.length truth) in
  Alcotest.(check bool) "coverage near half" true (frac > 0.4 && frac < 0.6)

(* --- Intersection (composition) attack --- *)

let intersection_fixture () =
  let model = Dataset.Synth.kanon_pso_model ~qis:4 ~retained:2 ~domain:32 in
  let schema = Dataset.Model.schema model in
  let table = Dataset.Model.sample_table (rng ()) model 120 in
  let release1 =
    Kanon.Mondrian.anonymize ~recoding:Kanon.Mondrian.Member_level ~k:5 table
  in
  let scheme =
    List.map
      (fun qi -> (qi, Dataset.Hierarchy.int_ranges ~name:qi ~lo:0 ~widths:[ 4; 16; 32 ]))
      (Dataset.Schema.with_role schema Dataset.Schema.Quasi_identifier)
  in
  let release2 = (Kanon.Datafly.anonymize ~scheme ~k:5 table).Kanon.Datafly.release in
  (model, table, release1, release2)

let test_intersection_shrinks_candidates () =
  let _, table, release1, release2 = intersection_fixture () in
  let target = Dataset.Table.row table 0 in
  let d =
    Attacks.Intersection.attack_target ~release1 ~release2 ~sensitive:"r0" target
  in
  Alcotest.(check bool) "intersection no larger than either side" true
    (d.Attacks.Intersection.intersection
     <= max 1 d.Attacks.Intersection.candidates_1
    && d.Attacks.Intersection.intersection
       <= max 1 d.Attacks.Intersection.candidates_2);
  Alcotest.(check bool) "true value survives" true
    (d.Attacks.Intersection.intersection >= 1)

let test_intersection_composition_gap () =
  let _, table, release1, release2 = intersection_fixture () in
  let stats =
    Attacks.Intersection.evaluate ~table ~release1 ~release2 ~sensitive:"r0"
  in
  Alcotest.(check bool) "combining discloses at least as much" true
    (stats.Attacks.Intersection.rate_combined
    >= stats.Attacks.Intersection.rate_one);
  Alcotest.(check bool) "composition discloses something" true
    (stats.Attacks.Intersection.disclosed_by_intersection > 0)

let test_intersection_single_release_is_k_anonymous () =
  (* Sanity: both inputs satisfy k-anonymity individually — the breach is
     purely compositional. *)
  let _, _, release1, release2 = intersection_fixture () in
  Alcotest.(check bool) "r1 5-anonymous" true
    (Kanon.Anonymizer.is_k_anonymous ~k:5 release1);
  Alcotest.(check bool) "r2 5-anonymous" true
    (Kanon.Anonymizer.is_k_anonymous ~k:5 release2)

(* --- Census at scale (Census_scale) --- *)

let scale_cfg =
  {
    Attacks.Census_scale.blocks = 12;
    mean_block_size = 10;
    shards = 3;
    threshold = 3;
    warm_start = true;
    shave = false;
  }

(* The streaming path tabulates each block alone; publishing the whole
   concatenated population at once must give exactly the same tables. *)
let test_scale_streaming_matches_materialized () =
  let r = Prob.Rng.create ~seed:20210621L () in
  let blocks =
    Array.init scale_cfg.Attacks.Census_scale.blocks (fun block ->
        Dataset.Synth.census_block (Prob.Rng.split r) ~block
          ~mean_block_size:scale_cfg.Attacks.Census_scale.mean_block_size)
  in
  let whole = Attacks.Census.tabulate (Array.concat (Array.to_list blocks)) in
  Alcotest.(check int) "one table set per block" (Array.length blocks)
    (Array.length whole);
  Array.iteri
    (fun block people ->
      Alcotest.(check bool)
        (Printf.sprintf "block %d: tabulate = tabulate_block" block)
        true
        (whole.(block) = Attacks.Census.tabulate_block ~block people))
    blocks

let test_scale_jobs_invariant () =
  let run jobs =
    let pool = Parallel.Pool.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.shutdown pool)
      (fun () ->
        Attacks.Census_scale.run ~pool scale_cfg
          (Prob.Rng.create ~seed:99L ()))
  in
  let s1 = run 1 in
  Alcotest.(check bool) "jobs=2 matches jobs=1" true (run 2 = s1);
  Alcotest.(check bool) "jobs=4 matches jobs=1" true (run 4 = s1)

let test_scale_exact_publication () =
  (* threshold = 0 publishes every marginal row exactly. The joint cells
     are still underdetermined (that is the paper's point — marginals, not
     microdata, are released), but the row structure forces the record
     count to equal the population exactly, zero-count age rows pin whole
     swaths of cells, and nothing is suppressed. *)
  let cfg = { scale_cfg with Attacks.Census_scale.threshold = 0 } in
  let s = Attacks.Census_scale.run cfg (Prob.Rng.create ~seed:7L ()) in
  Alcotest.(check int) "records = population" s.Attacks.Census_scale.population
    s.Attacks.Census_scale.records;
  Alcotest.(check int) "nothing suppressed" 0
    s.Attacks.Census_scale.suppressed_cells;
  Alcotest.(check bool) "most cells pinned by propagation" true
    (s.Attacks.Census_scale.fixed_cells
    > s.Attacks.Census_scale.solved_blocks * Attacks.Census_scale.n_cells * 3
      / 4);
  let mr = Attacks.Census_scale.match_rate s in
  Alcotest.(check bool)
    (Printf.sprintf "joint match rate usable (%.3f)" mr)
    true (mr > 0.6)

(* Pins the exact-publication path (threshold 0, warm start) the E14
   golden does not cover: mostly pinned blocks, raked warm seeds and a few
   free cells per solve. Any change to the solver's arithmetic moves
   these values. *)
let test_scale_exact_publication_pinned () =
  let cfg =
    {
      scale_cfg with
      Attacks.Census_scale.threshold = 0;
      mean_block_size = 25;
      warm_start = true;
    }
  in
  let s = Attacks.Census_scale.run cfg (Prob.Rng.create ~seed:17L ()) in
  let check name expected actual = Alcotest.(check int) name expected actual in
  check "records" 350 s.Attacks.Census_scale.records;
  check "cells_matched" 206 s.Attacks.Census_scale.cells_matched;
  check "iterations" 130 s.Attacks.Census_scale.iterations;
  check "fixed_cells" 26868 s.Attacks.Census_scale.fixed_cells;
  check "converged_blocks" 12 s.Attacks.Census_scale.converged_blocks

(* Pins the bits of the warm seed and of the warm-started relaxed solution
   for two neighboring blocks, at both thresholds. Counts and iterations
   can absorb a one-ulp change in the raking or the solver; these digests
   cannot. *)
let test_scale_warm_solve_bits_pinned () =
  let bits_digest a =
    let b = Buffer.create (8 * Array.length a) in
    Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) a;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  List.iter
    (fun (threshold, seed_digest, relaxed_digest, iterations) ->
      let r = Prob.Rng.create ~seed:23L () in
      let sup block =
        let people =
          Dataset.Synth.census_block (Prob.Rng.split r) ~block ~mean_block_size:25
        in
        Attacks.Census_scale.suppress ~threshold
          (Attacks.Census.tabulate_block ~block people)
      in
      let s0 = sup 0 in
      let s1 = sup 1 in
      let first = Attacks.Census_scale.solve_block s0 in
      let x0 =
        Attacks.Census_scale.warm_seed s1 first.Attacks.Census_scale.relaxed
      in
      let second = Attacks.Census_scale.solve_block ~x0 s1 in
      let name what = Printf.sprintf "threshold %d: %s" threshold what in
      Alcotest.(check string) (name "warm seed") seed_digest (bits_digest x0);
      Alcotest.(check string) (name "relaxed") relaxed_digest
        (bits_digest second.Attacks.Census_scale.relaxed);
      Alcotest.(check int) (name "iterations") iterations
        second.Attacks.Census_scale.iterations)
    [
      (0, "d618e5438858ceff5040e44813bbb96e", "4ab66e781d0f0038763145f0b278f7de", 1);
      (3, "52113b198a5f7258469c30a11881a894", "f8c8bf9cc16b0654bb3c3c4fc75c27a3", 3);
    ]

let test_scale_suppressed_run_quality () =
  let s = Attacks.Census_scale.run scale_cfg (Prob.Rng.create ~seed:7L ()) in
  Alcotest.(check int) "all blocks solved" scale_cfg.Attacks.Census_scale.blocks
    s.Attacks.Census_scale.solved_blocks;
  Alcotest.(check int) "all blocks converged"
    s.Attacks.Census_scale.solved_blocks
    s.Attacks.Census_scale.converged_blocks;
  Alcotest.(check bool) "suppression active" true
    (s.Attacks.Census_scale.suppressed_cells > 0);
  (* The block total is always exact and the age targets are allocated to
     it, so suppression never changes how many records come out. *)
  Alcotest.(check int) "records = population" s.Attacks.Census_scale.population
    s.Attacks.Census_scale.records;
  let mr = Attacks.Census_scale.match_rate s in
  let sr = Attacks.Census_scale.sex_age_rate s in
  Alcotest.(check bool)
    (Printf.sprintf "match rates ordered and nonzero (%.3f <= %.3f)" mr sr)
    true
    (mr > 0.02 && sr >= mr);
  (* Suppression must actually cost the attacker accuracy relative to
     exact publication of the same blocks. *)
  let exact =
    Attacks.Census_scale.run
      { scale_cfg with Attacks.Census_scale.threshold = 0 }
      (Prob.Rng.create ~seed:7L ())
  in
  Alcotest.(check bool) "suppression reduces matches" true
    (s.Attacks.Census_scale.cells_matched
    < exact.Attacks.Census_scale.cells_matched)

let obs_counter (values : Obs.Metric.values) name =
  let rec go = function
    | [] -> 0
    | ((m : Obs.Metric.meta), v) :: rest ->
      if m.Obs.Metric.name = name then v else go rest
  in
  go values.Obs.Metric.v_counters

let test_scale_warm_start_saves_iterations () =
  (* The acceptance criterion: warm-started block solves spend measurably
     fewer projected-gradient iterations than cold ones, observed through
     the census.* telemetry counters. *)
  let measure warm_start =
    Obs.reset ();
    Obs.enable ();
    Fun.protect ~finally:Obs.disable (fun () ->
        let cfg =
          {
            scale_cfg with
            Attacks.Census_scale.blocks = 16;
            shards = 2;
            mean_block_size = 40;
            warm_start;
          }
        in
        let stats =
          Attacks.Census_scale.run cfg (Prob.Rng.create ~seed:5L ())
        in
        (stats, Obs.Metric.values ()))
  in
  let cold_stats, cold_snap = measure false in
  let warm_stats, warm_snap = measure true in
  Alcotest.(check int) "cold run never warm-starts" 0
    cold_stats.Attacks.Census_scale.warm_solves;
  Alcotest.(check bool) "warm run warm-starts" true
    (warm_stats.Attacks.Census_scale.warm_solves > 0);
  Alcotest.(check int) "counters agree with stats (cold)"
    cold_stats.Attacks.Census_scale.iterations
    (obs_counter cold_snap "census.solver_iterations");
  Alcotest.(check int) "counters agree with stats (warm)"
    warm_stats.Attacks.Census_scale.warm_iterations
    (obs_counter warm_snap "census.warm_iterations");
  let cold_iters = obs_counter cold_snap "census.solver_iterations" in
  let warm_iters = obs_counter warm_snap "census.solver_iterations" in
  Alcotest.(check bool)
    (Printf.sprintf "warm (%d) beats cold (%d) iterations" warm_iters
       cold_iters)
    true
    (warm_iters < cold_iters)

let test_scale_solve_block_respects_published_bounds () =
  let r = rng () in
  let people = Dataset.Synth.census_block r ~block:0 ~mean_block_size:25 in
  let pub = Attacks.Census.tabulate_block ~block:0 people in
  let sup = Attacks.Census_scale.suppress ~threshold:3 pub in
  let sol = Attacks.Census_scale.solve_block sup in
  Array.iter
    (fun c -> Alcotest.(check bool) "count nonnegative" true (c >= 0))
    sol.Attacks.Census_scale.counts;
  for age = 0 to 99 do
    let sum = ref 0 in
    for sex = 0 to 1 do
      for race = 0 to 5 do
        for eth = 0 to 1 do
          sum :=
            !sum
            + sol.Attacks.Census_scale.counts.(Attacks.Census_scale.cell ~sex
                                                 ~age ~race ~eth)
        done
      done
    done;
    let b = sup.Attacks.Census_scale.s_age.(age) in
    Alcotest.(check bool)
      (Printf.sprintf "age %d row within published bounds" age)
      true
      (b.Attacks.Census_scale.b_lo <= !sum
      && !sum <= b.Attacks.Census_scale.b_hi)
  done

(* Ages 0 and 1 publish exactly 2 each and every other row leaves each
   age a single free cell (sex 0, race 0, non-Hispanic), but the exact
   total is 3: no table satisfies the rows, propagation proves it, and
   the counter records it. The total still decides the record count. *)
let inconsistent_block =
  let open Attacks.Census_scale in
  let total = 3 in
  let exact c = { b_lo = c; b_hi = c } and free = { b_lo = 0; b_hi = total } in
  {
    s_block = 0;
    s_total = total;
    s_age = Array.init 100 (fun age -> exact (if age < 2 then 2 else 0));
    s_sex_bucket = Array.init 20 (fun i -> if i < 10 then free else exact 0);
    s_race_eth = Array.init 12 (fun i -> if i = 0 then free else exact 0);
    s_suppressed = 0;
  }

let test_scale_inconsistent_block_counted () =
  let open Attacks.Census_scale in
  let sup = inconsistent_block in
  let total = sup.s_total in
  Obs.reset ();
  Obs.enable ();
  let sol = Fun.protect ~finally:Obs.disable (fun () -> solve_block sup) in
  Alcotest.(check int) "one empty propagation" 1
    (obs_counter (Obs.Metric.values ()) "attacks.census_empty_propagations");
  Alcotest.(check int) "counts sum to the exact total" total
    (Array.fold_left ( + ) 0 sol.counts)

(* [solve_block] takes ‖A‖² = 4 for its row-weighted free-cell operator
   instead of estimating it (the proof is at [Census_scale.lipschitz]).
   A 300-step power iteration from a random start on the operator itself
   must read 4 on every kind of block: exact tables (most cells pinned),
   threshold-3 suppression, with and without shaving, and the
   inconsistent block whose propagation is empty (no cell pinned). *)
let test_scale_free_operator_norm () =
  let open Attacks.Census_scale in
  let r = Prob.Rng.create ~seed:31L () in
  let block threshold block =
    let people = Dataset.Synth.census_block (Prob.Rng.split r) ~block ~mean_block_size:25 in
    suppress ~threshold (Attacks.Census.tabulate_block ~block people)
  in
  let norm_sq (o : Linalg.Lsq.op) =
    let v = Array.init o.op_cols (fun _ -> Prob.Rng.uniform r) in
    let av = Array.make o.op_rows 0. and w = Array.make o.op_cols 0. in
    let lambda = ref 0. in
    for _ = 1 to 300 do
      o.apply v av;
      o.tapply av w;
      lambda := Linalg.Vector.norm2 w;
      Array.iteri (fun i wi -> v.(i) <- wi /. !lambda) w
    done;
    !lambda
  in
  let check name ?shave sup =
    let o = free_operator ?shave sup in
    Alcotest.(check bool) (name ^ ": some cell free") true (o.op_cols > 0);
    Alcotest.(check (float 1e-9)) (name ^ ": ‖A‖²") 4. (norm_sq o);
    o.op_cols
  in
  for b = 0 to 3 do
    let free = check (Printf.sprintf "exact block %d" b) (block 0 b) in
    Alcotest.(check bool)
      (Printf.sprintf "exact block %d: most cells pinned" b)
      true (free < n_cells / 4);
    ignore (check (Printf.sprintf "suppressed block %d" b) (block 3 b))
  done;
  ignore (check "shaved suppressed block" ~shave:true (block 3 4));
  Alcotest.(check int) "inconsistent block: no cell pinned" n_cells
    (check "inconsistent block" inconsistent_block)

(* --- QCheck properties --- *)

let qcheck =
  let open QCheck in
  [
    Test.make ~name:"agreement is symmetric and in [0,1]" ~count:200
      (pair (array_of_size Gen.(1 -- 20) (int_bound 1)) (array_of_size Gen.(1 -- 20) (int_bound 1)))
      (fun (a, b) ->
        assume (Array.length a = Array.length b);
        let x = Attacks.Reconstruction.agreement a b in
        x = Attacks.Reconstruction.agreement b a && 0. <= x && x <= 1.);
    Test.make ~name:"census reconstruction always table-consistent" ~count:15
      (int_range 1 10_000) (fun seed ->
        let r = Prob.Rng.create ~seed:(Int64.of_int seed) () in
        let truth = Dataset.Synth.census_population r ~blocks:10 ~mean_block_size:8 in
        let tables = Attacks.Census.tabulate truth in
        let recon = Attacks.Census.reconstruct tables in
        Array.length recon = Array.length truth);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "attacks"
    [
      ( "reconstruction",
        [
          Alcotest.test_case "agreement" `Quick test_agreement;
          Alcotest.test_case "exhaustive exact" `Quick test_exhaustive_exact_answers;
          Alcotest.test_case "exhaustive small noise" `Quick
            test_exhaustive_tolerates_small_noise;
          Alcotest.test_case "exhaustive n cap" `Quick test_exhaustive_rejects_large_n;
          Alcotest.test_case "lsq exact" `Quick test_least_squares_exact_answers;
          Alcotest.test_case "lsq small noise" `Quick test_least_squares_small_noise;
          Alcotest.test_case "lsq huge noise fails" `Quick
            test_least_squares_huge_noise_fails;
          Alcotest.test_case "lsq converges at E1 shape" `Quick
            test_least_squares_converges_at_e1_shape;
          Alcotest.test_case "lp decode exact" `Slow test_lp_decode_exact_answers;
          Alcotest.test_case "laplace oracle reconstruction" `Quick
            test_laplace_oracle_reconstruction;
        ] );
      ( "linkage",
        [
          Alcotest.test_case "unique fraction" `Quick test_unique_fraction;
          Alcotest.test_case "uniqueness histogram" `Quick test_uniqueness_histogram;
          Alcotest.test_case "end to end" `Quick test_linkage_end_to_end;
          Alcotest.test_case "requires alignment" `Quick test_linkage_requires_alignment;
          Alcotest.test_case "unique both sides" `Quick test_linkage_unique_both_sides;
        ] );
      ( "sparse linkage",
        [
          Alcotest.test_case "support" `Quick test_sparse_support;
          Alcotest.test_case "score matches" `Quick test_sparse_score_matches;
          Alcotest.test_case "rare movies weigh more" `Quick
            test_sparse_rare_movies_weigh_more;
          Alcotest.test_case "deanonymize planted" `Quick test_sparse_deanonymize_planted;
          Alcotest.test_case "abstains on garbage" `Quick test_sparse_abstains_on_garbage;
        ] );
      ( "membership",
        [
          Alcotest.test_case "means" `Quick test_membership_means;
          Alcotest.test_case "statistic sign" `Quick test_membership_statistic_sign;
          Alcotest.test_case "auc grows with snps" `Quick
            test_membership_auc_grows_with_snps;
          Alcotest.test_case "auc bounds" `Quick test_membership_auc_bounds;
        ] );
      ( "census",
        [
          Alcotest.test_case "tables consistent" `Quick test_census_tables_consistent;
          Alcotest.test_case "reconstruction table-consistent" `Quick
            test_census_reconstruction_consistent_with_tables;
          Alcotest.test_case "reconstruction quality" `Quick
            test_census_reconstruction_quality;
          Alcotest.test_case "re-identification" `Quick test_census_reidentification;
          Alcotest.test_case "commercial coverage" `Quick test_census_commercial_coverage;
        ] );
      ( "census-scale",
        [
          Alcotest.test_case "streaming = materialized" `Quick
            test_scale_streaming_matches_materialized;
          Alcotest.test_case "jobs invariant" `Quick test_scale_jobs_invariant;
          Alcotest.test_case "exact publication" `Quick
            test_scale_exact_publication;
          Alcotest.test_case "exact publication pinned" `Quick
            test_scale_exact_publication_pinned;
          Alcotest.test_case "warm solve bits pinned" `Quick
            test_scale_warm_solve_bits_pinned;
          Alcotest.test_case "suppressed run quality" `Quick
            test_scale_suppressed_run_quality;
          Alcotest.test_case "warm start saves iterations" `Quick
            test_scale_warm_start_saves_iterations;
          Alcotest.test_case "inconsistent block counted" `Quick
            test_scale_inconsistent_block_counted;
          Alcotest.test_case "free operator norm is 4" `Quick
            test_scale_free_operator_norm;
          Alcotest.test_case "solve_block respects bounds" `Quick
            test_scale_solve_block_respects_published_bounds;
        ] );
      ( "intersection",
        [
          Alcotest.test_case "shrinks candidates" `Quick
            test_intersection_shrinks_candidates;
          Alcotest.test_case "composition gap" `Quick test_intersection_composition_gap;
          Alcotest.test_case "inputs individually k-anonymous" `Quick
            test_intersection_single_release_is_k_anonymous;
        ] );
      ("properties", qcheck);
    ]
