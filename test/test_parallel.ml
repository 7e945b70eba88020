(* Tests for the domain pool and the deterministic per-trial RNG fan-out:
   results must be identical at every pool size for a given seed, worker
   exceptions must surface on the caller, and the pool must handle the
   empty/one-item edge cases. Closes with an integration check that
   Pso.Game.run's outcome is pool-size independent. *)

let with_pool jobs f =
  let pool = Parallel.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) (fun () -> f pool)

let jobs_sweep = [ 1; 2; 4 ]

(* --- Pool basics --- *)

let test_init_array_values () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let a = Parallel.Pool.parallel_init_array pool 100 (fun i -> i * i) in
          Alcotest.(check (array int))
            (Printf.sprintf "squares at jobs=%d" jobs)
            (Array.init 100 (fun i -> i * i))
            a))
    jobs_sweep

let test_init_array_edge_cases () =
  with_pool 4 (fun pool ->
      Alcotest.(check (array int)) "empty" [||]
        (Parallel.Pool.parallel_init_array pool 0 (fun i -> i));
      Alcotest.(check (array int)) "one element" [| 7 |]
        (Parallel.Pool.parallel_init_array pool 1 (fun _ -> 7));
      Alcotest.check_raises "negative length"
        (Invalid_argument "Pool.parallel_init_array: negative length") (fun () ->
          ignore (Parallel.Pool.parallel_init_array pool (-1) (fun i -> i))))

let test_map_reduce_index_order () =
  (* A non-commutative combine detects any deviation from index order. *)
  let expected = String.concat "" (List.init 50 string_of_int) in
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let s =
            Parallel.Pool.map_reduce pool ~n:50 ~map:string_of_int
              ~combine:( ^ ) ~init:""
          in
          Alcotest.(check string)
            (Printf.sprintf "in-order fold at jobs=%d" jobs)
            expected s))
    jobs_sweep

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          Alcotest.check_raises
            (Printf.sprintf "worker exception surfaces at jobs=%d" jobs)
            (Failure "trial 17 exploded") (fun () ->
              ignore
                (Parallel.Pool.parallel_init_array pool 64 (fun i ->
                     if i = 17 then failwith "trial 17 exploded" else i)))))
    jobs_sweep

let test_pool_usable_after_exception () =
  with_pool 4 (fun pool ->
      (try
         ignore (Parallel.Pool.parallel_init_array pool 8 (fun _ -> failwith "boom"))
       with Failure _ -> ());
      Alcotest.(check (array int)) "pool still works" (Array.init 10 (fun i -> i))
        (Parallel.Pool.parallel_init_array pool 10 (fun i -> i)))

let test_jobs_bounds () =
  (* Rejected before any domain is spawned: only counts that start
     nothing are tried here. *)
  let rejects name f =
    Alcotest.(check bool) name true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  let create jobs () = ignore (Parallel.Pool.create ~jobs ()) in
  rejects "create 0" (create 0);
  rejects "create max_jobs + 1" (create (Parallel.Pool.max_jobs + 1));
  rejects "create 100000" (create 100_000);
  rejects "set_default_jobs 0" (fun () -> Parallel.Pool.set_default_jobs 0);
  rejects "set_default_jobs 100000" (fun () ->
      Parallel.Pool.set_default_jobs 100_000)

(* --- Trials: deterministic RNG fan-out --- *)

let trial_sum jobs ~trials =
  with_pool jobs (fun pool ->
      let rng = Prob.Rng.create ~seed:99L () in
      let per_trial =
        Parallel.Trials.map pool rng ~trials (fun trial_rng i ->
            (* Draw a varying amount of randomness per trial to stress
               independence of the children. *)
            let draws = 1 + (i mod 7) in
            let acc = ref 0. in
            for _ = 1 to draws do
              acc := !acc +. Prob.Rng.uniform trial_rng
            done;
            !acc)
      in
      (* The parent stream must have advanced by exactly [trials] splits,
         no matter the pool size. *)
      (per_trial, Prob.Rng.bits64 rng))

let test_trials_identical_across_jobs () =
  let reference = trial_sum 1 ~trials:100 in
  List.iter
    (fun jobs ->
      let got = trial_sum jobs ~trials:100 in
      Alcotest.(check bool)
        (Printf.sprintf "byte-identical trials and parent state at jobs=%d" jobs)
        true
        (got = reference))
    jobs_sweep

let test_trials_edge_cases () =
  with_pool 4 (fun pool ->
      let rng = Prob.Rng.create ~seed:1L () in
      Alcotest.(check int) "zero trials" 0
        (Array.length (Parallel.Trials.map pool rng ~trials:0 (fun _ i -> i)));
      let one =
        Parallel.Trials.map pool rng ~trials:1 (fun trial_rng _ ->
            Prob.Rng.int trial_rng 1000)
      in
      Alcotest.(check int) "one trial" 1 (Array.length one);
      Alcotest.check_raises "negative trials"
        (Invalid_argument "Trials.map: negative trial count") (fun () ->
          ignore (Parallel.Trials.map pool rng ~trials:(-1) (fun _ i -> i))))

let test_trials_fold_matches_map () =
  with_pool 2 (fun pool ->
      let sum_of_map =
        let rng = Prob.Rng.create ~seed:5L () in
        Array.fold_left ( +. ) 0.
          (Parallel.Trials.map pool rng ~trials:40 (fun r _ -> Prob.Rng.uniform r))
      in
      let folded =
        let rng = Prob.Rng.create ~seed:5L () in
        Parallel.Trials.fold pool rng ~trials:40 ~init:0. ~combine:( +. )
          (fun r _ -> Prob.Rng.uniform r)
      in
      Alcotest.(check (float 0.)) "fold = in-order sum of map" sum_of_map folded)

(* --- Integration: the PSO game is pool-size independent --- *)

let game_model = Dataset.Synth.pso_model ~attributes:3 ~values_per_attribute:16

let game_outcome jobs =
  with_pool jobs (fun pool ->
      let rng = Prob.Rng.create ~seed:55L () in
      let outcome =
        Pso.Game.run ~pool rng ~model:game_model ~n:50
          ~mechanism:(Query.Mechanism.exact_count Query.Predicate.True)
          ~attacker:(Pso.Attacker.hash_bucket ~buckets:50)
          ~weight_bound:1. ~trials:100
      in
      (outcome, Prob.Rng.bits64 rng))

let test_game_identical_across_jobs () =
  let reference = game_outcome 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "identical game outcome at jobs=%d" jobs)
        true
        (game_outcome jobs = reference))
    jobs_sweep

let test_game_seed_behaviour () =
  (* The jobs=1 outcome is the seed behaviour: sane accounting and the
     ~37% trivial-isolation band of the birthday analysis (weight 1/n at
     n = 50 over 100 trials). *)
  let outcome, _ = game_outcome 1 in
  Alcotest.(check int) "trials recorded" 100 outcome.Pso.Game.trials;
  Alcotest.(check int) "accounting: successes + heavy = isolations"
    outcome.Pso.Game.isolations
    (outcome.Pso.Game.successes + outcome.Pso.Game.heavy_isolations);
  Alcotest.(check bool)
    (Printf.sprintf "trivial isolation in the 1/e band (got %f)"
       outcome.Pso.Game.success_rate)
    true
    (outcome.Pso.Game.success_rate > 0.15 && outcome.Pso.Game.success_rate < 0.6)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_init_array values" `Quick
            test_init_array_values;
          Alcotest.test_case "edge cases" `Quick test_init_array_edge_cases;
          Alcotest.test_case "map_reduce combines in index order" `Quick
            test_map_reduce_index_order;
          Alcotest.test_case "worker exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "pool usable after exception" `Quick
            test_pool_usable_after_exception;
          Alcotest.test_case "jobs bounds" `Quick test_jobs_bounds;
        ] );
      ( "trials",
        [
          Alcotest.test_case "identical across jobs=1,2,4" `Quick
            test_trials_identical_across_jobs;
          Alcotest.test_case "empty and one-trial edges" `Quick
            test_trials_edge_cases;
          Alcotest.test_case "fold matches in-order map" `Quick
            test_trials_fold_matches_map;
        ] );
      ( "game",
        [
          Alcotest.test_case "outcome identical across jobs=1,2,4" `Quick
            test_game_identical_across_jobs;
          Alcotest.test_case "jobs=1 seed behaviour" `Quick
            test_game_seed_behaviour;
        ] );
    ]
