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
      ("dataset", [ prop_sampled_rows_in_support; prop_row_prob; prop_group_by_partitions ]);
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
      ("kanon", [ prop_mondrian_k_anonymous; prop_release_covers_input ]);
      ("pso", [ prop_game_outcome_sane ]);
    ]
