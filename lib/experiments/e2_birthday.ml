type row = {
  n : int;
  weight : float;
  analytic : float;
  empirical : float;
  ci : float * float;
}

(* The paper's setting: 365 birthdays, n = 365 people; the attacker fixes
   one date. Other weights are realised with hash-bucket predicates over a
   model augmented with a high-entropy auxiliary attribute, so that bucket
   weights concentrate near 1/buckets instead of being quantized to
   multiples of 1/365. *)
let model =
  let schema =
    Dataset.Schema.make
      [
        {
          Dataset.Schema.name = "birthday";
          kind = Dataset.Value.Kint;
          role = Dataset.Schema.Quasi_identifier;
        };
        {
          Dataset.Schema.name = "noise";
          kind = Dataset.Value.Kint;
          role = Dataset.Schema.Insensitive;
        };
      ]
  in
  Dataset.Model.make schema
    [
      ("birthday", Prob.Distribution.uniform (List.init 365 (fun d -> Dataset.Value.Int d)));
      ("noise", Prob.Distribution.uniform (List.init 4096 (fun d -> Dataset.Value.Int d)));
    ]

let measure_with ~pool rng ~trials ~n attacker =
  let mechanism = Query.Mechanism.exact_count Query.Predicate.True in
  (* weight_bound = 1: count raw isolations (this experiment is about the
     isolation probability itself, not the weight cutoff). *)
  let outcome =
    Pso.Game.run ~pool rng ~model ~n ~mechanism ~attacker ~weight_bound:1. ~trials
  in
  let isolation_rate =
    float_of_int outcome.Pso.Game.isolations /. float_of_int trials
  in
  let ci =
    Prob.Stats.proportion_ci ~successes:outcome.Pso.Game.isolations ~trials
  in
  (isolation_rate, ci)

let measure ~pool rng ~trials ~n ~buckets =
  measure_with ~pool rng ~trials ~n (Pso.Attacker.hash_bucket ~buckets)

let run ?pool ~scale rng =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let trials = match scale with Common.Quick -> 400 | Common.Full -> 2000 in
  let n = 365 in
  (* The paper's literal attacker: a fixed date (Apr-30 is day 119),
     weight exactly 1/365. *)
  let fixed =
    let w = 1. /. 365. in
    let empirical, ci =
      measure_with ~pool rng ~trials ~n
        (Pso.Attacker.fixed_value ~attr:"birthday" (Dataset.Value.Int 119))
    in
    {
      n;
      weight = w;
      analytic = Pso.Isolation.trivial_isolation_probability ~n ~w;
      empirical;
      ci;
    }
  in
  fixed
  :: List.map
       (fun buckets ->
         let w = 1. /. float_of_int buckets in
         let empirical, ci = measure ~pool rng ~trials ~n ~buckets in
         {
           n;
           weight = w;
           analytic = Pso.Isolation.trivial_isolation_probability ~n ~w;
           empirical;
           ci;
         })
       [ 16 * n; 4 * n; n; max 1 (n / 2); max 1 (n / 8) ]

let print ~scale rng fmt =
  Common.banner fmt ~id:"E2"
    ~title:"Trivial isolation baseline (the birthday example)"
    ~claim:
      "A fixed predicate of weight 1/n isolates with probability ~37% \
       without looking at the mechanism's output; the probability is \
       negligible only for w = negl(n) or w = omega(log n / n).";
  let rows = run ~scale rng in
  Common.table fmt
    ~header:[ "n"; "weight"; "analytic"; "measured"; "95% CI" ]
    (List.map
       (fun r ->
         let lo, hi = r.ci in
         [
           string_of_int r.n;
           Common.g3 r.weight;
           Common.pct r.analytic;
           Common.pct r.empirical;
           Printf.sprintf "[%s, %s]" (Common.pct lo) (Common.pct hi);
         ])
       rows);
  Format.fprintf fmt "@.(1/e = %s; the paper's quoted 37%%)@."
    (Common.pct Pso.Isolation.one_over_e)
