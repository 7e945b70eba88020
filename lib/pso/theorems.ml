module Predicate = Query.Predicate
module Mechanism = Query.Mechanism

type verdict = {
  id : string;
  title : string;
  statement : string;
  expectation : string;
  measured : (string * float) list;
  holds : bool;
}

type params = { n : int; trials : int; weight_exponent : float }

let default_params = { n = 150; trials = 200; weight_exponent = 2. }

let bound params = Isolation.negligible_bound ~n:params.n ~c:params.weight_exponent

(* The negligible-weight best-effort trivial attacker: weight n^-(c+1),
   safely under the bound, with success ≈ n^-c by the baseline formula. *)
let negligible_buckets params =
  int_of_float (Float.pow (float_of_int params.n) (params.weight_exponent +. 1.))

let count_query = Predicate.Atom (Predicate.Range ("a0", 0., 8.))

let game params rng ~model ~mechanism ~attacker =
  Game.run rng ~model ~n:params.n ~mechanism ~attacker
    ~weight_bound:(bound params) ~trials:params.trials

(* --- Theorem 1.3 --- *)

(* params is accepted for interface uniformity; the check's size is governed
   by its own draw count, not by the game parameters. *)
let laplace_is_dp ?(params = default_params) rng =
  ignore params;
  let epsilon = 1.0 in
  let draws = 20_000 in
  let c = 10. in
  (* Neighbouring datasets give exact counts c and c+1; empirically compare
     the two output distributions bin by bin. *)
  let sample shift =
    Array.init draws (fun _ ->
        c +. shift +. Prob.Sampler.laplace rng ~scale:(1. /. epsilon))
  in
  let a = sample 0. and b = sample 1. in
  let bins = 40 and lo = c -. 6. and hi = c +. 7. in
  let ha = Prob.Stats.histogram ~bins ~lo ~hi a in
  let hb = Prob.Stats.histogram ~bins ~lo ~hi b in
  let worst = ref 0. in
  for i = 0 to bins - 1 do
    (* Only bins with enough mass for the ratio to be meaningful. *)
    if ha.(i) >= 50 && hb.(i) >= 50 then begin
      let r =
        Float.abs (Float.log (float_of_int ha.(i) /. float_of_int hb.(i)))
      in
      if r > !worst then worst := r
    end
  done;
  let slack = 0.35 in
  {
    id = "Theorem 1.3";
    title = "Laplace mechanism is differentially private";
    statement =
      "Adding Lap(1/eps) noise to a count yields eps-differential privacy: \
       output distributions on neighbouring datasets differ by at most e^eps \
       pointwise.";
    expectation =
      Printf.sprintf
        "max per-bin |log likelihood ratio| <= eps = %.2f (+ sampling slack)"
        epsilon;
    measured = [ ("max_log_ratio", !worst); ("epsilon", epsilon) ];
    holds = !worst <= epsilon +. slack;
  }

(* --- Theorem 2.5 --- *)

(* The battery's models are built at module init, not [lazy]:
   [Lazy.force] raises [Undefined] when two domains force one value at
   once. *)
let count_model = Dataset.Synth.pso_model ~attributes:3 ~values_per_attribute:16

let count_mechanism_secure ?(params = default_params) rng =
  let model = count_model in
  let mechanism = Mechanism.exact_count count_query in
  let light =
    game params rng ~model ~mechanism
      ~attacker:(Attacker.hash_bucket ~buckets:(negligible_buckets params))
  in
  let heavy =
    game params rng ~model ~mechanism
      ~attacker:(Attacker.hash_bucket ~buckets:params.n)
  in
  {
    id = "Theorem 2.5";
    title = "The count mechanism M#q prevents predicate singling out";
    statement =
      "Releasing the exact number of records satisfying a fixed predicate \
       does not enable isolation by negligible-weight predicates.";
    expectation =
      "negligible-weight attacker succeeds with probability ~n^-c; the \
       weight-1/n attacker isolates ~37% but its predicate is too heavy to \
       count";
    measured =
      [
        ("light_attacker_success", light.Game.success_rate);
        ("heavy_attacker_success", heavy.Game.success_rate);
        ( "heavy_attacker_isolations",
          float_of_int heavy.Game.isolations /. float_of_int heavy.Game.trials );
      ];
    holds =
      light.Game.success_rate <= 0.03
      && heavy.Game.success_rate <= 0.03
      && float_of_int heavy.Game.isolations /. float_of_int heavy.Game.trials
         >= 0.2;
  }

(* --- Theorem 2.6 --- *)

let post_processing_robust ?(params = default_params) rng =
  let model = count_model in
  let double = function
    | Mechanism.Scalar v -> Mechanism.Scalar ((2. *. v) +. 1.)
    | other -> other
  in
  let mechanism =
    Mechanism.post_process "affine" double (Mechanism.exact_count count_query)
  in
  let light =
    game params rng ~model ~mechanism
      ~attacker:(Attacker.hash_bucket ~buckets:(negligible_buckets params))
  in
  {
    id = "Theorem 2.6";
    title = "PSO security is robust to post-processing";
    statement =
      "If M prevents predicate singling out then so does f . M for any \
       data-independent f.";
    expectation = "post-processed count mechanism remains secure";
    measured = [ ("light_attacker_success", light.Game.success_rate) ];
    holds = light.Game.success_rate <= 0.03;
  }

(* --- Theorem 2.7 --- *)

let pad_model = Dataset.Synth.pso_model ~attributes:4 ~values_per_attribute:16

let incomposability_pair ?(params = default_params) rng =
  let model = pad_model in
  let pad = Pad.make ~salt:(Prob.Rng.bits64 rng) in
  let against mechanism attacker = game params rng ~model ~mechanism ~attacker in
  let m1 = against pad.Pad.m1 pad.Pad.marginal_attacker in
  let m2 = against pad.Pad.m2 pad.Pad.marginal_attacker in
  let joint = against pad.Pad.composed pad.Pad.joint_attacker in
  {
    id = "Theorem 2.7";
    title = "PSO security does not compose (explicit pair)";
    statement =
      "There exist mechanisms M1, M2, each preventing predicate singling \
       out, whose composition does not: M1 masks a record digest with a pad \
       over the other records, M2 reveals the pad.";
    expectation =
      "marginal attacks succeed with probability ~0; the joint XOR attack \
       succeeds with probability ~1 at weight 2^-64";
    measured =
      [
        ("m1_attack_success", m1.Game.success_rate);
        ("m2_attack_success", m2.Game.success_rate);
        ("joint_attack_success", joint.Game.success_rate);
      ];
    holds =
      m1.Game.success_rate <= 0.02
      && m2.Game.success_rate <= 0.02
      && joint.Game.success_rate >= 0.9;
  }

(* --- Theorems 2.8 / 2.9 --- *)

let composition_model = Dataset.Synth.pso_model ~attributes:3 ~values_per_attribute:64

let composition_scheme params rng =
  Composition.scouted ~salt:(Prob.Rng.bits64 rng) ~buckets:params.n ~ell:40
    ~scouts:6

let count_composition_breaks ?(params = default_params) rng =
  let model = composition_model in
  let scheme = composition_scheme params rng in
  let outcome =
    game params rng ~model ~mechanism:scheme.Composition.mechanism
      ~attacker:scheme.Composition.attacker
  in
  {
    id = "Theorem 2.8";
    title = "Composing omega(log n) count mechanisms enables PSO";
    statement =
      "Each M#q is secure, yet ~log n of them reveal a record bit by bit: \
       the bucket-and-bits attacker isolates with a predicate of weight \
       2^-ell / n.";
    expectation =
      Printf.sprintf
        "success >> baseline using %d count queries (weight %.3g <= bound %.3g)"
        (Array.length scheme.Composition.queries)
        (Composition.weight_of_success ~buckets:params.n ~ell:scheme.Composition.ell)
        (bound params);
    measured =
      [
        ("attack_success", outcome.Game.success_rate);
        ("queries", float_of_int (Array.length scheme.Composition.queries));
      ];
    holds = outcome.Game.success_rate >= 0.7;
  }

let dp_prevents_pso ?(params = default_params) rng =
  let model = composition_model in
  let scheme = composition_scheme params rng in
  let epsilon = 1.0 in
  let noisy = Mechanism.laplace_counts_batch ~epsilon scheme.Composition.batch in
  let outcome =
    game params rng ~model ~mechanism:noisy ~attacker:scheme.Composition.attacker
  in
  {
    id = "Theorem 2.9";
    title = "Differential privacy prevents predicate singling out";
    statement =
      "If M is eps-differentially private (constant eps) then M prevents \
       predicate singling out; the bucket-and-bits attacker that defeats \
       exact counts fails against eps-DP counts.";
    expectation = "attack success ~0 under the same query workload";
    measured =
      [ ("attack_success", outcome.Game.success_rate); ("epsilon", epsilon) ];
    holds = outcome.Game.success_rate <= 0.05;
  }

(* --- Theorem 2.10 --- *)

let kanon_model = Dataset.Synth.kanon_pso_model ~qis:6 ~retained:42 ~domain:64

let kanon_mechanism ~recoding ~k =
  {
    Mechanism.name = "mondrian";
    run =
      (fun _rng table -> Mechanism.Generalized (Kanon.Mondrian.anonymize ~recoding ~k table));
  }

let kanon_fails ?(params = default_params) rng =
  let model = kanon_model in
  let k = 5 in
  let greedy =
    game params rng
      ~mechanism:(kanon_mechanism ~recoding:Kanon.Mondrian.Class_level ~k)
      ~attacker:(Kanon_attack.greedy ()) ~model
  in
  let cohen =
    game params rng
      ~mechanism:(kanon_mechanism ~recoding:Kanon.Mondrian.Member_level ~k)
      ~attacker:(Kanon_attack.cohen ()) ~model
  in
  {
    id = "Theorem 2.10";
    title = "k-anonymity does not prevent predicate singling out";
    statement =
      "Typical k-anonymizers optimize information content; equivalence-class \
       predicates have negligible weight, and refining within a class \
       isolates with probability ~37% (Cohen's released-unique attack: \
       ~100%).";
    expectation =
      "greedy (class-level release) ~0.37; cohen (member-level release) ~1";
    measured =
      [
        ("greedy_success", greedy.Game.success_rate);
        ("cohen_success", cohen.Game.success_rate);
        ("one_over_e", Isolation.one_over_e);
      ];
    holds =
      greedy.Game.success_rate >= 0.2
      && greedy.Game.success_rate <= 0.55
      && cohen.Game.success_rate >= 0.8;
  }

let all ?(params = default_params) rng =
  [
    laplace_is_dp ~params rng;
    count_mechanism_secure ~params rng;
    post_processing_robust ~params rng;
    incomposability_pair ~params rng;
    count_composition_breaks ~params rng;
    dp_prevents_pso ~params rng;
    kanon_fails ~params rng;
  ]

let pp fmt v =
  Format.fprintf fmt "%s — %s: %s@." v.id v.title
    (if v.holds then "HOLDS" else "REFUTED");
  Format.fprintf fmt "  claim: %s@." v.statement;
  Format.fprintf fmt "  expected: %s@." v.expectation;
  List.iter
    (fun (k, x) -> Format.fprintf fmt "  measured %s = %.4g@." k x)
    v.measured
