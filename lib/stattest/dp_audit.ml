module P = Query.Predicate

type case = {
  name : string;
  epsilon : float;
  delta : float;
  events : int;
  label : int -> string;
  sample_a : Prob.Rng.t -> int;
  sample_b : Prob.Rng.t -> int;
  broken : bool;
}

type direction = A_over_b | B_over_a

type violation = {
  event : int;
  event_label : string;
  direction : direction;
  log_ratio_lower : float;
  numerator_ci : float * float;
  denominator_ci : float * float;
}

type report = {
  case_name : string;
  epsilon : float;
  delta : float;
  trials : int;
  confidence : float;
  counts_a : int array;
  counts_b : int array;
  max_log_ratio_lower : float;
  violations : violation list;
}

let run ?pool ?(confidence = 0.9999) ?(trials = 60_000) rng case =
  if trials <= 0 then invalid_arg "Stattest.Dp_audit.run: trials must be positive";
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  (* One child generator per trial: the tally below is byte-identical at
     every pool size, and [rng] advances by exactly [trials] splits. *)
  let outcomes =
    Parallel.Trials.map pool rng ~trials (fun r _ ->
        let a = case.sample_a r in
        let b = case.sample_b r in
        (a, b))
  in
  let counts_a = Array.make case.events 0 in
  let counts_b = Array.make case.events 0 in
  Array.iter
    (fun (a, b) ->
      if a < 0 || a >= case.events || b < 0 || b >= case.events then
        invalid_arg "Stattest.Dp_audit.run: sampler returned event out of range";
      counts_a.(a) <- counts_a.(a) + 1;
      counts_b.(b) <- counts_b.(b) + 1)
    outcomes;
  (* Bonferroni: the stated confidence is split across the per-event
     intervals, so the chance that ANY interval misses its probability —
     the only way a spurious violation can be certified — is at most
     [1 - confidence]. *)
  let per_event = 1. -. ((1. -. confidence) /. float_of_int case.events) in
  let ci c =
    Ci.clopper_pearson ~confidence:per_event ~successes:c ~trials ()
  in
  let max_lr = ref neg_infinity in
  let violations = ref [] in
  for e = case.events - 1 downto 0 do
    let ci_a = ci counts_a.(e) and ci_b = ci counts_b.(e) in
    let consider direction (num_lo, num_hi) (den_lo, den_hi) =
      ignore num_hi;
      ignore den_lo;
      let num = num_lo -. case.delta in
      if num > 0. && den_hi > 0. then begin
        let lr = Float.log (num /. den_hi) in
        if lr > !max_lr then max_lr := lr;
        if lr > case.epsilon then
          violations :=
            {
              event = e;
              event_label = case.label e;
              direction;
              log_ratio_lower = lr;
              numerator_ci = (if direction = A_over_b then ci_a else ci_b);
              denominator_ci = (if direction = A_over_b then ci_b else ci_a);
            }
            :: !violations
      end
    in
    consider B_over_a ci_b ci_a;
    consider A_over_b ci_a ci_b
  done;
  {
    case_name = case.name;
    epsilon = case.epsilon;
    delta = case.delta;
    trials;
    confidence;
    counts_a;
    counts_b;
    max_log_ratio_lower = !max_lr;
    violations = !violations;
  }

let passed r = r.violations = []

let pp_report fmt r =
  Format.fprintf fmt "%-28s eps=%.3g delta=%.2g trials=%d loss>=%s -> %s"
    r.case_name r.epsilon r.delta r.trials
    (if Float.is_finite r.max_log_ratio_lower then
       Printf.sprintf "%.3f" r.max_log_ratio_lower
     else "n/a")
    (if passed r then "PASS" else "VIOLATION");
  List.iter
    (fun v ->
      let nlo, nhi = v.numerator_ci and dlo, dhi = v.denominator_ci in
      Format.fprintf fmt
        "@.    event %s (%s): certified loss %.3f > eps %.3g (num CI [%.4g, \
         %.4g], den CI [%.4g, %.4g])"
        v.event_label
        (match v.direction with
        | A_over_b -> "Pr[A] vs Pr[B]"
        | B_over_a -> "Pr[B] vs Pr[A]")
        v.log_ratio_lower r.epsilon nlo nhi dlo dhi)
    r.violations

(* --- The standard battery ------------------------------------------- *)

(* Every case shares one adversarial fixture: a product-model table x of
   [n] rows and its neighbor x' = x plus one extra record, so the count of
   [P.True] differs by exactly 1 (sensitivity-1 inputs for every
   count-shaped mechanism). Selection-shaped mechanisms (exponential,
   noisy_max, sparse_vector) instead use explicit sensitivity-1 score
   vectors differing by ±1 coordinatewise. *)

let fixture_n = 40

let fixture_seed = 0x5EED_D9L

(* Built at module init, not [lazy]: [Lazy.force] raises [Undefined]
   when two domains force one value at once. *)
let model = Dataset.Synth.pso_model ~attributes:2 ~values_per_attribute:4

let tables =
  let r = Prob.Rng.create ~seed:fixture_seed () in
  let base = Dataset.Model.sample_table r model fixture_n in
  let extra = Dataset.Model.sample_row r model in
  let bigger =
    Dataset.Table.append base
      (Dataset.Table.make (Dataset.Model.schema model) [| extra |])
  in
  (bigger, base, extra)

(* Continuous outputs are discretized into [bins] equal cells over
   [lo, hi) plus two tail events. *)
let bucket ~lo ~hi ~bins x =
  if x < lo then 0
  else if x >= hi then bins + 1
  else 1 + int_of_float ((x -. lo) /. (hi -. lo) *. float_of_int bins)

let bucket_label ~lo ~hi ~bins i =
  if i = 0 then Printf.sprintf "(-inf, %g)" lo
  else if i = bins + 1 then Printf.sprintf "[%g, inf)" hi
  else
    let w = (hi -. lo) /. float_of_int bins in
    let l = lo +. (w *. float_of_int (i - 1)) in
    Printf.sprintf "[%g, %g)" l (l +. w)

let numeric_case ~name ~epsilon ?(delta = 0.) ~lo ~hi ~bins ~sample_a ~sample_b
    ?(broken = false) () =
  {
    name;
    epsilon;
    delta;
    events = bins + 2;
    label = bucket_label ~lo ~hi ~bins;
    sample_a = (fun r -> bucket ~lo ~hi ~bins (sample_a r));
    sample_b = (fun r -> bucket ~lo ~hi ~bins (sample_b r));
    broken;
  }

let count_window = (36., 45., 18)

let laplace_case ?(name = "laplace") ?(scale_override = None) ?(broken = false)
    () =
  let t_a, t_b, _ = tables in
  let lo, hi, bins = count_window in
  let sample t r =
    match scale_override with
    | None -> Dp.Laplace.count r ~epsilon:1. t P.True
    | Some scale ->
      (* The deliberately broken variant: noise at the wrong scale while
         still claiming eps = 1. *)
      let exact = P.count (Dataset.Table.schema t) P.True t in
      float_of_int exact +. Prob.Sampler.laplace r ~scale
  in
  numeric_case ~name ~epsilon:1. ~lo ~hi ~bins ~sample_a:(sample t_a)
    ~sample_b:(sample t_b) ~broken ()

let gaussian_case () =
  let t_a, t_b, _ = tables in
  let delta = 1e-5 in
  let sample t r = Dp.Gaussian.count r ~epsilon:1. ~delta t P.True in
  numeric_case ~name:"gaussian" ~epsilon:1. ~delta ~lo:28. ~hi:54. ~bins:13
    ~sample_a:(sample t_a) ~sample_b:(sample t_b) ()

let geometric_case ?(name = "geometric") ?(actual_epsilon = 1.)
    ?(broken = false) () =
  let t_a, t_b, _ = tables in
  let span = 7 in
  let events = (2 * span) + 2 in
  let to_event v =
    (* Noise displacement clamped into [-span, span+1]; the clamp only
       merges far-tail outputs into the edge events. *)
    let d = max (-span) (min (span + 1) (v - fixture_n)) in
    d + span
  in
  {
    name;
    epsilon = 1.;
    delta = 0.;
    events;
    label = (fun i -> Printf.sprintf "count=%d" (i - span + fixture_n));
    sample_a = (fun r -> to_event (Dp.Geometric.count r ~epsilon:actual_epsilon t_a P.True));
    sample_b = (fun r -> to_event (Dp.Geometric.count r ~epsilon:actual_epsilon t_b P.True));
    broken;
  }

(* Sensitivity-1 utility vectors: each candidate's utility moves by
   exactly 1 between the neighbors. *)
let utilities_a = [| 0.; 1.; 2.; 3. |]

let utilities_b = [| 1.; 0.; 1.; 2. |]

let exponential_case () =
  let candidates = [| 0; 1; 2; 3 |] in
  let sample u r =
    Dp.Exponential.select r ~epsilon:1. ~sensitivity:1.
      ~utility:(fun c -> u.(c))
      candidates
  in
  {
    name = "exponential";
    epsilon = 1.;
    delta = 0.;
    events = 4;
    label = (fun i -> Printf.sprintf "candidate %d" i);
    sample_a = sample utilities_a;
    sample_b = sample utilities_b;
    broken = false;
  }

(* The classic miscalibration: exp(eps u / sens) instead of
   exp(eps u / (2 sens)) — every score twice as sharp as the claim. *)
let select_without_half rng ~epsilon u =
  let best = Array.fold_left Float.max neg_infinity u in
  let weights = Array.map (fun x -> Float.exp (epsilon *. (x -. best))) u in
  let total = Array.fold_left ( +. ) 0. weights in
  let target = Prob.Rng.uniform rng *. total in
  let acc = ref 0. in
  let chosen = ref (Array.length u - 1) in
  (try
     Array.iteri
       (fun i w ->
         acc := !acc +. w;
         if !acc >= target then begin
           chosen := i;
           raise Exit
         end)
       weights
   with Exit -> ());
  !chosen

let broken_exponential_case ?(name = "broken-exponential") () =
  {
    name;
    epsilon = 1.;
    delta = 0.;
    events = 4;
    label = (fun i -> Printf.sprintf "candidate %d" i);
    sample_a = (fun r -> select_without_half r ~epsilon:1. utilities_a);
    sample_b = (fun r -> select_without_half r ~epsilon:1. utilities_b);
    broken = true;
  }

let rr_case ?(name = "randomized_response") ?(actual_epsilon = 1.)
    ?(broken = false) () =
  {
    name;
    epsilon = 1.;
    delta = 0.;
    events = 2;
    label = (fun i -> if i = 0 then "false" else "true");
    sample_a =
      (fun r -> if Dp.Randomized_response.respond r ~epsilon:actual_epsilon true then 1 else 0);
    sample_b =
      (fun r -> if Dp.Randomized_response.respond r ~epsilon:actual_epsilon false then 1 else 0);
    broken;
  }

let noisy_max_case () =
  let values_a = [| 3.; 5.; 4.; 1. |] in
  let values_b = [| 4.; 4.; 3.; 2. |] in
  {
    name = "noisy_max";
    epsilon = 1.;
    delta = 0.;
    events = 4;
    label = (fun i -> Printf.sprintf "argmax %d" i);
    sample_a = (fun r -> Dp.Noisy_max.select_values r ~epsilon:1. values_a);
    sample_b = (fun r -> Dp.Noisy_max.select_values r ~epsilon:1. values_b);
    broken = false;
  }

let sparse_vector_case () =
  let stream_a = [| 1.; 3.; 5.; 0. |] in
  let stream_b = [| 2.; 2.; 4.; 1. |] in
  let transcript stream r =
    (* The audited event is the whole interaction: index of the first
       above-threshold report, or "none". *)
    let t = Dp.Sparse_vector.create r ~epsilon:1. ~threshold:2. ~max_hits:1 in
    let hit = ref (Array.length stream) in
    (try
       Array.iteri
         (fun i v ->
           if Dp.Sparse_vector.ask t v then begin
             hit := i;
             raise Exit
           end)
         stream
     with Exit -> ());
    !hit
  in
  {
    name = "sparse_vector";
    epsilon = 1.;
    delta = 0.;
    events = 5;
    label = (fun i -> if i = 4 then "no hit" else Printf.sprintf "first hit %d" i);
    sample_a = transcript stream_a;
    sample_b = transcript stream_b;
    broken = false;
  }

let histogram_case () =
  let t_a, t_b, extra = tables in
  let cells = Dp.Histogram.partition_by_attribute model "a0" in
  let schema = Dataset.Model.schema model in
  (* The extra record changes exactly one histogram cell; audit the
     mechanism's output projected onto that cell (post-processing, so any
     violation here is a violation of the full release). *)
  let changed =
    let found = ref 0 in
    Array.iteri
      (fun i c -> if P.eval schema c.Dp.Histogram.pred extra then found := i)
      cells;
    !found
  in
  let base_count =
    P.count schema cells.(changed).Dp.Histogram.pred t_b
  in
  let lo = float_of_int base_count -. 4. and bins = 18 in
  let hi = lo +. 9. in
  let sample t r =
    snd (Dp.Histogram.noisy r ~epsilon:1. t cells).(changed)
  in
  numeric_case ~name:"histogram" ~epsilon:1. ~lo ~hi ~bins
    ~sample_a:(sample t_a) ~sample_b:(sample t_b) ()

let tree_case () =
  (* Neighboring 4-cell histograms differing by one record in cell 1; the
     audited output is the root range query (post-processing of the full
     ε-DP tree release, so a violation here indicts the whole tree). *)
  let histogram_a = [| 5; 8; 3; 4 |] in
  let histogram_b = [| 5; 7; 3; 4 |] in
  let sample h r =
    let t = Dp.Tree.build r ~epsilon:1. h in
    Dp.Tree.range t ~lo:0 ~hi:3
  in
  numeric_case ~name:"tree" ~epsilon:1. ~lo:11. ~hi:28. ~bins:17
    ~sample_a:(sample histogram_a) ~sample_b:(sample histogram_b) ()

let standard () =
  [
    laplace_case ();
    gaussian_case ();
    geometric_case ();
    exponential_case ();
    rr_case ();
    noisy_max_case ();
    sparse_vector_case ();
    histogram_case ();
    tree_case ();
  ]

(* Each sampling control is built FROM the shared spec in
   {!Controls}: the defect kind selects the miscalibrated sampler and the
   spec's actual ε drives it, so the auditor, the certificate search, and
   CI all test the same four defects. *)
let case_of_control (c : Controls.spec) =
  match c.Controls.kind with
  | Controls.Laplace_half_scale ->
    (* actual ε = 2 × claimed ⇔ noise at half the required scale. *)
    laplace_case ~name:c.name
      ~scale_override:(Some (c.claimed_epsilon /. c.actual_epsilon))
      ~broken:true ()
  | Controls.Geometric_triple_epsilon ->
    geometric_case ~name:c.name ~actual_epsilon:c.actual_epsilon ~broken:true ()
  | Controls.Exponential_missing_half -> broken_exponential_case ~name:c.name ()
  | Controls.Randomized_response_double_epsilon ->
    rr_case ~name:c.name ~actual_epsilon:c.actual_epsilon ~broken:true ()

let broken () = List.map case_of_control Controls.all

let all () = standard () @ broken ()

let find name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun c -> String.lowercase_ascii c.name = name) (all ())
