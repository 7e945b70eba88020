let check_epsilon epsilon =
  if epsilon <= 0. then invalid_arg "Dp.Laplace: epsilon must be positive"

let count rng ~epsilon table q =
  check_epsilon epsilon;
  let exact = Query.Predicate.count (Dataset.Table.schema table) q table in
  float_of_int exact
  +. Telemetry.noise ~mechanism:"laplace" ~scale:(1. /. epsilon)
       (Prob.Sampler.laplace rng ~scale:(1. /. epsilon))

let clamp ~lo ~hi v = if v < lo then lo else if v > hi then hi else v

let sum rng ~epsilon ~lo ~hi values =
  check_epsilon epsilon;
  if hi < lo then invalid_arg "Dp.Laplace.sum: empty range";
  let sensitivity = Float.max (Float.abs lo) (Float.abs hi) in
  let exact = Array.fold_left (fun acc v -> acc +. clamp ~lo ~hi v) 0. values in
  let scale = sensitivity /. Float.max epsilon 1e-12 in
  exact +. Telemetry.noise ~mechanism:"laplace" ~scale (Prob.Sampler.laplace rng ~scale)

let mean rng ~epsilon ~lo ~hi values =
  check_epsilon epsilon;
  let half = epsilon /. 2. in
  let noisy_sum = sum rng ~epsilon:half ~lo ~hi values in
  let noisy_count =
    float_of_int (Array.length values)
    +. Telemetry.noise ~mechanism:"laplace" ~scale:(1. /. half)
         (Prob.Sampler.laplace rng ~scale:(1. /. half))
  in
  noisy_sum /. Float.max 1. noisy_count

(* Batched: one shared columnar evaluation of the whole query vector
   through Query.Engine.counts, then one bulk noise pass. Predicate
   counts never touch the rng, so "counts first, then noise in ascending
   order" draws the exact sequence of the old per-query interleaving —
   answers are byte-identical to
   [Array.map (count ~epsilon:per_query table) qs]. *)
let counts ?accountant rng ~epsilon table qs =
  check_epsilon epsilon;
  let nq = Array.length qs in
  let per_query = epsilon /. float_of_int (max 1 nq) in
  let exact = Query.Engine.counts table qs in
  let noise = Bulk.laplace_many rng ~scale:(1. /. per_query) nq in
  Option.iter
    (fun a ->
      Accountant.spend_many a ~epsilon:per_query ~n:nq "laplace-counts")
    accountant;
  Array.init nq (fun i -> float_of_int exact.(i) +. noise.(i))

let mechanism ~epsilon qs = Query.Mechanism.laplace_counts ~epsilon qs
