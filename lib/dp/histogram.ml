type cell = { label : string; pred : Query.Predicate.t }

let partition_by_attribute model attr =
  let dist = Dataset.Model.marginal model attr in
  Array.map
    (fun v ->
      {
        label = Printf.sprintf "%s=%s" attr (Dataset.Value.to_string v);
        pred = Query.Predicate.Atom (Query.Predicate.Eq (attr, v));
      })
    (Prob.Distribution.support dist)

let exact table cells =
  let schema = Dataset.Table.schema table in
  Array.map
    (fun c -> (c.label, Query.Predicate.count schema c.pred table))
    cells

let noisy rng ~epsilon table cells =
  if epsilon <= 0. then invalid_arg "Dp.Histogram.noisy: epsilon";
  Array.map
    (fun (label, count) ->
      ( label,
        float_of_int count
        +. Telemetry.noise ~mechanism:"laplace" ~scale:(1. /. epsilon)
             (Prob.Sampler.laplace rng ~scale:(1. /. epsilon)) ))
    (exact table cells)
