module Synth = Dataset.Synth

type published = {
  block : int;
  total : int;
  age_histogram : (int * int) list;
  sex_by_bucket : ((int * int) * int) list;
  race_eth : ((int * int) * int) list;
}

let bump table key =
  Hashtbl.replace table key (1 + Option.value ~default:0 (Hashtbl.find_opt table key))

let sorted_assoc table =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] |> List.sort compare

let tabulate_block ~block members =
  let ages = Hashtbl.create 16
  and sex_bucket = Hashtbl.create 16
  and race_eth = Hashtbl.create 16 in
  Array.iter
    (fun p ->
      bump ages p.Synth.age;
      bump sex_bucket (p.Synth.sex, p.Synth.age / 10);
      bump race_eth (p.Synth.race, p.Synth.ethnicity))
    members;
  {
    block;
    total = Array.length members;
    age_histogram = sorted_assoc ages;
    sex_by_bucket = sorted_assoc sex_bucket;
    race_eth = sorted_assoc race_eth;
  }

let tabulate people =
  let max_block =
    Array.fold_left (fun acc p -> max acc p.Synth.block) (-1) people
  in
  (* Single pass: bucket once instead of rescanning the whole population per
     block (the old O(people × blocks) scan). The tables are pure counts, so
     the output is identical. *)
  let buckets = Array.make (max_block + 1) [] in
  Array.iter (fun p -> buckets.(p.Synth.block) <- p :: buckets.(p.Synth.block)) people;
  Array.mapi
    (fun block members ->
      tabulate_block ~block (Array.of_list (List.rev members)))
    buckets

let protect rng ~epsilon tables =
  if epsilon <= 0. then invalid_arg "Census.protect: epsilon";
  let per_family = epsilon /. 4. in
  let noisy count =
    max 0 (Dp.Geometric.perturb rng ~epsilon:per_family count)
  in
  let noisy_cells ~domain cells =
    List.filter_map
      (fun key ->
        let exact = Option.value ~default:0 (List.assoc_opt key cells) in
        let v = noisy exact in
        if v > 0 then Some (key, v) else None)
      domain
  in
  let age_domain = List.init 100 Fun.id in
  let sex_bucket_domain =
    List.concat_map (fun sex -> List.init 10 (fun b -> (sex, b))) [ 0; 1 ]
  in
  let race_eth_domain =
    List.concat_map (fun race -> [ (race, 0); (race, 1) ]) [ 0; 1; 2; 3; 4; 5 ]
  in
  Array.map
    (fun t ->
      let age_histogram = noisy_cells ~domain:age_domain t.age_histogram in
      {
        t with
        total = List.fold_left (fun acc (_, c) -> acc + c) 0 age_histogram;
        age_histogram;
        sex_by_bucket = noisy_cells ~domain:sex_bucket_domain t.sex_by_bucket;
        race_eth = noisy_cells ~domain:race_eth_domain t.race_eth;
      })
    tables

type commercial = { c_name : string; c_block : int; c_sex : int; c_age : int }

let commercial_db rng people ~coverage ~age_error_rate =
  if coverage < 0. || coverage > 1. then invalid_arg "Census.commercial_db: coverage";
  Array.to_list people
  |> List.filter (fun _ -> Prob.Sampler.bernoulli rng ~p:coverage)
  |> List.map (fun (p : Synth.census_person) ->
         let age =
           if Prob.Sampler.bernoulli rng ~p:age_error_rate then
             max 0 (p.Synth.age + if Prob.Rng.bool rng then 1 else -1)
           else p.Synth.age
         in
         { c_name = p.Synth.person_name; c_block = p.Synth.block; c_sex = p.Synth.sex; c_age = age })
  |> Array.of_list
