type row = {
  population : int;
  records : int;
  blocks : int;
  protection : string;  (* "none" or "DP eps=..." *)
  commercial_coverage : float;
  exact_reconstruction : float;
  age_within_one : float;
  putative : float;
  confirmed : float;
  prior_estimate : float;
  gap_factor : float;
}

let prior_estimate = 0.00003 (* the 0.003% pre-2010 risk estimate *)

let measure rng ?dp_epsilon ~blocks ~mean_block_size ~coverage () =
  let truth = Dataset.Synth.census_population rng ~blocks ~mean_block_size in
  let tables = Attacks.Census.tabulate truth in
  let tables =
    match dp_epsilon with
    | None -> tables
    | Some epsilon -> Attacks.Census.protect rng ~epsilon tables
  in
  let recon = Attacks.Census_scale.reconstruct tables in
  let eval = Attacks.Census_scale.evaluate ~truth recon in
  let commercial =
    Attacks.Census.commercial_db rng truth ~coverage ~age_error_rate:0.1
  in
  let reid = Attacks.Census_scale.reidentify recon commercial ~truth in
  {
    population = Array.length truth;
    records = eval.Attacks.Census_scale.records;
    blocks;
    protection =
      (match dp_epsilon with
      | None -> "none"
      | Some e -> Printf.sprintf "DP eps=%g" e);
    commercial_coverage = coverage;
    exact_reconstruction = eval.Attacks.Census_scale.exact_rate;
    age_within_one = eval.Attacks.Census_scale.age_within_one_rate;
    putative = reid.Attacks.Census_scale.putative_rate;
    confirmed = reid.Attacks.Census_scale.confirmed_rate;
    prior_estimate;
    gap_factor = reid.Attacks.Census_scale.confirmed_rate /. prior_estimate;
  }

let run ?pool ~scale rng =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  (* Each row is one full tabulate/reconstruct/re-identify pipeline; rows
     are independent given their own generator, so they fan out across the
     pool as whole units. *)
  let rows =
    match scale with
    | Common.Quick ->
      [|
        (fun rng -> measure rng ~blocks:150 ~mean_block_size:25 ~coverage:0.6 ());
        (fun rng ->
          measure rng ~dp_epsilon:1. ~blocks:150 ~mean_block_size:25 ~coverage:0.6 ());
      |]
    | Common.Full ->
      [|
        (fun rng -> measure rng ~blocks:600 ~mean_block_size:25 ~coverage:0.3 ());
        (fun rng -> measure rng ~blocks:600 ~mean_block_size:25 ~coverage:0.6 ());
        (fun rng -> measure rng ~blocks:600 ~mean_block_size:60 ~coverage:0.6 ());
        (* The post-2010 response: differentially private tabulations. *)
        (fun rng ->
          measure rng ~dp_epsilon:4. ~blocks:600 ~mean_block_size:25 ~coverage:0.6 ());
        (fun rng ->
          measure rng ~dp_epsilon:1. ~blocks:600 ~mean_block_size:25 ~coverage:0.6 ());
      |]
  in
  Array.to_list
    (Parallel.Trials.map pool rng ~trials:(Array.length rows)
       (fun trial_rng i -> rows.(i) trial_rng))

let print ~scale rng fmt =
  Common.banner fmt ~id:"E10"
    ~title:"Census reconstruction-abetted re-identification"
    ~claim:
      "Reconstruction of the 2010 tabulations recovered age to within one \
       year (with exact sex/race/ethnicity/block) for 71% of the US \
       population; matching commercial data confirmed re-identification of \
       17%, ~4500x the Bureau's prior 0.003% estimate.";
  let rows = run ~scale rng in
  Common.table fmt
    ~header:
      [
        "population"; "records"; "blocks"; "tables"; "comm. cov."; "exact recon";
        "age +/-1"; "putative"; "confirmed"; "prior est."; "gap";
      ]
    (List.map
       (fun r ->
         [
           string_of_int r.population;
           string_of_int r.records;
           string_of_int r.blocks;
           r.protection;
           Common.pct r.commercial_coverage;
           Common.pct r.exact_reconstruction;
           Common.pct r.age_within_one;
           Common.pct r.putative;
           Common.pct r.confirmed;
           Common.pct r.prior_estimate;
           Printf.sprintf "%.0fx" r.gap_factor;
         ])
       rows);
  (match rows with
  | r :: _ ->
    let det =
      Legal.Determinations.title_13 ~confirmed_rate:r.confirmed
        ~prior_estimate:r.prior_estimate
    in
    Format.fprintf fmt "@.%a@." Legal.Theorem.pp det
  | [] -> ())
