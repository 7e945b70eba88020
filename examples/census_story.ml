(* The Census story (Section 1): publish block-level tables, reconstruct
   the microdata, link to a commercial database, and compare the confirmed
   re-identification rate with the agency's prior risk estimate — the
   numbers behind "Title 13 prohibits exactly this".

   Run with: dune exec examples/census_story.exe *)

let () =
  let rng = Core.Prob.Rng.create ~seed:2010L () in
  let fmt = Format.std_formatter in

  Format.fprintf fmt "Simulating a census: 400 blocks, ~25 people each...@.";
  let truth =
    Core.Dataset.Synth.census_population rng ~blocks:400 ~mean_block_size:25
  in
  Format.fprintf fmt "population: %d people@.@." (Array.length truth);

  (* Publication: the marginal tables a statistical agency would release. *)
  let tables = Core.Attacks.Census.tabulate truth in
  let sample = tables.(0) in
  Format.fprintf fmt
    "published for block 0: total=%d, %d age cells, %d sex-by-decade cells, \
     %d race-ethnicity cells@."
    sample.Core.Attacks.Census.total
    (List.length sample.Core.Attacks.Census.age_histogram)
    (List.length sample.Core.Attacks.Census.sex_by_bucket)
    (List.length sample.Core.Attacks.Census.race_eth);

  (* Reconstruction: one box least-squares solve per block. *)
  let recon = Core.Attacks.Census_scale.reconstruct tables in
  let eval = Core.Attacks.Census_scale.evaluate ~truth recon in
  Format.fprintf fmt
    "@.reconstruction: %d records; exact for %.1f%%, age within +/-1 for \
     %.1f%% of the population@."
    eval.Core.Attacks.Census_scale.records
    (100. *. eval.Core.Attacks.Census_scale.exact_rate)
    (100. *. eval.Core.Attacks.Census_scale.age_within_one_rate);

  (* Re-identification against a commercial database. *)
  let commercial =
    Core.Attacks.Census.commercial_db rng truth ~coverage:0.6 ~age_error_rate:0.1
  in
  let reid = Core.Attacks.Census_scale.reidentify recon commercial ~truth in
  Format.fprintf fmt
    "@.linkage against commercial data (%d records, 60%% coverage):@."
    (Array.length commercial);
  Format.fprintf fmt "  putative re-identifications: %d (%.1f%% of population)@."
    reid.Core.Attacks.Census_scale.putative
    (100. *. reid.Core.Attacks.Census_scale.putative_rate);
  Format.fprintf fmt "  confirmed re-identifications: %d (%.1f%% of population)@."
    reid.Core.Attacks.Census_scale.confirmed
    (100. *. reid.Core.Attacks.Census_scale.confirmed_rate);

  let prior = 0.00003 in
  Format.fprintf fmt
    "@.The 2010-era prior risk estimate was %.3f%%; measured risk exceeds it \
     by a factor of ~%.0f.@."
    (100. *. prior)
    (reid.Core.Attacks.Census_scale.confirmed_rate /. prior);
  Format.fprintf fmt
    "(The paper: exact reconstruction for 46%%/71%% of the population, 17%% \
     re-identified, a 4500x gap — and Title 13 prohibits publications \
     whereby individual data can be identified.)@."
