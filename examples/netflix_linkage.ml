(* The Netflix story (Section 1): a released ratings dataset with no
   identifiers, an attacker who half-remembers a colleague's movie nights,
   and the Scoreboard-RH algorithm connecting the two.

   Run with: dune exec examples/netflix_linkage.exe *)

let () =
  let rng = Core.Prob.Rng.create ~seed:2006L () in
  let fmt = Format.std_formatter in

  let users = 2000 and movies = 400 in
  Format.fprintf fmt
    "Releasing an 'anonymized' ratings dataset: %d subscribers, %d movies...@."
    users movies;
  let ratings =
    Core.Dataset.Synth.ratings rng ~users ~movies ~ratings_per_user:12
  in
  let by_user = Core.Dataset.Synth.ratings_by_user ratings ~users in
  let support = Core.Attacks.Sparse_linkage.movie_support ratings ~movies in
  Format.fprintf fmt "released ratings: %d@.@." (Array.length ratings);

  (* The attacker knows ~4 of a target's ratings, imprecisely. *)
  let target = 1234 in
  let aux = Core.Attacks.Sparse_linkage.make_aux rng by_user.(target) ~items:4 in
  Format.fprintf fmt "auxiliary knowledge about one subscriber (noisy):@.";
  Array.iter
    (fun item ->
      Format.fprintf fmt "  movie #%d rated ~%d stars around day %d@."
        item.Core.Attacks.Sparse_linkage.movie
        item.Core.Attacks.Sparse_linkage.stars
        item.Core.Attacks.Sparse_linkage.day)
    aux;

  let verdict =
    Core.Attacks.Sparse_linkage.deanonymize ~support ~threshold:1.5 aux by_user
  in
  Format.fprintf fmt "@.scoreboard best match: subscriber #%d (eccentricity %.1f)@."
    verdict.Core.Attacks.Sparse_linkage.best
    verdict.Core.Attacks.Sparse_linkage.eccentricity;
  (match verdict.Core.Attacks.Sparse_linkage.matched with
  | Some m when m = target ->
    Format.fprintf fmt "-> RE-IDENTIFIED correctly (true target was #%d)@." target
  | Some m ->
    Format.fprintf fmt "-> matched #%d, but the true target was #%d@." m target
  | None -> Format.fprintf fmt "-> eccentricity test abstained@.");

  (* How it scales with auxiliary knowledge. *)
  Format.fprintf fmt
    "@.Success rate over 60 random targets, by auxiliary items:@.";
  List.iter
    (fun items ->
      let hits = ref 0 in
      for _ = 1 to 60 do
        let t = Core.Prob.Rng.int rng users in
        let aux = Core.Attacks.Sparse_linkage.make_aux rng by_user.(t) ~items in
        let v =
          Core.Attacks.Sparse_linkage.deanonymize ~support ~threshold:1.5 aux by_user
        in
        if v.Core.Attacks.Sparse_linkage.matched = Some t then incr hits
      done;
      Format.fprintf fmt "  %d items -> %d/60 re-identified@." items !hits)
    [ 1; 2; 4; 8 ]
