type aux_item = { movie : int; stars : int; day : int }

(* The attacker's memory is off by up to this many stars and days. *)
let star_fuzz = 1

let day_fuzz = 14

let make_aux rng target_ratings ~items =
  let available = Array.length target_ratings in
  let take = min items available in
  let chosen = Prob.Rng.sample_without_replacement rng take available in
  Array.map
    (fun i ->
      let r = target_ratings.(i) in
      {
        movie = r.Dataset.Synth.movie;
        stars =
          min 5 (max 1 (r.Dataset.Synth.stars + Prob.Rng.int_in rng (-star_fuzz) star_fuzz));
        day = max 0 (r.Dataset.Synth.day + Prob.Rng.int_in rng (-day_fuzz) day_fuzz);
      })
    chosen

let movie_support ratings ~movies =
  let support = Array.make movies 0 in
  Array.iter
    (fun r -> support.(r.Dataset.Synth.movie) <- support.(r.Dataset.Synth.movie) + 1)
    ratings;
  support

let item_matches item (r : Dataset.Synth.rating) =
  item.movie = r.Dataset.Synth.movie
  && abs (item.stars - r.Dataset.Synth.stars) <= 1
  && abs (item.day - r.Dataset.Synth.day) <= 30

let score ~support aux candidate =
  Array.fold_left
    (fun acc item ->
      let matched = Array.exists (item_matches item) candidate in
      if matched then
        acc +. (1. /. Float.log (2. +. float_of_int support.(item.movie)))
      else acc)
    0. aux

type verdict = { best : int; eccentricity : float; matched : int option }

let deanonymize ~support ~threshold aux candidates =
  let n = Array.length candidates in
  if n = 0 then invalid_arg "Sparse_linkage.deanonymize: no candidates";
  let scores = Array.map (fun c -> score ~support aux c) candidates in
  let best = ref 0 in
  Array.iteri (fun i s -> if s > scores.(!best) then best := i) scores;
  let runner_up =
    Array.to_list scores
    |> List.mapi (fun i s -> (i, s))
    |> List.filter (fun (i, _) -> i <> !best)
    |> List.fold_left (fun acc (_, s) -> Float.max acc s) neg_infinity
  in
  let sigma = Prob.Stats.std scores in
  let eccentricity =
    if sigma <= 0. then if scores.(!best) > runner_up then infinity else 0.
    else (scores.(!best) -. runner_up) /. sigma
  in
  {
    best = !best;
    eccentricity;
    matched = (if eccentricity >= threshold then Some !best else None);
  }
