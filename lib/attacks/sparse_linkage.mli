(** De-anonymization of sparse datasets (Narayanan–Shmatikov 2006/2008 —
    the paper's Netflix story).

    The Scoreboard-RH algorithm: given noisy auxiliary knowledge of a few of
    a target's (movie, rating, date) triples, score every subscriber in the
    released data by similarity, weighting rare movies more
    ([1 / log(2 + support)]); output the best-scoring subscriber if their
    lead over the runner-up (the "eccentricity") clears a threshold. *)

type aux_item = { movie : int; stars : int; day : int }
(** One piece of auxiliary knowledge, possibly imprecise. *)

val make_aux :
  Prob.Rng.t ->
  Dataset.Synth.rating array ->
  items:int ->
  aux_item array
(** Sample [items] of a target user's ratings (fewer if the user rated
    fewer) and perturb each by up to ±1 star and ±14 days — the
    attacker's imperfect memory / IMDb-sourced knowledge. *)

val movie_support : Dataset.Synth.rating array -> movies:int -> int array
(** Number of raters per movie in the released data. *)

val score : support:int array -> aux_item array -> Dataset.Synth.rating array -> float
(** Scoreboard similarity of a candidate's record to the auxiliary
    knowledge: matching items (same movie, stars within 1, day within 30)
    contribute [1 / log(2 + support(movie))]. *)

type verdict = {
  best : int;  (** highest-scoring candidate *)
  eccentricity : float;  (** (best − runner-up) / σ(scores) *)
  matched : int option;  (** [Some best] iff eccentricity clears the threshold *)
}

val deanonymize :
  support:int array ->
  threshold:float ->
  aux_item array ->
  Dataset.Synth.rating array array ->
  verdict
(** Score all candidates (indexed by user id) and apply the eccentricity
    test. Raises [Invalid_argument] on an empty candidate set. *)
