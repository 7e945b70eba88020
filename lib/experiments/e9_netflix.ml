type row = {
  users : int;
  movies : int;
  aux_items : int;
  correct : float;
  wrong : float;
  abstained : float;
}

let threshold = 1.5

let measure rng ~users ~movies ~aux_items ~targets =
  let ratings =
    Dataset.Synth.ratings rng ~users ~movies ~ratings_per_user:12
  in
  let by_user = Dataset.Synth.ratings_by_user ratings ~users in
  let support = Attacks.Sparse_linkage.movie_support ratings ~movies in
  let correct = ref 0 and wrong = ref 0 and abstained = ref 0 in
  for _ = 1 to targets do
    let target = Prob.Rng.int rng users in
    let aux =
      Attacks.Sparse_linkage.make_aux rng by_user.(target) ~items:aux_items
    in
    let verdict =
      Attacks.Sparse_linkage.deanonymize ~support ~threshold aux by_user
    in
    match verdict.Attacks.Sparse_linkage.matched with
    | Some m when m = target -> incr correct
    | Some _ -> incr wrong
    | None -> incr abstained
  done;
  let f c = float_of_int c /. float_of_int targets in
  {
    users;
    movies;
    aux_items;
    correct = f !correct;
    wrong = f !wrong;
    abstained = f !abstained;
  }

let run ~scale rng =
  let users, movies, targets, aux_sizes =
    match scale with
    | Common.Quick -> (800, 300, 40, [ 2; 4; 8 ])
    | Common.Full -> (5000, 500, 150, [ 1; 2; 3; 4; 6; 8 ])
  in
  List.map (fun aux_items -> measure rng ~users ~movies ~aux_items ~targets) aux_sizes

let print ~scale rng fmt =
  Common.banner fmt ~id:"E9"
    ~title:"Sparse-dataset de-anonymization (Netflix / Scoreboard-RH)"
    ~claim:
      "A handful of approximate (movie, rating, date) observations usually \
       identifies a subscriber exactly, or narrows to a small candidate \
       set, despite the absence of conventional identifiers.";
  let rows = run ~scale rng in
  Common.table fmt
    ~header:[ "users"; "movies"; "aux items"; "correct"; "wrong"; "abstained" ]
    (List.map
       (fun r ->
         [
           string_of_int r.users;
           string_of_int r.movies;
           string_of_int r.aux_items;
           Common.pct r.correct;
           Common.pct r.wrong;
           Common.pct r.abstained;
         ])
       rows)
