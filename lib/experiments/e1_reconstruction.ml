type row = {
  attack : string;
  n : int;
  queries : int;
  alpha : float;
  agreement : float;
  blatant : bool;
}

(* One table row as data: which attack, at what size and noise, averaged
   over how many trials. Rows carry no randomness — every trial draws only
   from the child generator it is handed, which is what lets the harness
   fan trials across domains deterministically. *)
type spec = {
  s_attack : string;
  s_n : int;
  s_queries : int;
  s_alpha : float;
  s_trials : int;
  s_run :
    Prob.Rng.t -> Query.Oracle.t -> int array -> Attacks.Reconstruction.result;
}

let random_bits rng n = Array.init n (fun _ -> if Prob.Rng.bool rng then 1 else 0)

let trial spec rng =
  let truth = random_bits rng spec.s_n in
  let oracle =
    if spec.s_alpha = 0. then Query.Oracle.exact truth
    else Query.Oracle.bounded_noise rng ~magnitude:spec.s_alpha truth
  in
  (spec.s_run rng oracle truth).Attacks.Reconstruction.agreement

let specs ~scale =
  let trials, lsq_ns, exh_n =
    match scale with
    | Common.Quick -> (2, [ 64 ], 8)
    | Common.Full -> (5, [ 64; 256 ], 12)
  in
  (* Exhaustive attack (Theorem 1.1(i)): tolerates alpha = Theta(n). *)
  let exhaustive =
    List.map
      (fun alpha ->
        {
          s_attack = "exhaustive";
          s_n = exh_n;
          s_queries = 1 lsl exh_n;
          s_alpha = alpha;
          s_trials = 1;
          s_run =
            (fun _rng oracle truth -> Attacks.Reconstruction.exhaustive oracle ~truth);
        })
      [ 0.; float_of_int exh_n /. 8.; float_of_int exh_n /. 4. ]
  in
  (* Least-squares attack (Theorem 1.1(ii)): tolerates alpha = Theta(sqrt n). *)
  let least_squares =
    List.concat_map
      (fun n ->
        let sqrt_n = Float.sqrt (float_of_int n) in
        let queries = 8 * n in
        List.map
          (fun alpha ->
            {
              s_attack = "least-squares";
              s_n = n;
              s_queries = queries;
              s_alpha = alpha;
              s_trials = trials;
              s_run =
                (fun rng oracle truth ->
                  Attacks.Reconstruction.least_squares rng oracle ~queries ~truth);
            })
          [ 0.; 0.5 *. sqrt_n; sqrt_n; float_of_int n /. 8.; float_of_int n /. 3. ])
      lsq_ns
  in
  (* LP decoding at a single modest size (slow but noise-robust). *)
  let lp =
    let n = 32 in
    let queries = 6 * n in
    List.map
      (fun alpha ->
        {
          s_attack = "lp-decode";
          s_n = n;
          s_queries = queries;
          s_alpha = alpha;
          s_trials = 1;
          s_run =
            (fun rng oracle truth ->
              Attacks.Reconstruction.lp_decode rng oracle ~queries ~truth);
        })
      [ 0.; Float.sqrt 32. ]
  in
  exhaustive @ least_squares @ lp

let run ?pool ~scale rng =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let specs = Array.of_list (specs ~scale) in
  (* Flatten to one work item per (row, trial): the units the attacks
     decompose into are single solves, so this is the finest granularity
     available, and dynamic stealing balances a cheap exhaustive run
     against an expensive LP decode. *)
  let spec_of_item =
    Array.concat
      (Array.to_list
         (Array.map (fun s -> Array.make s.s_trials s) specs))
  in
  let agreements =
    Parallel.Trials.map pool rng ~trials:(Array.length spec_of_item)
      (fun trial_rng i -> trial spec_of_item.(i) trial_rng)
  in
  let rows = ref [] in
  let item = ref 0 in
  Array.iter
    (fun s ->
      let total = ref 0. in
      for _ = 1 to s.s_trials do
        total := !total +. agreements.(!item);
        incr item
      done;
      let agreement = !total /. float_of_int s.s_trials in
      rows :=
        {
          attack = s.s_attack;
          n = s.s_n;
          queries = s.s_queries;
          alpha = s.s_alpha;
          agreement;
          blatant = agreement >= Attacks.Reconstruction.blatant_non_privacy_threshold;
        }
        :: !rows)
    specs;
  List.rev !rows

let print ~scale rng fmt =
  Common.banner fmt ~id:"E1" ~title:"Database reconstruction (Theorem 1.1)"
    ~claim:
      "Reconstruction succeeds unless the mechanism adds error Omega(sqrt n) \
       against polynomially many queries (Omega(n) against all queries); \
       overly accurate answers to too many questions destroy privacy.";
  let rows = run ~scale rng in
  Common.table fmt
    ~header:[ "attack"; "n"; "queries"; "alpha"; "recovered"; "blatant?" ]
    (List.map
       (fun r ->
         [
           r.attack;
           string_of_int r.n;
           string_of_int r.queries;
           Printf.sprintf "%.1f" r.alpha;
           Common.pct r.agreement;
           (if r.blatant then "YES" else "no");
         ])
       rows)
