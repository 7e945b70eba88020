type result = {
  estimate : int array;
  hamming_errors : int;
  agreement : float;
  queries_used : int;
  converged : bool;
}

let blatant_non_privacy_threshold = 0.95

let agreement a b =
  if Array.length a <> Array.length b then
    invalid_arg "Reconstruction.agreement: length mismatch";
  if Array.length a = 0 then 1.
  else begin
    let same = ref 0 in
    Array.iteri (fun i v -> if v = b.(i) then incr same) a;
    float_of_int !same /. float_of_int (Array.length a)
  end

let c_queries = Obs.Counter.make "attacks.queries"

let finish ~truth ~queries_used ~converged estimate =
  Obs.Counter.add c_queries queries_used;
  let hamming_errors =
    let e = ref 0 in
    Array.iteri (fun i v -> if v <> truth.(i) then incr e) estimate;
    !e
  in
  {
    estimate;
    hamming_errors;
    agreement = agreement estimate truth;
    queries_used;
    converged;
  }

(* Callers guarantee n <= 16, so masks fit Query.Bitset's shared 16-bit
   popcount table — sizing the subset is one load instead of a bit loop. *)
let mask_to_subset n mask =
  let out = Array.make (Query.Bitset.popcount16 mask) 0 in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if mask land (1 lsl i) <> 0 then begin
      out.(!j) <- i;
      incr j
    end
  done;
  out

let exhaustive oracle ~truth =
  Obs.with_span "attacks.exhaustive" @@ fun () ->
  let n = Query.Oracle.n oracle in
  if n > 16 then invalid_arg "Reconstruction.exhaustive: n > 16";
  let nmasks = 1 lsl n in
  (* Ask all 2^n subset queries. *)
  let answers = Array.make nmasks 0. in
  for mask = 0 to nmasks - 1 do
    answers.(mask) <- Query.Oracle.ask oracle (mask_to_subset n mask)
  done;
  (* Popcount of (candidate AND query-mask) is the candidate's exact answer;
     pick the candidate minimizing the worst violation. The exhaustive
     search popcounts every (candidate AND mask) pair — O(4^n) of them — so
     the 16-bit table load is the kernel's hot instruction. *)
  let popcount = Query.Bitset.popcount16 in
  let best = ref 0 in
  let best_violation = ref infinity in
  for candidate = 0 to nmasks - 1 do
    let worst = ref 0. in
    (try
       for mask = 0 to nmasks - 1 do
         let v =
           Float.abs (float_of_int (popcount (candidate land mask)) -. answers.(mask))
         in
         if v > !worst then worst := v;
         if !worst >= !best_violation then raise Exit
       done
     with Exit -> ());
    if !worst < !best_violation then begin
      best_violation := !worst;
      best := candidate
    end
  done;
  let estimate = Array.init n (fun i -> (!best lsr i) land 1) in
  finish ~truth ~queries_used:nmasks ~converged:true estimate

let random_queries rng ~queries n =
  (* Build each subset directly into a scratch buffer instead of consing an
     intermediate list per query; only the final right-sized copy allocates. *)
  let scratch = Array.make (max n 1) 0 in
  let one () =
    let k = ref 0 in
    for i = 0 to n - 1 do
      if Prob.Rng.bool rng then begin
        scratch.(!k) <- i;
        incr k
      end
    done;
    Array.sub scratch 0 !k
  in
  let out = Array.make queries [||] in
  for q = 0 to queries - 1 do
    out.(q) <- one ()
  done;
  out

let least_squares rng oracle ~queries ~truth =
  Obs.with_span "attacks.least_squares" @@ fun () ->
  let n = Query.Oracle.n oracle in
  let qs = random_queries rng ~queries n in
  let answers = Query.Oracle.ask_many oracle qs in
  (* CSR instead of a dense m×n materialization: the kernels accumulate in
     the same order as the dense loops, so the solution (and the E1 golden)
     is bit-identical — only the memory and the per-iteration work shrink. *)
  let a = Linalg.Sparse.of_subset_queries ~query:qs ~n in
  let sol =
    Linalg.Lsq.box
      ~options:{ Linalg.Lsq.max_iter = 2000; tolerance = 1e-10 }
      (Linalg.Lsq.of_sparse a) answers
      ~lo:(Linalg.Vector.create n 0.) ~hi:(Linalg.Vector.create n 1.)
  in
  let estimate = Array.map (fun v -> if v >= 0.5 then 1 else 0) sol.Linalg.Lsq.x in
  finish ~truth ~queries_used:queries ~converged:sol.Linalg.Lsq.converged estimate

let lp_decode rng oracle ~queries ~truth =
  Obs.with_span "attacks.lp_decode" @@ fun () ->
  let n = Query.Oracle.n oracle in
  let qs = random_queries rng ~queries n in
  let answers = Query.Oracle.ask_many oracle qs in
  let t = Array.length qs in
  (* Variables: z_0..z_{n-1}, then per query a positive and a negative
     residual p_q, m_q >= 0 with (Az)_q + p_q − m_q = a_q; minimize
     Σ (p_q + m_q) = Σ |residual|. The p_q columns are row-singletons, so
     the solver starts from the feasible basis z = 0, p = a (no phase 1). *)
  let nv = n + (2 * t) in
  let objective = Array.init nv (fun j -> if j >= n then 1. else 0.) in
  (* One accumulator pass, consed in reverse (box rows first), instead of
     two List.init's joined with [@] — same constraint order, no re-cons of
     the residual block. *)
  let constraints =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      let row = Array.make nv 0. in
      row.(i) <- 1.;
      acc := (row, Linalg.Simplex.Le, 1.) :: !acc
    done;
    for qi = t - 1 downto 0 do
      let row = Array.make nv 0. in
      Array.iter (fun i -> row.(i) <- 1.) qs.(qi);
      row.(n + (2 * qi)) <- 1.;
      row.(n + (2 * qi) + 1) <- -1.;
      acc := (row, Linalg.Simplex.Eq, answers.(qi)) :: !acc
    done;
    !acc
  in
  let problem = { Linalg.Simplex.objective; constraints } in
  let round x = Array.init n (fun i -> if x.(i) >= 0.5 then 1 else 0) in
  let estimate, converged =
    match Linalg.Simplex.solve problem with
    | Linalg.Simplex.Optimal { x; _ } -> (round x, true)
    | Linalg.Simplex.Stalled { x; _ } -> (round x, false)
    | Linalg.Simplex.Infeasible | Linalg.Simplex.Unbounded ->
      (* Cannot happen for this formulation (s large enough is always
         feasible, objective bounded by 0) — fall back to all-zeros. *)
      (Array.make n 0, false)
  in
  finish ~truth ~queries_used:queries ~converged estimate
