module Cs = Attacks.Census_scale

type row = {
  mean_block_size : int;
  blocks : int;
  population : int;
  records : int;
  suppressed : int;
  match_rate : float;
  sex_age_rate : float;
  cold_iters_per_block : float;
  warm_iters_per_block : float;
  rows_per_sec : float;
}

let threshold = 3

let measure ?pool rng ~blocks ~mean_block_size ~shards =
  let cfg =
    {
      Cs.blocks;
      mean_block_size;
      shards;
      threshold;
      warm_start = true;
      shave = false;
    }
  in
  (* The cold run replays the identical block stream from a copy of the
     generator, so the iteration columns compare solves of the same
     systems, not of different random blocks. *)
  let cold_rng = Prob.Rng.copy rng in
  let t0 = Obs.now_ns () in
  let warm = Cs.run ?pool cfg rng in
  let dt_ns = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) in
  let cold = Cs.run ?pool { cfg with Cs.warm_start = false } cold_rng in
  let per_block total n = if n = 0 then 0. else float_of_int total /. float_of_int n in
  {
    mean_block_size;
    blocks;
    population = warm.Cs.population;
    records = warm.Cs.records;
    suppressed = warm.Cs.suppressed_cells;
    match_rate = Cs.match_rate warm;
    sex_age_rate = Cs.sex_age_rate warm;
    cold_iters_per_block = per_block cold.Cs.iterations cold.Cs.solved_blocks;
    warm_iters_per_block =
      per_block warm.Cs.warm_iterations warm.Cs.warm_solves;
    rows_per_sec =
      (if dt_ns <= 0. then 0.
       else float_of_int warm.Cs.records /. (dt_ns /. 1e9));
  }

let run ?pool ~scale rng =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  (* Rows run sequentially: each one already fans its shards across the
     pool, and a row's generator is split off up front so the results are
     independent of the pool size. *)
  let params =
    match scale with
    | Common.Quick -> [ (10, 24, 4); (25, 24, 4); (50, 24, 4) ]
    | Common.Full -> [ (25, 400, 16); (100, 400, 16); (250, 200, 16) ]
  in
  List.map
    (fun (mean_block_size, blocks, shards) ->
      let row_rng = Prob.Rng.split rng in
      measure ~pool row_rng ~blocks ~mean_block_size ~shards)
    params

let print ~scale rng fmt =
  Common.banner fmt ~id:"E14"
    ~title:"Census-scale sharded reconstruction (streaming)"
    ~claim:
      "The 2010 exhibit solved 6M+ block systems for 308.7M people. \
       Streaming per-block tabulation and suppression-aware sparse solves \
       reconstruct every published record without materializing the \
       population, recover more of the joint distribution as blocks grow, \
       and neighbor warm-starting cuts solver iterations per block.";
  let rows = run ~scale rng in
  Common.table fmt
    ~header:
      [
        "mean size"; "blocks"; "population"; "records"; "suppressed";
        "joint match"; "sex-age match"; "cold it/blk"; "warm it/blk";
      ]
    (List.map
       (fun r ->
         [
           string_of_int r.mean_block_size;
           string_of_int r.blocks;
           string_of_int r.population;
           string_of_int r.records;
           string_of_int r.suppressed;
           Common.pct r.match_rate;
           Common.pct r.sex_age_rate;
           Printf.sprintf "%.1f" r.cold_iters_per_block;
           Printf.sprintf "%.1f" r.warm_iters_per_block;
         ])
       rows);
  (* Throughput is wall-clock and machine-dependent: stderr only, never in
     the golden-pinned table. *)
  List.iter
    (fun r ->
      Printf.eprintf "[E14] mean=%d blocks=%d: %.0f rows/sec\n%!"
        r.mean_block_size r.blocks r.rows_per_sec)
    rows
