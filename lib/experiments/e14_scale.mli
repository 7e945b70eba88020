(** E14 — census-scale sharded reconstruction (Section 1, at scale).

    Streams a synthetic population block by block through the
    {!Attacks.Census_scale} pipeline — per-block suppression, interval
    propagation, warm-started sparse box least squares, total-consistent
    rounding — without ever materializing the population, and reports
    reconstruction quality versus block size. Each parameter row runs the
    same blocks twice, warm-started and cold, so the table also quantifies
    what neighbor warm-starting saves in solver iterations. Throughput
    (rows reconstructed per second) is printed to stderr only: the table
    itself is deterministic and golden-pinned. *)

type row = {
  mean_block_size : int;
  blocks : int;
  population : int;
  records : int;  (** rows emitted — always equals population *)
  suppressed : int;  (** nonzero cells hidden by the threshold *)
  match_rate : float;  (** joint (sex, age, race, eth) cell overlap *)
  sex_age_rate : float;  (** overlap on the (sex, age) marginal *)
  cold_iters_per_block : float;
  warm_iters_per_block : float;  (** warm-started solves only *)
  rows_per_sec : float;  (** wall-clock throughput; never rendered *)
}

val print : scale:Common.scale -> Prob.Rng.t -> Format.formatter -> unit
