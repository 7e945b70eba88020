(** Census-scale sharded reconstruction.

    The paper's 2010 exhibit reconstructs 308.7M people from block-level
    marginal tables. {!Census} runs that pipeline at block-toy scale; this
    module is the scale-out: a synthetic population of millions of people
    across ~10⁴ blocks is generated, tabulated and solved {e block by
    block} — the full population is never materialized — with the blocks
    sharded over the {!Parallel.Pool} domain pool.

    Per block the attacker solves a constraint system over the 2×100×6×2 =
    2400 joint cells [(sex, age, race, ethnicity)]: 133 rows (total, 100
    single-year ages, 20 sex×decade cells, 12 race×ethnicity cells) whose
    0/1 structure is shared by every block, so one CSR matrix serves the
    whole run. Suppression (counts under a threshold withheld, the
    pre-2010 disclosure-avoidance regime) turns exact rows into interval
    rows; {!Linalg.Intervals} propagation pins most cells outright, the
    pinned columns are eliminated, and the surviving free cells go to the
    warm-started sparse box least-squares solver. Within a shard each
    block warm-starts from its neighbor's relaxed solution, raked onto
    this block's published age, sex×decade and race×ethnicity rows and
    its exact total (see {!warm_seed}) — the joint structure transfers
    between blocks, the marginals do not — which cuts solver iterations;
    the [census.*] and [linalg.lsq_{warm,cold}_iterations] counters
    expose the effect.

    Determinism: block [b]'s generator is derived by sequential
    {!Prob.Rng.split}s from its shard's generator, and shard results
    combine in shard order, so every statistic is byte-identical at every
    [--jobs] count. *)

type bound = { b_lo : int; b_hi : int }
(** Inclusive bounds on a published count. *)

type suppressed = {
  s_block : int;
  s_total : int;  (** block totals are always published exactly *)
  s_age : bound array;  (** length 100, indexed by age *)
  s_sex_bucket : bound array;  (** length 20, indexed by [sex*10 + age/10] *)
  s_race_eth : bound array;  (** length 12, indexed by [race*2 + ethnicity] *)
  s_suppressed : int;  (** nonzero cells hidden by the threshold *)
}
(** A block's tables under threshold suppression, as interval constraints. *)

val suppress : threshold:int -> Census.published -> suppressed
(** [suppress ~threshold pub] publishes each cell count [c] as [\[c, c\]]
    when [c ≥ threshold] and as [\[0, threshold − 1\]] otherwise — a true
    zero and a suppressed small count are indistinguishable to the
    attacker. [threshold = 0] publishes everything exactly (absent cells
    as exact zeros). The block total stays exact. *)

val n_cells : int
(** 2400: the joint cell count per block. *)

val cell : sex:int -> age:int -> race:int -> eth:int -> int
(** Index of a joint cell, [0 .. n_cells - 1]. *)

val constraint_matrix : unit -> Linalg.Sparse.t
(** The shared 133×2400 0/1 system relating joint cells to the published
    marginal rows. Built once, reused by every block. *)

type block_solution = {
  counts : int array;  (** length [n_cells]: reconstructed joint cells *)
  relaxed : float array;  (** the pre-rounding LS solution — warm-start seed *)
  iterations : int;  (** {!Linalg.Lsq.box} iterations spent *)
  converged : bool;
  fixed_cells : int;  (** cells pinned by interval propagation *)
}

val warm_seed : suppressed -> float array -> float array
(** [warm_seed sup relaxed] rakes a neighboring block's relaxed solution
    onto [sup]'s published row targets (iterative proportional fitting:
    8 sweeps, each over the age, sex×decade and race×ethnicity rows and
    then the exact total, within the propagated per-cell bounds),
    producing the [?x0] seed {!run} passes to {!solve_block}. The
    neighbor's joint structure is kept; its marginals are replaced by
    this block's. [relaxed] must have length {!n_cells}. It propagates
    [sup]'s rows as {!solve_block} does, and inconsistent rows bump the
    same counter. *)

val solve_block :
  ?x0:float array -> ?shave:bool -> suppressed -> block_solution
(** [solve_block sup] reconstructs one block: interval propagation against
    the row bounds (optionally sharpened by branch-and-bound [?shave]),
    elimination of the pinned cells, warm-started ([?x0], a full
    [n_cells]-length relaxed solution) sparse box least squares on the
    free cells, then per-age-row largest-remainder rounding back to
    integer counts consistent with the published age histogram. The
    counts always sum to [s_total]. Rows that propagation proves
    inconsistent (impossible for a truthful tabulation) bump the
    [attacks.census_empty_propagations] counter and leave the solve the
    whole box [\[0, s_total\]]; age rows that cannot sum to [s_total]
    give way to the exact total in the rounding.

    The least-squares step is closed-form, not estimated: each free-cell
    row is weighted by 1/√nnz, the total, age, sex×decade and
    race×ethnicity families each partition the free cells, so [AᵀA] is a
    sum of four projectors that all fix the all-ones vector, and
    [‖A‖² = 4] exactly for every block. *)

val free_operator : ?shave:bool -> suppressed -> Linalg.Lsq.op
(** The row-weighted free-cell operator {!solve_block} hands
    {!Linalg.Lsq.box} for [sup] (the same propagation, [?shave] and
    elimination), whose [‖A‖²] the solve takes to be 4. *)

type config = {
  blocks : int;
  mean_block_size : int;
  shards : int;  (** fixed fan-out unit — results never depend on [--jobs] *)
  threshold : int;  (** suppression threshold; [0] = exact publication *)
  warm_start : bool;
  shave : bool;
}

type stats = {
  population : int;
  records : int;  (** rows emitted by the reconstruction *)
  solved_blocks : int;
  cells_matched : int;  (** Σ_blocks Σ_cells min(truth, reconstruction) *)
  sex_age_matched : int;  (** same, on the (sex, age) marginal *)
  suppressed_cells : int;
  fixed_cells : int;
  warm_solves : int;
  iterations : int;
  warm_iterations : int;  (** iterations spent inside warm-started solves *)
  converged_blocks : int;
}

val match_rate : stats -> float
(** [cells_matched / population]. *)

val sex_age_rate : stats -> float

val run : ?pool:Parallel.Pool.t -> config -> Prob.Rng.t -> stats
(** Run the full scenario: each shard generates, tabulates, solves and
    drops one block at a time, so peak memory is independent of the
    population size. Each block's rows are propagated once, and the
    bounds serve both the raking of {!warm_seed} and the solve of
    {!solve_block}: the results are those of calling the two in turn. *)
