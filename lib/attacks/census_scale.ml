module Synth = Dataset.Synth
module Sparse = Linalg.Sparse
module Intervals = Linalg.Intervals
module Lsq = Linalg.Lsq

type bound = { b_lo : int; b_hi : int }

type suppressed = {
  s_block : int;
  s_total : int;
  s_age : bound array;
  s_sex_bucket : bound array;
  s_race_eth : bound array;
  s_suppressed : int;
}

let n_sex = 2

let n_age = 100

let n_race = 6

let n_eth = 2

let n_cells = n_sex * n_age * n_race * n_eth

let cell ~sex ~age ~race ~eth = ((((sex * n_age) + age) * n_race) + race) * n_eth + eth

(* Row layout of the shared constraint system. *)
let n_rows = 1 + n_age + (n_sex * 10) + (n_race * n_eth)

let row_total = 0

let row_age a = 1 + a

let row_sex_bucket s b = 1 + n_age + (s * 10) + b

let row_race_eth r e = 1 + n_age + (n_sex * 10) + (r * n_eth) + e

(* Built eagerly at module init: a [lazy] here would be forced
   concurrently by the shard worker domains, which [Lazy.force] does not
   support (it raises [Undefined]). The build is a few microseconds. *)
let matrix =
  let rows = Array.make n_rows [] in
  let push r j = rows.(r) <- (j, 1.) :: rows.(r) in
  for sex = 0 to n_sex - 1 do
    for age = 0 to n_age - 1 do
      for race = 0 to n_race - 1 do
        for eth = 0 to n_eth - 1 do
          let j = cell ~sex ~age ~race ~eth in
          push row_total j;
          push (row_age age) j;
          push (row_sex_bucket sex (age / 10)) j;
          push (row_race_eth race eth) j
        done
      done
    done
  done;
  Sparse.of_rows ~cols:n_cells rows

let constraint_matrix () = matrix

let suppress ~threshold pub =
  if threshold < 0 then invalid_arg "Census_scale.suppress: threshold";
  let hidden = ref 0 in
  let publish c =
    if threshold = 0 || c >= threshold then { b_lo = c; b_hi = c }
    else begin
      if c > 0 then incr hidden;
      { b_lo = 0; b_hi = threshold - 1 }
    end
  in
  let from_assoc ~size ~key cells =
    let out = Array.init size (fun _ -> publish 0) in
    List.iter (fun (k, c) -> out.(key k) <- publish c) cells;
    out
  in
  (* Bind before constructing the record: [s_suppressed] reads the [hidden]
     accumulator, and record-field evaluation order is unspecified. *)
  let s_age = from_assoc ~size:n_age ~key:Fun.id pub.Census.age_histogram in
  let s_sex_bucket =
    from_assoc ~size:(n_sex * 10)
      ~key:(fun (s, b) -> (s * 10) + b)
      pub.Census.sex_by_bucket
  in
  let s_race_eth =
    from_assoc ~size:(n_race * n_eth)
      ~key:(fun (r, e) -> (r * n_eth) + e)
      pub.Census.race_eth
  in
  {
    s_block = pub.Census.block;
    s_total = pub.Census.total;
    s_age;
    s_sex_bucket;
    s_race_eth;
    s_suppressed = !hidden;
  }

type block_solution = {
  counts : int array;
  relaxed : float array;
  iterations : int;
  converged : bool;
  fixed_cells : int;
}

(* Counts are integers rounded at the end, so movement below 1e-4 cannot
   change any rounded cell — a tighter tolerance only burns iterations
   drifting along the system's flat directions. *)
let solver_options = { Lsq.max_iter = 600; tolerance = 1e-4 }

let row_bounds sup =
  let row_lo = Array.make n_rows 0. and row_hi = Array.make n_rows 0. in
  let set r { b_lo; b_hi } =
    row_lo.(r) <- float_of_int b_lo;
    row_hi.(r) <- float_of_int b_hi
  in
  set row_total { b_lo = sup.s_total; b_hi = sup.s_total };
  Array.iteri (fun a b -> set (row_age a) b) sup.s_age;
  Array.iteri
    (fun i b -> set (row_sex_bucket (i / 10) (i mod 10)) b)
    sup.s_sex_bucket;
  Array.iteri
    (fun i b -> set (row_race_eth (i / n_eth) (i mod n_eth)) b)
    sup.s_race_eth;
  (row_lo, row_hi)

(* Consistent per-row least-squares targets. Exact rows keep their
   published counts; each family's suppressed rows share the remainder of
   the exact block total in proportion to their interval midpoints,
   clipped into the interval. Raw midpoints are mutually inconsistent —
   100 suppressed age rows at midpoint 1 claim ten times a 10-person
   block — and inconsistent targets drag the least-squares compromise
   away from anything feasible, which both degrades the reconstruction
   and makes solver iteration counts meaningless. *)
let row_targets sup =
  let t = Array.make n_rows 0. in
  t.(row_total) <- float_of_int sup.s_total;
  let fill bounds row_of =
    let exact = ref 0 and mids = ref 0. in
    Array.iter
      (fun { b_lo; b_hi } ->
        if b_lo = b_hi then exact := !exact + b_lo
        else mids := !mids +. (float_of_int (b_lo + b_hi) /. 2.))
      bounds;
    let remainder = Float.max 0. (float_of_int (sup.s_total - !exact)) in
    let scale = if !mids > 0. then remainder /. !mids else 0. in
    Array.iteri
      (fun i { b_lo; b_hi } ->
        t.(row_of i) <-
          (if b_lo = b_hi then float_of_int b_lo
           else
             Float.min (float_of_int b_hi)
               (Float.max (float_of_int b_lo)
                  (float_of_int (b_lo + b_hi) /. 2. *. scale))))
      bounds
  in
  fill sup.s_age row_age;
  fill sup.s_sex_bucket (fun i -> row_sex_bucket (i / 10) (i mod 10));
  fill sup.s_race_eth (fun i -> row_race_eth (i / n_eth) (i mod n_eth));
  t

(* Cells of one age row, ascending — the unit of integer rounding. *)
let age_cells age =
  let out = Array.make (n_sex * n_race * n_eth) 0 in
  let k = ref 0 in
  for sex = 0 to n_sex - 1 do
    for race = 0 to n_race - 1 do
      for eth = 0 to n_eth - 1 do
        out.(!k) <- cell ~sex ~age ~race ~eth;
        incr k
      done
    done
  done;
  Array.sort compare out;
  out

(* Eager for the same domain-safety reason as [matrix]. *)
let age_cells_table = Array.init n_age age_cells

(* Largest-remainder rounding: integers summing to [target] (when the
   bounds permit), each within [lo.(i), hi.(i)], starting from the clamped
   floor of [mass] and handing the remainder to the largest fractional
   parts first. Ties break by ascending index, so the result is a pure
   function of its inputs. *)
let largest_remainder ~mass ~lo ~hi ~target =
  let k = Array.length mass in
  let base = Array.make k 0 in
  let frac = Array.make k 0. in
  for i = 0 to k - 1 do
    let f = Float.floor mass.(i) in
    let b = Float.max lo.(i) (Float.min hi.(i) f) in
    base.(i) <- int_of_float b;
    frac.(i) <- mass.(i) -. f
  done;
  let order = Array.init k Fun.id in
  let d = ref (target - Array.fold_left ( + ) 0 base) in
  if !d > 0 then begin
    Array.sort
      (fun i i' ->
        match compare frac.(i') frac.(i) with 0 -> compare i i' | c -> c)
      order;
    let progress = ref true in
    while !d > 0 && !progress do
      progress := false;
      Array.iter
        (fun i ->
          if !d > 0 && float_of_int base.(i) < hi.(i) then begin
            base.(i) <- base.(i) + 1;
            decr d;
            progress := true
          end)
        order
    done
  end
  else if !d < 0 then begin
    Array.sort
      (fun i i' ->
        match compare frac.(i) frac.(i') with 0 -> compare i i' | c -> c)
      order;
    let progress = ref true in
    while !d < 0 && !progress do
      progress := false;
      Array.iter
        (fun i ->
          if !d < 0 && float_of_int base.(i) > lo.(i) then begin
            base.(i) <- base.(i) - 1;
            incr d;
            progress := true
          end)
        order
    done
  end;
  base

(* Blocks whose published rows propagation proves inconsistent (no
   table satisfies them all): impossible for a truthful tabulation, but
   noised tables reach it. *)
let c_empty = Obs.Counter.make "attacks.census_empty_propagations"

(* The published rows' propagated per-cell bounds within the whole box
   [\[0, s_total\]]. Rows that propagation proves inconsistent are
   counted and leave the whole box. *)
let propagate sup =
  let row_lo, row_hi = row_bounds sup in
  let box0 = Intervals.make ~n:n_cells ~lo:0. ~hi:(float_of_int sup.s_total) in
  match Intervals.propagate matrix ~row_lo ~row_hi box0 with
  | `Bounded b -> b
  | `Empty _ ->
    Obs.Counter.incr c_empty;
    box0

let shave_bounds ~shave sup bounds =
  if not shave then bounds
  else
    let row_lo, row_hi = row_bounds sup in
    Intervals.shave matrix ~row_lo ~row_hi bounds

(* The least-squares system over the cells [bounds] leaves free: the
   free cells in ascending order, each row's weight, and the restricted,
   row-weighted matrix.

   Row equilibration: the total row touches all 2400 cells while a
   single-year age row touches 24, so unweighted the total row owns the
   Lipschitz constant and the 1/L gradient step barely moves the iterate
   along any other direction. Weighting each row by 1/√nnz levels the
   spectrum and makes the iteration count meaningful. *)
let free_system bounds =
  let free = Array.make (n_cells - Intervals.fixed_count bounds) 0 in
  let k = ref 0 in
  for j = 0 to n_cells - 1 do
    if not (Intervals.is_fixed bounds j) then begin
      free.(!k) <- j;
      incr k
    end
  done;
  let af = Sparse.restrict_cols matrix ~keep:free in
  let w =
    Array.init n_rows (fun r ->
        let c = Sparse.row_nnz af r in
        if c = 0 then 0. else 1. /. sqrt (float_of_int c))
  in
  (free, w, Sparse.scale_rows af ~w)

let free_operator ?(shave = false) sup =
  let _, _, af = free_system (shave_bounds ~shave sup (propagate sup)) in
  Lsq.of_sparse af

(* ‖A‖² of every [free_system] matrix A is exactly 4, so the solve skips
   the power-iteration estimate. Its rows come in four families: the
   total, the 100 ages, the 20 sex×decade rows and the 12
   race×ethnicity rows. Each family partitions the free cells, so its
   rows, scaled by 1/√nnz, are orthonormal (or zero, where a row has no
   free cell), and their Gram sum is the orthogonal projector onto the
   functions constant on each part. AᵀA is the sum of those four
   projectors: its norm is at most 4, and the all-ones vector, constant
   on every part of every family, lies in the range of each one, so
   AᵀA 1 = 4·1. *)
let lipschitz = 4.

let solve_bounds ?x0 sup bounds =
  let fixed_cells = Intervals.fixed_count bounds in
  let relaxed = Array.make n_cells 0. in
  for j = 0 to n_cells - 1 do
    relaxed.(j) <- bounds.Intervals.lo.(j)
  done;
  let iterations, converged =
    if fixed_cells = n_cells then (0, true)
    else begin
      let free, w, af = free_system bounds in
      (* Aim each row at its consistent target, with the pinned cells'
         contribution moved to the right-hand side. *)
      let targets = row_targets sup in
      let b = Array.make n_rows 0. in
      for r = 0 to n_rows - 1 do
        let fixed_contrib =
          Sparse.fold_row matrix r ~init:0. ~f:(fun acc j v ->
              if Intervals.is_fixed bounds j then
                acc +. (v *. bounds.Intervals.lo.(j))
              else acc)
        in
        b.(r) <- w.(r) *. (targets.(r) -. fixed_contrib)
      done;
      let lo_f = Array.map (fun j -> bounds.Intervals.lo.(j)) free in
      let hi_f = Array.map (fun j -> bounds.Intervals.hi.(j)) free in
      let x0_f =
        Option.map (fun x0 -> Array.map (fun j -> x0.(j)) free) x0
      in
      let sol =
        Lsq.box ~options:solver_options ~lipschitz ?x0:x0_f (Lsq.of_sparse af)
          b ~lo:lo_f ~hi:hi_f
      in
      Array.iteri (fun i j -> relaxed.(j) <- sol.Lsq.x.(i)) free;
      (sol.Lsq.iterations, sol.Lsq.converged)
    end
  in
  (* Integer counts, in two largest-remainder stages. Ages partition the
     block and the block total is always published exactly, so the per-age
     record counts are themselves an allocation of [s_total] across the
     age intervals — without this stage, suppression leaves every age mass
     fractional and naive rounding emits zero records. Then each age's
     target is placed onto its 24 cells within the propagated bounds. *)
  let counts = Array.make n_cells 0 in
  let cells_by_age = age_cells_table in
  let age_mass =
    Array.map
      (fun cells -> Array.fold_left (fun acc j -> acc +. relaxed.(j)) 0. cells)
      cells_by_age
  in
  let age_lo = Array.map (fun b -> float_of_int b.b_lo) sup.s_age in
  let age_hi = Array.map (fun b -> float_of_int b.b_hi) sup.s_age in
  (* On an inconsistent table whose age rows cannot sum to the exact
     total, the total wins: its allocation across ages ignores their
     bounds, so the block still emits [s_total] records. *)
  let total = float_of_int sup.s_total in
  let sum = Array.fold_left ( +. ) 0. in
  let age_lo, age_hi =
    if sum age_lo <= total && total <= sum age_hi then (age_lo, age_hi)
    else (Array.make n_age 0., Array.make n_age total)
  in
  let age_targets =
    largest_remainder ~mass:age_mass ~lo:age_lo ~hi:age_hi ~target:sup.s_total
  in
  for age = 0 to n_age - 1 do
    let cells = cells_by_age.(age) in
    let placed =
      largest_remainder
        ~mass:(Array.map (fun j -> relaxed.(j)) cells)
        ~lo:(Array.map (fun j -> bounds.Intervals.lo.(j)) cells)
        ~hi:(Array.map (fun j -> bounds.Intervals.hi.(j)) cells)
        ~target:age_targets.(age)
    in
    Array.iteri (fun i j -> counts.(j) <- placed.(i)) cells
  done;
  { counts; relaxed; iterations; converged; fixed_cells }

let solve_block ?x0 ?(shave = false) sup =
  solve_bounds ?x0 sup (shave_bounds ~shave sup (propagate sup))

(* Per-cell group indices for the three raked row families, built eagerly
   for the same domain-safety reason as [matrix]. *)
let age_group = Array.init n_cells (fun j -> j / (n_race * n_eth) mod n_age)

let sex_bucket_group =
  Array.init n_cells (fun j ->
      (j / (n_age * n_race * n_eth) * 10) + (age_group.(j) / 10))

let race_eth_group = Array.init n_cells (fun j -> j mod (n_race * n_eth))

(* Rake (iterative proportional fitting) a neighboring block's relaxed
   solution onto this block's published row targets: each of 8 sweeps
   rescales the mass of every age, sex×decade and race×ethnicity row to
   the row's consistent target, then the whole vector to the exact block
   total. Neighboring blocks differ in exactly those marginals — carrying
   the neighbor's joint structure while conforming its marginals is what
   makes the seed a genuine warm start instead of a misleading one. *)
let rake_seed sup bounds relaxed =
  let targets = row_targets sup in
  (* [bounds] are the propagated per-cell bounds the solver will clamp
     the seed into: raking must respect them, or the clamp undoes the
     raked marginals and the "warm" start lands farther out than the cold
     one. A capped proportional rescale is water-filling; iterating the
     sweeps redistributes the capped excess onto the remaining cells. *)
  let lo = bounds.Intervals.lo and hi = bounds.Intervals.hi in
  let x = Array.make n_cells 0. in
  for j = 0 to n_cells - 1 do
    x.(j) <- Float.max lo.(j) (Float.min hi.(j) (Float.max relaxed.(j) 1e-6))
  done;
  (* Each family's rows are contiguous and in group order, so group [g]'s
     target is [targets.(first + g)]. [sums] is sized for the largest
     family, the 100 ages. *)
  let sums = Array.make n_age 0. in
  let rake group first =
    Array.fill sums 0 n_age 0.;
    for j = 0 to n_cells - 1 do
      let g = group.(j) in
      sums.(g) <- sums.(g) +. x.(j)
    done;
    for j = 0 to n_cells - 1 do
      let g = group.(j) in
      let s_g = sums.(g) in
      if s_g > 1e-9 then
        x.(j) <-
          Float.max lo.(j)
            (Float.min hi.(j) ((x.(j) *. targets.(first + g)) /. s_g))
    done
  in
  for _sweep = 1 to 8 do
    rake age_group (row_age 0);
    rake sex_bucket_group (row_sex_bucket 0 0);
    rake race_eth_group (row_race_eth 0 0);
    let total = ref 0. in
    for j = 0 to n_cells - 1 do
      total := !total +. x.(j)
    done;
    if !total > 1e-9 then begin
      let s = float_of_int sup.s_total /. !total in
      for j = 0 to n_cells - 1 do
        x.(j) <- Float.max lo.(j) (Float.min hi.(j) (x.(j) *. s))
      done
    end
  done;
  x

let warm_seed sup relaxed =
  if Array.length relaxed <> n_cells then
    invalid_arg "Census_scale.warm_seed: relaxed length";
  rake_seed sup (propagate sup) relaxed

type config = {
  blocks : int;
  mean_block_size : int;
  shards : int;
  threshold : int;
  warm_start : bool;
  shave : bool;
}

type stats = {
  population : int;
  records : int;
  solved_blocks : int;
  cells_matched : int;
  sex_age_matched : int;
  suppressed_cells : int;
  fixed_cells : int;
  warm_solves : int;
  iterations : int;
  warm_iterations : int;
  converged_blocks : int;
}

let zero_stats =
  {
    population = 0;
    records = 0;
    solved_blocks = 0;
    cells_matched = 0;
    sex_age_matched = 0;
    suppressed_cells = 0;
    fixed_cells = 0;
    warm_solves = 0;
    iterations = 0;
    warm_iterations = 0;
    converged_blocks = 0;
  }

let add_stats a b =
  {
    population = a.population + b.population;
    records = a.records + b.records;
    solved_blocks = a.solved_blocks + b.solved_blocks;
    cells_matched = a.cells_matched + b.cells_matched;
    sex_age_matched = a.sex_age_matched + b.sex_age_matched;
    suppressed_cells = a.suppressed_cells + b.suppressed_cells;
    fixed_cells = a.fixed_cells + b.fixed_cells;
    warm_solves = a.warm_solves + b.warm_solves;
    iterations = a.iterations + b.iterations;
    warm_iterations = a.warm_iterations + b.warm_iterations;
    converged_blocks = a.converged_blocks + b.converged_blocks;
  }

let rate k n = if n = 0 then 0. else float_of_int k /. float_of_int n

let match_rate s = rate s.cells_matched s.population

let sex_age_rate s = rate s.sex_age_matched s.population

let c_blocks = Obs.Counter.make "census.blocks_solved"

let c_records = Obs.Counter.make "census.rows_reconstructed"

let c_iters = Obs.Counter.make "census.solver_iterations"

let c_warm_iters = Obs.Counter.make "census.warm_iterations"

let c_warm = Obs.Counter.make "census.warm_solves"

let c_suppressed = Obs.Counter.make "census.suppressed_cells"

let c_fixed = Obs.Counter.make "census.cells_fixed_by_propagation"

let sk_solve = Obs.Sketchm.make ~timing:true "census.block_solve_ns"

let truth_counts people =
  let counts = Array.make n_cells 0 in
  Array.iter
    (fun (p : Synth.census_person) ->
      let j =
        cell ~sex:p.Synth.sex ~age:p.Synth.age ~race:p.Synth.race
          ~eth:p.Synth.ethnicity
      in
      counts.(j) <- counts.(j) + 1)
    people;
  counts

let min_overlap a b =
  let acc = ref 0 in
  for j = 0 to Array.length a - 1 do
    acc := !acc + min a.(j) b.(j)
  done;
  !acc

let sex_age_marginal counts =
  let out = Array.make (n_sex * n_age) 0 in
  for sex = 0 to n_sex - 1 do
    for age = 0 to n_age - 1 do
      let i = (sex * n_age) + age in
      for race = 0 to n_race - 1 do
        for eth = 0 to n_eth - 1 do
          out.(i) <- out.(i) + counts.(cell ~sex ~age ~race ~eth)
        done
      done
    done
  done;
  out

let reconstruct tables =
  Array.map (fun pub -> (solve_block (suppress ~threshold:0 pub)).counts) tables

type reconstruction_eval = {
  records : int;
  exact : int;
  age_within_one : int;
  exact_rate : float;
  age_within_one_rate : float;
}

(* The most truth records of each sex that reconstructed records of the
   same sex within one year of age can cover, one to one, from the two
   (sex, age) marginals. Truth ages ascend and each takes the leftover
   reconstructed records at a−1 first, then a, then a+1: every window
   ends no later than the next one's, so this greedy is a maximum
   matching. *)
let age_within_one_matches truth recon =
  let left = Array.copy recon and matched = ref 0 in
  for sex = 0 to n_sex - 1 do
    for age = 0 to n_age - 1 do
      let need = ref truth.((sex * n_age) + age) in
      for a = max 0 (age - 1) to min (n_age - 1) (age + 1) do
        let i = (sex * n_age) + a in
        let k = min !need left.(i) in
        left.(i) <- left.(i) - k;
        need := !need - k;
        matched := !matched + k
      done
    done
  done;
  !matched

let members_by_block ~blocks truth =
  let buckets = Array.make blocks [] in
  Array.iter
    (fun (p : Synth.census_person) ->
      buckets.(p.Synth.block) <- p :: buckets.(p.Synth.block))
    truth;
  Array.map Array.of_list buckets

let evaluate ~truth recon =
  let members = members_by_block ~blocks:(Array.length recon) truth in
  let records = ref 0 and exact = ref 0 and age_within_one = ref 0 in
  Array.iteri
    (fun b counts ->
      let t = truth_counts members.(b) in
      records := !records + Array.fold_left ( + ) 0 counts;
      exact := !exact + min_overlap t counts;
      age_within_one :=
        !age_within_one
        + age_within_one_matches (sex_age_marginal t) (sex_age_marginal counts))
    recon;
  let n = Array.length truth in
  {
    records = !records;
    exact = !exact;
    age_within_one = !age_within_one;
    exact_rate = rate !exact n;
    age_within_one_rate = rate !age_within_one n;
  }

type reid_stats = {
  population : int;
  putative : int;
  confirmed : int;
  putative_rate : float;
  confirmed_rate : float;
}

(* Age and race of the only record in [counts] with this sex and an age
   in [lo, hi]. *)
let only_record counts ~sex ~lo ~hi =
  let found = ref None in
  for age = lo to hi do
    for race = 0 to n_race - 1 do
      for eth = 0 to n_eth - 1 do
        if counts.(cell ~sex ~age ~race ~eth) > 0 then found := Some (age, race)
      done
    done
  done;
  Option.get !found

let reidentify recon commercial ~truth =
  let by_name = Hashtbl.create (Array.length truth) in
  Array.iter
    (fun (p : Synth.census_person) -> Hashtbl.replace by_name p.Synth.person_name p)
    truth;
  let marginals = Array.map sex_age_marginal recon in
  let putative = ref 0 and confirmed = ref 0 in
  Array.iter
    (fun (c : Census.commercial) ->
      let sex = c.Census.c_sex and block = c.Census.c_block in
      let lo = max 0 (c.Census.c_age - 1)
      and hi = min (n_age - 1) (c.Census.c_age + 1) in
      let matches = ref 0 in
      for a = lo to hi do
        matches := !matches + marginals.(block).((sex * n_age) + a)
      done;
      if !matches = 1 then begin
        incr putative;
        let age, race = only_record recon.(block) ~sex ~lo ~hi in
        match Hashtbl.find_opt by_name c.Census.c_name with
        | Some (p : Synth.census_person)
          when p.Synth.block = block && p.Synth.sex = sex
               && abs (p.Synth.age - age) <= 1
               && p.Synth.race = race ->
          incr confirmed
        | Some _ | None -> ()
      end)
    commercial;
  let n = Array.length truth in
  {
    population = n;
    putative = !putative;
    confirmed = !confirmed;
    putative_rate = rate !putative n;
    confirmed_rate = rate !confirmed n;
  }

(* Solve one block given its truth microdata and published tables, updating
   the running shard stats. [warm] carries the previous block's relaxed
   solution within the shard. The block is propagated once: the raking
   and the solve share its bounds. [census.block_solve_ns] times the
   propagation and the solve, not the raking between them. *)
let solve_one cfg ~warm ~people ~pub acc =
  let sup = suppress ~threshold:cfg.threshold pub in
  let t0 = Obs.now_ns () in
  let bounds = propagate sup in
  let t1 = Obs.now_ns () in
  let x0 =
    if not cfg.warm_start then None
    else Option.map (rake_seed sup bounds) !warm
  in
  let t2 = Obs.now_ns () in
  let sol = solve_bounds ?x0 sup (shave_bounds ~shave:cfg.shave sup bounds) in
  let t3 = Obs.now_ns () in
  Obs.Sketchm.observe sk_solve
    (Int64.to_float (Int64.add (Int64.sub t1 t0) (Int64.sub t3 t2)));
  warm := Some sol.relaxed;
  let truth = truth_counts people in
  let records = Array.fold_left ( + ) 0 sol.counts in
  let is_warm = x0 <> None in
  Obs.Counter.incr c_blocks;
  Obs.Counter.add c_records records;
  Obs.Counter.add c_iters sol.iterations;
  Obs.Counter.add c_suppressed sup.s_suppressed;
  Obs.Counter.add c_fixed sol.fixed_cells;
  if is_warm then begin
    Obs.Counter.incr c_warm;
    Obs.Counter.add c_warm_iters sol.iterations
  end;
  add_stats acc
    {
      population = Array.length people;
      records;
      solved_blocks = 1;
      cells_matched = min_overlap truth sol.counts;
      sex_age_matched =
        min_overlap (sex_age_marginal truth) (sex_age_marginal sol.counts);
      suppressed_cells = sup.s_suppressed;
      fixed_cells = sol.fixed_cells;
      warm_solves = (if is_warm then 1 else 0);
      iterations = sol.iterations;
      warm_iterations = (if is_warm then sol.iterations else 0);
      converged_blocks = (if sol.converged then 1 else 0);
    }

let validate cfg =
  if cfg.blocks <= 0 then invalid_arg "Census_scale.run: blocks";
  if cfg.mean_block_size <= 0 then invalid_arg "Census_scale.run: mean_block_size";
  if cfg.shards <= 0 then invalid_arg "Census_scale.run: shards";
  if cfg.threshold < 0 then invalid_arg "Census_scale.run: threshold"

let shard_range cfg s =
  let per = (cfg.blocks + cfg.shards - 1) / cfg.shards in
  let first = s * per in
  let last = min cfg.blocks (first + per) - 1 in
  (first, last)

let run ?pool cfg rng =
  validate cfg;
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  (* Each shard generates, tabulates, solves and drops one block at a
     time — peak memory is one block per live shard. *)
  Parallel.Trials.fold pool rng ~trials:cfg.shards ~init:zero_stats
    ~combine:add_stats (fun shard_rng s ->
      let first, last = shard_range cfg s in
      let warm = ref None in
      let acc = ref zero_stats in
      for block = first to last do
        let block_rng = Prob.Rng.split shard_rng in
        let people =
          Synth.census_block block_rng ~block
            ~mean_block_size:cfg.mean_block_size
        in
        let pub = Census.tabulate_block ~block people in
        acc := solve_one cfg ~warm ~people ~pub !acc
      done;
      !acc)
