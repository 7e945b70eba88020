(** Interval constraint propagation and branch-and-bound refinement.

    The census publication model hides small counts (cells below a
    suppression threshold are not released), so a reconstruction attacker
    faces a system of interval constraints [blo_r ≤ (A x)_r ≤ bhi_r] rather
    than exact equations. This module tightens per-variable boxes against
    such a system: plain interval propagation to a fixpoint, and a budgeted
    branch-and-bound "shave" that discards integer endpoint values it can
    prove infeasible.

    Both refinements are sound: they never exclude any integer point that
    satisfies all row constraints, so the true solution always stays inside
    the box (the property test checks exactly this). Rows must have
    nonnegative coefficients — subset-count matrices are 0/1. *)

type t = { lo : float array; hi : float array }
(** Per-variable inclusive bounds. *)

val make : n:int -> lo:float -> hi:float -> t

val is_fixed : t -> int -> bool
(** The variable's interval contains a single point. *)

val fixed_count : t -> int

val propagate :
  Sparse.t ->
  row_lo:float array ->
  row_hi:float array ->
  t ->
  [ `Bounded of t | `Empty of int ]
(** [propagate a ~row_lo ~row_hi box] tightens [box] against
    [row_lo ≤ A x ≤ row_hi] by iterating the row rule: with
    [S_lo = Σ_j a_rj·lo_j] and [S_hi = Σ_j a_rj·hi_j] over row [r],

      [x_j ≥ (row_lo_r − (S_hi − a_rj·hi_j)) / a_rj]
      [x_j ≤ (row_hi_r − (S_lo − a_rj·lo_j)) / a_rj]

    until a fixpoint or 50 passes, rounding the bounds inward to integers.
    Returns [`Empty j]
    when variable [j]'s interval became empty — the constraints are
    mutually unsatisfiable. The input box is not mutated. *)

val shave :
  ?budget:int ->
  Sparse.t ->
  row_lo:float array ->
  row_hi:float array ->
  t ->
  t
(** [shave a ~row_lo ~row_hi box] tightens integer endpoints by refutation:
    for each variable, if fixing it to its lower (upper) endpoint is proven
    infeasible, the endpoint moves inward, repeating while the proof
    succeeds. The proof is a depth-first integer search with {!propagate}
    at every node; running out of [budget] counts as feasible, so an
    endpoint is only removed with an infeasibility proof. The [budget]
    (default 2000 propagations) is shared across the whole shave. *)
