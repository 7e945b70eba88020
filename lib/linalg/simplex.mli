(** Two-phase dense simplex solver for linear programs in the form

    {v minimize c·x  subject to  (aᵢ·x REL bᵢ) for each constraint, x >= 0 v}

    Used by the LP-decoding variant of the reconstruction attack
    (Dwork–McSherry–Talwar style): minimize the total slack needed to explain
    the mechanism's noisy answers, then round. Bland's rule is used for
    anti-cycling; this favours robustness over speed, which suits the attack
    sizes exercised here. *)

type relation = Le | Ge | Eq

type problem = {
  objective : float array;  (** coefficients of the minimized objective *)
  constraints : (float array * relation * float) list;
}

type outcome =
  | Optimal of { x : float array; objective : float }
  | Stalled of { x : float array; objective : float }
      (** a phase reached the pivot cap (200·(m+n) pivots) before proving
          optimality: [x] is the last feasible vertex visited, not proven
          optimal. A phase-1 stall short of feasibility reports
          [Infeasible]. Every stall counts in [linalg.simplex_stalls]. *)
  | Infeasible
  | Unbounded

val solve : problem -> outcome
(** Raises [Invalid_argument] if a constraint row's length differs from the
    objective's. *)
