(** Box-constrained least squares.

    The polynomial-time reconstruction attack of Theorem 1.1(ii) solves, from
    noisy subset-count answers [a ≈ A x], the box-constrained least-squares
    problem [min_{z ∈ [0,1]^n} ‖A z − a‖²] and rounds the solution to
    {0,1}^n. This module provides an accelerated projected-gradient solver
    for that problem.

    The solver operates over an abstract {!op} — a dense {!Matrix.t} or a
    CSR {!Sparse.t} — and accepts an [?x0] warm start. At census scale the
    per-block systems are near-duplicates of their neighbors, so warm-starting
    a block from the previous block's solution cuts the iteration count; the
    [linalg.lsq_cold_iterations] / [linalg.lsq_warm_iterations] counters
    expose the split. *)

type options = {
  max_iter : int;  (** iteration cap *)
  tolerance : float;
      (** {!box} stops when its projected step from the extrapolated point,
          [‖x_{k+1} − y_k‖₂], does (with no momentum [y_k = x_k], and
          this is the step length) *)
}

type op = {
  op_rows : int;
  op_cols : int;
  apply : Vector.t -> Vector.t -> unit;  (** [apply x y] writes [A x] into [y] *)
  tapply : Vector.t -> Vector.t -> unit;
      (** [tapply y out] writes [Aᵀ y] into [out] *)
}
(** A linear operator given by its forward and transpose applications,
    destination-passing so that an iterative solver allocates its vectors
    once per solve rather than once per step. *)

val of_matrix : Matrix.t -> op

val of_sparse : Sparse.t -> op

type solution = {
  x : Vector.t;
  iterations : int;
  converged : bool;
      (** false when the iteration cap stopped the solve; each such
          {!box} solve bumps the [linalg.lsq_unconverged]
          counter *)
}

val box :
  ?options:options ->
  ?lipschitz:float ->
  ?x0:Vector.t ->
  op ->
  Vector.t ->
  lo:Vector.t ->
  hi:Vector.t ->
  solution
(** [box o b ~lo ~hi] approximately minimizes [‖A z − b‖²] over the
    per-coordinate box [∏ \[lo.(i), hi.(i)\]] by accelerated projected
    gradient (FISTA, Beck–Teboulle 2009) with gradient restart
    (O'Donoghue–Candès 2015), at the step [1/L] with [L = ‖A‖²], the
    largest singular value of [A] squared. A caller that knows [‖A‖²]
    passes it as [?lipschitz]. Otherwise power iteration on [AᵀA]
    estimates it, stopping once an iteration moves the estimate by at
    most 1e-6 of itself, or after 50 iterations; each bumps the
    [linalg.lsq_power_iterations] counter. Each iteration takes the
    projected gradient step
    [x⁺ = clamp (y − ∇f(y)/L)] from the extrapolated point [y] (one
    [A]/[Aᵀ] pair), stops when [‖x⁺ − y‖₂ < tolerance], resets the
    momentum to zero when [(y − x⁺)·(x⁺ − x) > 0], and otherwise
    extrapolates [y := x⁺ + ((t − 1)/t')(x⁺ − x)] with
    [t' = (1 + √(1 + 4t²))/2]. Starts from [x = y = x0] clamped into the
    box when given, else from the box midpoint; the solution is the last
    [x⁺]. The work vectors are allocated once per call, so an iteration
    allocates nothing. Raises [Invalid_argument] if some
    [hi.(i) < lo.(i)]. *)

val solve_box :
  ?options:options ->
  ?x0:Vector.t ->
  Matrix.t ->
  Vector.t ->
  lo:float ->
  hi:float ->
  Vector.t
(** [box] over a dense matrix with the same scalar bounds in every
    coordinate. *)

val solve_box_sparse :
  ?options:options ->
  ?x0:Vector.t ->
  Sparse.t ->
  Vector.t ->
  lo:float ->
  hi:float ->
  Vector.t
(** [box] over a CSR matrix with scalar bounds. *)
