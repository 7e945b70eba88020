type options = { max_iter : int; tolerance : float }

let default_options = { max_iter = 500; tolerance = 1e-9 }

type op = {
  op_rows : int;
  op_cols : int;
  apply : Vector.t -> Vector.t -> unit;
  tapply : Vector.t -> Vector.t -> unit;
}

let of_matrix a =
  {
    op_rows = Matrix.rows a;
    op_cols = Matrix.cols a;
    apply = (fun x y -> Matrix.mul_vec_into a x y);
    tapply = (fun y out -> Matrix.tmul_vec_into a y out);
  }

let of_sparse a =
  {
    op_rows = Sparse.rows a;
    op_cols = Sparse.cols a;
    apply = (fun x y -> Sparse.mul_vec_into a x y);
    tapply = (fun y out -> Sparse.tmul_vec_into a y out);
  }

type solution = { x : Vector.t; iterations : int; converged : bool }

let c_iters = Obs.Counter.make "linalg.lsq_iterations"

let c_cold_iters = Obs.Counter.make "linalg.lsq_cold_iterations"

let c_warm_iters = Obs.Counter.make "linalg.lsq_warm_iterations"

let c_warm_starts = Obs.Counter.make "linalg.lsq_warm_starts"

let c_power_iters = Obs.Counter.make "linalg.lsq_power_iterations"

(* Solves stopped by the iteration cap: the run's solver-health signal. *)
let c_unconverged = Obs.Counter.make "linalg.lsq_unconverged"

let record_iters ~warm ~converged iters =
  if not converged then Obs.Counter.incr c_unconverged;
  Obs.Counter.add c_iters iters;
  if warm then begin
    Obs.Counter.incr c_warm_starts;
    Obs.Counter.add c_warm_iters iters
  end
  else Obs.Counter.add c_cold_iters iters

(* Largest singular value of A, squared, via power iteration on AᵀA. The
   iterate, A v and AᵀA v live in three buffers allocated once per call. *)
let lipschitz_op o =
  let n = o.op_cols in
  let v = Array.init n (fun i -> 1. /. Float.sqrt (float_of_int (max n 1)) +. (0.001 *. float_of_int i)) in
  let av = Array.make o.op_rows 0. and w = Array.make n 0. in
  let lambda = ref 1. in
  for _ = 1 to 50 do
    Obs.Counter.incr c_power_iters;
    o.apply v av;
    o.tapply av w;
    let norm = Vector.norm2 w in
    if norm > 0. then begin
      lambda := norm;
      let s = 1. /. norm in
      for i = 0 to n - 1 do
        v.(i) <- s *. w.(i)
      done
    end
  done;
  Float.max !lambda 1e-12

let clamp_into ~lo ~hi (v : Vector.t) =
  let n = Array.length v in
  Array.init n (fun i ->
      let x = v.(i) in
      if x < lo.(i) then lo.(i) else if x > hi.(i) then hi.(i) else x)

(* Accelerated projected gradient (FISTA, Beck–Teboulle 2009) with
   gradient restart (O'Donoghue–Candès 2015). The iterate [x], the
   extrapolated point [y], [r = A y − b] and the gradient are allocated
   once per call; the projected step [x⁺] is written over the gradient,
   which it no longer needs, so each iteration allocates nothing. *)
let box ?(options = default_options) ?x0 o b ~lo ~hi =
  let n = o.op_cols in
  if Vector.dim lo <> n || Vector.dim hi <> n then
    invalid_arg "Lsq.box: bound dimension mismatch";
  for i = 0 to n - 1 do
    if hi.(i) < lo.(i) then invalid_arg "Lsq.box: empty box"
  done;
  let step = 1. /. lipschitz_op o in
  let x =
    match x0 with
    | Some z0 ->
      if Vector.dim z0 <> n then invalid_arg "Lsq.box: x0 dimension mismatch";
      clamp_into ~lo ~hi z0
    | None -> Array.init n (fun i -> (lo.(i) +. hi.(i)) /. 2.)
  in
  let m = o.op_rows in
  if Vector.dim b <> m then invalid_arg "Lsq.box: rhs dimension mismatch";
  let y = Array.copy x in
  let r = Array.make m 0. and grad = Array.make n 0. in
  let t = ref 1. in
  let iter = ref 0 in
  let converged = ref false in
  let continue_ = ref true in
  while !continue_ && !iter < options.max_iter do
    o.apply y r;
    for i = 0 to m - 1 do
      r.(i) <- r.(i) -. b.(i)
    done;
    o.tapply r grad;
    (* x⁺ = clamp (y − step·grad) into [grad], with ‖x⁺ − y‖² and the
       restart test (y − x⁺)·(x⁺ − x) summed in index order, as one pass. *)
    let moved_sq = ref 0. and ascent = ref 0. in
    for i = 0 to n - 1 do
      let yi = y.(i) in
      let v = yi -. (step *. grad.(i)) in
      let next = if v < lo.(i) then lo.(i) else if v > hi.(i) then hi.(i) else v in
      let d = next -. yi in
      moved_sq := !moved_sq +. (d *. d);
      ascent := !ascent +. ((yi -. next) *. (next -. x.(i)));
      grad.(i) <- next
    done;
    if Float.sqrt !moved_sq < options.tolerance then begin
      Array.blit grad 0 x 0 n;
      converged := true;
      continue_ := false
    end
    else begin
      (* The momentum points uphill: drop it, so this step's
         extrapolation is zero. *)
      if !ascent > 0. then t := 1.;
      let t' = (1. +. Float.sqrt (1. +. (4. *. !t *. !t))) /. 2. in
      let beta = (!t -. 1.) /. t' in
      for i = 0 to n - 1 do
        let next = grad.(i) in
        y.(i) <- next +. (beta *. (next -. x.(i)));
        x.(i) <- next
      done;
      t := t'
    end;
    incr iter
  done;
  record_iters ~warm:(x0 <> None) ~converged:!converged !iter;
  { x; iterations = !iter; converged = !converged }

let solve_box ?options ?x0 a b ~lo ~hi =
  if hi < lo then invalid_arg "Lsq.solve_box: empty box";
  let n = Matrix.cols a in
  let lo_v = Vector.create n lo and hi_v = Vector.create n hi in
  (box ?options ?x0 (of_matrix a) b ~lo:lo_v ~hi:hi_v).x

let solve_box_sparse ?options ?x0 a b ~lo ~hi =
  if hi < lo then invalid_arg "Lsq.solve_box_sparse: empty box";
  let n = Sparse.cols a in
  let lo_v = Vector.create n lo and hi_v = Vector.create n hi in
  (box ?options ?x0 (of_sparse a) b ~lo:lo_v ~hi:hi_v).x
