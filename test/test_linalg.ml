(* Tests for the linear-algebra substrate: vector/matrix algebra, interval
   propagation, box-constrained least squares, and the simplex LP solver. *)

let check_float = Alcotest.(check (float 1e-6))

let rng () = Prob.Rng.create ~seed:99L ()

let bits_eq a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       Array.iteri
         (fun i v ->
           if Int64.bits_of_float v <> Int64.bits_of_float b.(i) then
             ok := false)
         a;
       !ok
     end

(* [Aᵀ y] into a fresh vector, through the in-place kernels. *)
let dense_tmul m y =
  let out = Array.make (Linalg.Matrix.cols m) Float.nan in
  Linalg.Matrix.tmul_vec_into m y out;
  out

let sparse_tmul s y =
  let out = Array.make (Linalg.Sparse.cols s) Float.nan in
  Linalg.Sparse.tmul_vec_into s y out;
  out

let nnz s = Array.length s.Linalg.Sparse.col_idx

(* --- Vector --- *)

let test_vector_dot () =
  check_float "dot" 32. (Linalg.Vector.dot [| 1.; 2.; 3. |] [| 4.; 5.; 6. |])

let test_vector_dot_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Vector.dot: dimension mismatch") (fun () ->
      ignore (Linalg.Vector.dot [| 1. |] [| 1.; 2. |]))

let test_vector_norms () =
  check_float "norm2" 5. (Linalg.Vector.norm2 [| 3.; 4. |])

let test_vector_arith () =
  Alcotest.(check (array (float 1e-9))) "sub" [| -3.; -3. |]
    (Linalg.Vector.sub [| 1.; 2. |] [| 4.; 5. |])

let test_vector_axpy () =
  let y = [| 1.; 1. |] in
  Linalg.Vector.axpy 2. [| 3.; 4. |] y;
  Alcotest.(check (array (float 1e-9))) "axpy" [| 7.; 9. |] y

let test_vector_clamp_round () =
  Alcotest.(check (array (float 1e-9))) "clamp" [| 0.; 0.5; 1. |]
    (Linalg.Vector.clamp ~lo:0. ~hi:1. [| -2.; 0.5; 7. |]);
  Alcotest.(check (array (float 1e-9))) "round01" [| 0.; 1.; 1. |]
    (Linalg.Vector.round01 [| 0.49; 0.5; 0.9 |])

let test_vector_hamming () =
  Alcotest.(check int) "hamming" 2
    (Linalg.Vector.hamming [| 0.; 1.; 0. |] [| 1.; 1.; 1. |])

(* --- Matrix --- *)

let test_matrix_mul_vec () =
  let m = Linalg.Matrix.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.(check (array (float 1e-9))) "Ax" [| 5.; 11. |]
    (Linalg.Matrix.mul_vec m [| 1.; 2. |]);
  Alcotest.(check (array (float 1e-9))) "A'y" [| 7.; 10. |]
    (dense_tmul m [| 1.; 2. |])

let test_matrix_mul () =
  let a = Linalg.Matrix.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let i = Linalg.Matrix.identity 2 in
  let prod = Linalg.Matrix.mul a i in
  Alcotest.(check (float 1e-9)) "identity mult" 3. (Linalg.Matrix.get prod 1 0)

let test_matrix_transpose () =
  let a = Linalg.Matrix.of_rows [| [| 1.; 2.; 3. |] |] in
  let t = Linalg.Matrix.transpose a in
  Alcotest.(check int) "rows" 3 (Linalg.Matrix.rows t);
  Alcotest.(check (float 1e-9)) "entry" 2. (Linalg.Matrix.get t 1 0)

let test_matrix_ragged_rejected () =
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_rows: ragged rows")
    (fun () -> ignore (Linalg.Matrix.of_rows [| [| 1. |]; [| 1.; 2. |] |]))

let test_matrix_of_subset_queries () =
  let m = Linalg.Matrix.of_subset_queries ~query:[| [| 0; 2 |]; [| 1 |] |] ~n:3 in
  let row i = Array.init 3 (Linalg.Matrix.get m i) in
  Alcotest.(check (array (float 1e-9))) "row 0" [| 1.; 0.; 1. |] (row 0);
  Alcotest.(check (array (float 1e-9))) "row 1" [| 0.; 1.; 0. |] (row 1)

(* --- Sparse --- *)

let test_sparse_of_subset_queries () =
  let q = [| [| 0; 2 |]; [| 1 |]; [||] |] in
  let s = Linalg.Sparse.of_subset_queries ~query:q ~n:3 in
  Alcotest.(check int) "rows" 3 (Linalg.Sparse.rows s);
  Alcotest.(check int) "cols" 3 (Linalg.Sparse.cols s);
  Alcotest.(check int) "nnz" 3 (nnz s);
  Alcotest.(check int) "empty row" 0 (Linalg.Sparse.row_nnz s 2);
  Alcotest.(check (array (float 1e-9))) "Ax" [| 4.; 2.; 0. |]
    (Linalg.Sparse.mul_vec s [| 1.; 2.; 3. |])

let test_sparse_duplicate_indices_collapse () =
  let q = [| [| 1; 1; 0 |]; [| 2; 0 |]; [| 0; 1; 2 |] |] in
  let s = Linalg.Sparse.of_subset_queries ~query:q ~n:3 in
  Alcotest.(check int) "deduped" 7 (nnz s);
  Alcotest.(check (array (float 1e-9))) "Ax" [| 3.; 4.; 6. |]
    (Linalg.Sparse.mul_vec s [| 1.; 2.; 3. |]);
  Alcotest.(check (array int)) "columns ascending" [| 0; 1; 0; 2; 0; 1; 2 |]
    s.Linalg.Sparse.col_idx;
  (* sorted rows are read in place, unsorted ones copied: the caller's
     query arrays stay as they were *)
  Alcotest.(check (array (array int))) "query untouched"
    [| [| 1; 1; 0 |]; [| 2; 0 |]; [| 0; 1; 2 |] |] q

let test_sparse_roundtrip () =
  let m = Linalg.Matrix.of_rows [| [| 0.; 2.; 0. |]; [| 1.; 0.; -3. |] |] in
  let s = Linalg.Sparse.of_matrix m in
  Alcotest.(check int) "nnz" 3 (nnz s);
  let back = Linalg.Sparse.to_matrix s in
  for i = 0 to 1 do
    for j = 0 to 2 do
      Alcotest.(check (float 0.)) "entry" (Linalg.Matrix.get m i j)
        (Linalg.Matrix.get back i j)
    done
  done

let test_sparse_restrict_cols () =
  let s =
    Linalg.Sparse.of_rows ~cols:4
      [| [ (0, 1.); (2, 2.); (3, 3.) ]; [ (1, 4.) ]; [] |]
  in
  let r = Linalg.Sparse.restrict_cols s ~keep:[| 1; 3 |] in
  Alcotest.(check int) "cols" 2 (Linalg.Sparse.cols r);
  Alcotest.(check (array (float 1e-9))) "Ax" [| 6.; 4.; 0. |]
    (Linalg.Sparse.mul_vec r [| 1.; 2. |]);
  Alcotest.(check (array (float 1e-9))) "A'y" [| 2.; 3. |]
    (sparse_tmul r [| 1.; 0.5; 9. |])

(* --- Intervals --- *)

(* x0 + x1 = 2, x1 + x2 = 1 with x in [0,2]^3: propagation pins nothing to
   a point but shrinks x1 to [0,1]; adding x2 = 0 pins everything. *)
let test_intervals_propagate_basic () =
  let a = Linalg.Sparse.of_rows ~cols:3 [| [ (0, 1.); (1, 1.) ]; [ (1, 1.); (2, 1.) ] |] in
  let box = Linalg.Intervals.make ~n:3 ~lo:0. ~hi:2. in
  (match Linalg.Intervals.propagate a ~row_lo:[| 2.; 1. |] ~row_hi:[| 2.; 1. |] box with
  | `Empty _ -> Alcotest.fail "unexpectedly empty"
  | `Bounded b ->
    Alcotest.(check (float 0.)) "x1 hi" 1. b.Linalg.Intervals.hi.(1);
    Alcotest.(check (float 0.)) "x0 lo" 1. b.Linalg.Intervals.lo.(0));
  (* x1 + x2 = 3 is impossible inside [0,1]^3 *)
  let small = Linalg.Intervals.make ~n:3 ~lo:0. ~hi:1. in
  match Linalg.Intervals.propagate a ~row_lo:[| 2.; 3. |] ~row_hi:[| 2.; 3. |] small with
  | `Empty _ -> ()
  | `Bounded _ -> Alcotest.fail "expected empty"

let test_intervals_shave_tightens () =
  (* x0 + x1 = 2, x0 + x2 = 2, x1 + x2 = 2 forces x = (1,1,1); plain
     propagation leaves [0,2] everywhere, shaving proves the endpoints
     infeasible. *)
  let a =
    Linalg.Sparse.of_rows ~cols:3
      [| [ (0, 1.); (1, 1.) ]; [ (0, 1.); (2, 1.) ]; [ (1, 1.); (2, 1.) ] |]
  in
  let rl = [| 2.; 2.; 2. |] in
  let box = Linalg.Intervals.make ~n:3 ~lo:0. ~hi:2. in
  let shaved = Linalg.Intervals.shave a ~row_lo:rl ~row_hi:rl box in
  for j = 0 to 2 do
    Alcotest.(check (float 0.)) "pinned lo" 1. shaved.Linalg.Intervals.lo.(j);
    Alcotest.(check (float 0.)) "pinned hi" 1. shaved.Linalg.Intervals.hi.(j)
  done

(* --- LSQ --- *)

let test_solve_box_recovers_planted () =
  let r = rng () in
  let n = 20 in
  let truth = Array.init n (fun _ -> if Prob.Rng.bool r then 1. else 0.) in
  let queries =
    Array.init 100 (fun _ ->
        Array.init n (fun _ -> if Prob.Rng.bool r then 1. else 0.))
  in
  let a = Linalg.Matrix.of_rows queries in
  let b = Linalg.Matrix.mul_vec a truth in
  let z = Linalg.Lsq.solve_box a b ~lo:0. ~hi:1. in
  let rounded = Linalg.Vector.round01 z in
  Alcotest.(check int) "exact recovery" 0 (Linalg.Vector.hamming rounded truth)

let test_solve_box_respects_bounds () =
  let a = Linalg.Matrix.of_rows [| [| 1. |] |] in
  let z = Linalg.Lsq.solve_box a [| 100. |] ~lo:0. ~hi:1. in
  Alcotest.(check (float 1e-9)) "clamped at hi" 1. z.(0)

let test_box_warm_start_matches_cold () =
  let r = rng () in
  let n = 20 in
  let truth = Array.init n (fun _ -> if Prob.Rng.bool r then 1. else 0.) in
  let queries =
    Array.init 100 (fun _ ->
        Array.init n (fun _ -> if Prob.Rng.bool r then 1. else 0.))
  in
  let a = Linalg.Matrix.of_rows queries in
  let b = Linalg.Matrix.mul_vec a truth in
  let op = Linalg.Lsq.of_matrix a in
  let lo = Array.make n 0. and hi = Array.make n 1. in
  let cold = Linalg.Lsq.box op b ~lo ~hi in
  let warm = Linalg.Lsq.box ~x0:truth op b ~lo ~hi in
  Alcotest.(check (array (float 1e-4))) "same minimizer" cold.Linalg.Lsq.x
    warm.Linalg.Lsq.x;
  Alcotest.(check bool)
    (Printf.sprintf "warm (%d) needs fewer iterations than cold (%d)"
       warm.Linalg.Lsq.iterations cold.Linalg.Lsq.iterations)
    true
    (warm.Linalg.Lsq.iterations < cold.Linalg.Lsq.iterations)

(* Box optimality at the solver's answer: with g = Aᵀ(Ax − b), a
   coordinate strictly inside the box has g_i ≈ 0, one at its lower bound
   g_i ≥ −ε and one at its upper bound g_i ≤ ε. The instance is
   Theorem 1.1(ii)'s: n = 64, 512 random subset queries answered within
   √n/2, solved with the reconstruction attack's options. *)
let test_box_kkt_dinur_nissim () =
  let r = rng () in
  let n = 64 and queries = 512 in
  let alpha = Float.sqrt (float_of_int n) /. 2. in
  let truth = Array.init n (fun _ -> if Prob.Rng.bool r then 1. else 0.) in
  let qs =
    Array.init queries (fun _ ->
        let members = List.filter (fun _ -> Prob.Rng.bool r) (List.init n Fun.id) in
        Array.of_list members)
  in
  let a = Linalg.Sparse.of_subset_queries ~query:qs ~n in
  let b =
    Array.map
      (fun v -> v +. ((Prob.Rng.uniform r *. 2. -. 1.) *. alpha))
      (Linalg.Sparse.mul_vec a truth)
  in
  let options = { Linalg.Lsq.max_iter = 2000; tolerance = 1e-10 } in
  let lo = Array.make n 0. and hi = Array.make n 1. in
  let sol = Linalg.Lsq.box ~options (Linalg.Lsq.of_sparse a) b ~lo ~hi in
  Alcotest.(check bool)
    (Printf.sprintf "converged in %d iterations" sol.Linalg.Lsq.iterations)
    true sol.Linalg.Lsq.converged;
  let x = sol.Linalg.Lsq.x in
  let g =
    sparse_tmul a (Linalg.Vector.sub (Linalg.Sparse.mul_vec a x) b)
  in
  let eps = 1e-6 in
  Array.iteri
    (fun i gi ->
      let ok =
        if x.(i) = lo.(i) then gi >= -.eps
        else if x.(i) = hi.(i) then gi <= eps
        else Float.abs gi <= eps
      in
      Alcotest.(check bool)
        (Printf.sprintf "coordinate %d: x = %g, g = %g" i x.(i) gi)
        true ok)
    g

let test_box_scalar_wrappers_agree () =
  let rows = [| [| 1.; 1. |]; [| 1.; 0. |] |] in
  let m = Linalg.Matrix.of_rows rows in
  let s = Linalg.Sparse.of_matrix m in
  let b = [| 1.5; 0.25 |] in
  let zd = Linalg.Lsq.solve_box m b ~lo:0. ~hi:1. in
  let zs = Linalg.Lsq.solve_box_sparse s b ~lo:0. ~hi:1. in
  Alcotest.(check (array (float 0.))) "dense and sparse paths identical" zd zs

(* --- Allocating references ---

   The solvers work in place on buffers allocated once per call. These are
   the straightforward allocating forms of the same arithmetic — a fresh
   vector per operation, a closure per row entry — so the properties below
   can require the in-place code to give the same bits. *)

type ref_op = { r_apply : float array -> float array; r_tapply : float array -> float array }

let ref_add x y = Array.mapi (fun i v -> v +. y.(i)) x

let ref_scale a x = Array.map (fun v -> a *. v) x

let ref_dense_mul m x =
  Array.init (Linalg.Matrix.rows m) (fun i ->
      let acc = ref 0. in
      for j = 0 to Linalg.Matrix.cols m - 1 do
        acc := !acc +. (Linalg.Matrix.get m i j *. x.(j))
      done;
      !acc)

let ref_dense_tmul m y =
  let out = Array.make (Linalg.Matrix.cols m) 0. in
  for i = 0 to Linalg.Matrix.rows m - 1 do
    let yi = y.(i) in
    if yi <> 0. then
      for j = 0 to Linalg.Matrix.cols m - 1 do
        out.(j) <- out.(j) +. (Linalg.Matrix.get m i j *. yi)
      done
  done;
  out

let ref_lipschitz o n =
  let module V = Linalg.Vector in
  let v =
    ref
      (Array.init n (fun i ->
           1. /. Float.sqrt (float_of_int (max n 1)) +. (0.001 *. float_of_int i)))
  in
  let lambda = ref 1. in
  for _ = 1 to 50 do
    let w = o.r_tapply (o.r_apply !v) in
    let norm = V.norm2 w in
    if norm > 0. then begin
      lambda := norm;
      v := ref_scale (1. /. norm) w
    end
  done;
  Float.max !lambda 1e-12

let ref_clamp ~lo ~hi v =
  Array.init (Array.length v) (fun i ->
      let x = v.(i) in
      if x < lo.(i) then lo.(i) else if x > hi.(i) then hi.(i) else x)

(* FISTA with gradient restart, one fresh vector per operation. *)
let ref_box ~max_iter ~tolerance ?x0 o n b ~lo ~hi =
  let module V = Linalg.Vector in
  let step = 1. /. ref_lipschitz o n in
  let start =
    match x0 with
    | Some z0 -> ref_clamp ~lo ~hi z0
    | None -> Array.init n (fun i -> (lo.(i) +. hi.(i)) /. 2.)
  in
  let x = ref start and y = ref start and t = ref 1. in
  let iter = ref 0 and converged = ref false and continue_ = ref true in
  while !continue_ && !iter < max_iter do
    let grad = o.r_tapply (V.sub (o.r_apply !y) b) in
    let next = ref_clamp ~lo ~hi (V.sub !y (ref_scale step grad)) in
    if V.norm2 (V.sub next !y) < tolerance then begin
      x := next;
      converged := true;
      continue_ := false
    end
    else begin
      if V.dot (V.sub !y next) (V.sub next !x) > 0. then t := 1.;
      let t' = (1. +. Float.sqrt (1. +. (4. *. !t *. !t))) /. 2. in
      y := ref_add next (ref_scale ((!t -. 1.) /. t') (V.sub next !x));
      x := next;
      t := t'
    end;
    incr iter
  done;
  (!x, !iter, !converged)

let ref_propagate a ~row_lo ~row_hi (box : Linalg.Intervals.t) =
  let eps = 1e-9 and max_passes = 50 in
  let round_lo v = Float.ceil (v -. eps) in
  let round_hi v = Float.floor (v +. eps) in
  let m = Linalg.Sparse.rows a and n = Linalg.Sparse.cols a in
  let lo = Array.map round_lo box.Linalg.Intervals.lo
  and hi = Array.map round_hi box.Linalg.Intervals.hi in
  let empty = ref (-1) in
  for j = 0 to n - 1 do
    if !empty < 0 && lo.(j) > hi.(j) then empty := j
  done;
  let changed = ref true and pass = ref 0 in
  while !changed && !empty < 0 && !pass < max_passes do
    changed := false;
    incr pass;
    let r = ref 0 in
    while !empty < 0 && !r < m do
      let s_lo, s_hi =
        Linalg.Sparse.fold_row a !r ~init:(0., 0.) ~f:(fun (s_lo, s_hi) j v ->
            (s_lo +. (v *. lo.(j)), s_hi +. (v *. hi.(j))))
      in
      Linalg.Sparse.fold_row a !r ~init:() ~f:(fun () j v ->
          if !empty < 0 && v > 0. then begin
            let new_lo = round_lo ((row_lo.(!r) -. (s_hi -. (v *. hi.(j)))) /. v) in
            let new_hi = round_hi ((row_hi.(!r) -. (s_lo -. (v *. lo.(j)))) /. v) in
            if new_lo > lo.(j) then begin
              lo.(j) <- new_lo;
              changed := true
            end;
            if new_hi < hi.(j) then begin
              hi.(j) <- new_hi;
              changed := true
            end;
            if lo.(j) > hi.(j) then empty := j
          end);
      incr r
    done
  done;
  if !empty >= 0 then `Empty !empty else `Bounded (lo, hi)

(* x_k + x_{k+1} = 1 for k < 59 and x_59 = 1, rows in that order: each
   pass pins one more link of the chain, from the far end back, so the
   50-pass cap stops propagation with x_0 .. x_9 still free. *)
let test_intervals_pass_cap () =
  let n = 60 in
  let a =
    Linalg.Sparse.of_rows ~cols:n
      (Array.init n (fun k -> if k < n - 1 then [ (k, 1.); (k + 1, 1.) ] else [ (k, 1.) ]))
  in
  let ones = Array.make n 1. in
  let box = Linalg.Intervals.make ~n ~lo:0. ~hi:1. in
  match
    ( Linalg.Intervals.propagate a ~row_lo:ones ~row_hi:ones box,
      ref_propagate a ~row_lo:ones ~row_hi:ones box )
  with
  | `Bounded b, `Bounded (lo, hi) ->
    Alcotest.(check bool) "same bounds as the reference" true
      (bits_eq b.Linalg.Intervals.lo lo && bits_eq b.Linalg.Intervals.hi hi);
    Alcotest.(check int) "50 links pinned" 50 (Linalg.Intervals.fixed_count b);
    Alcotest.(check bool) "x_10 pinned" true (Linalg.Intervals.is_fixed b 10);
    Alcotest.(check bool) "x_9 still free" false (Linalg.Intervals.is_fixed b 9);
    Alcotest.(check (float 0.)) "x_0 lo" 0. b.Linalg.Intervals.lo.(0);
    Alcotest.(check (float 0.)) "x_0 hi" 1. b.Linalg.Intervals.hi.(0)
  | _ -> Alcotest.fail "expected bounded"

(* --- Allocation and telemetry of the box solver --- *)

let census_system () =
  let a = Attacks.Census_scale.constraint_matrix () in
  let r = rng () in
  let b =
    Array.init (Linalg.Sparse.rows a) (fun _ -> float_of_int (Prob.Rng.int r 30))
  in
  let n = Linalg.Sparse.cols a in
  (Linalg.Lsq.of_sparse a, b, Array.make n 0., Array.make n 30.)

(* A step allocates nothing: 594 extra iterations on the 133×2400 census
   system allocate exactly as many words as the 6-iteration run. The
   count is minor + major - promoted words from [Gc.counters], read
   between two forced minor collections, so it includes arrays allocated
   straight into the major heap and no collection landing inside the
   window can move it. With [tolerance = 0.] neither run can stop
   early. *)
let test_box_allocation_free () =
  let op, b, lo, hi = census_system () in
  let allocated max_iter =
    let options = { Linalg.Lsq.max_iter; tolerance = 0. } in
    Gc.minor ();
    let minor0, promoted0, major0 = Gc.counters () in
    let sol = Linalg.Lsq.box ~options op b ~lo ~hi in
    Gc.minor ();
    let minor1, promoted1, major1 = Gc.counters () in
    Alcotest.(check int) "ran to the cap" max_iter sol.Linalg.Lsq.iterations;
    minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  let long = allocated 600 in
  let short = allocated 6 in
  Alcotest.(check (float 0.)) "words allocated at 600 and 6 iterations" short long

let counter name =
  List.fold_left
    (fun acc ((m : Obs.Metric.meta), v) ->
      if m.Obs.Metric.name = name then v else acc)
    0
    (Obs.Metric.values ()).Obs.Metric.v_counters

let test_power_iteration_counter () =
  let op, b, lo, hi = census_system () in
  let count () = counter "linalg.lsq_power_iterations" in
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      let options = { Linalg.Lsq.max_iter = 3; tolerance = 0. } in
      let before = count () in
      ignore (Linalg.Lsq.box ~options op b ~lo ~hi);
      Alcotest.(check int) "one box call" 50 (count () - before);
      ignore (Linalg.Lsq.box ~options op b ~lo ~hi);
      Alcotest.(check int) "two box calls" 100 (count () - before))

let test_unconverged_counter () =
  (* A solve stopped by its iteration cap bumps linalg.lsq_unconverged;
     a converged one does not. *)
  let op, b, lo, hi = census_system () in
  let count () = counter "linalg.lsq_unconverged" in
  let capped = { Linalg.Lsq.max_iter = 1; tolerance = 0. } in
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      let before = count () in
      let m = Linalg.Matrix.of_rows [| [| 1.; 0. |]; [| 0.; 1. |] |] in
      let sol =
        Linalg.Lsq.solve_box m [| 0.25; 0.75 |] ~lo:0. ~hi:1.
      in
      Alcotest.(check (array (float 1e-6))) "uncapped box solves" [| 0.25; 0.75 |] sol;
      Alcotest.(check int) "converged box not counted" 0 (count () - before);
      let sol = Linalg.Lsq.box ~options:capped op b ~lo ~hi in
      Alcotest.(check bool) "capped box" false sol.Linalg.Lsq.converged;
      Alcotest.(check int) "capped box counted" 1 (count () - before))

(* --- Simplex --- *)

let solve_expect_optimal problem =
  match Linalg.Simplex.solve problem with
  | Linalg.Simplex.Optimal { x; objective } -> (x, objective)
  | Linalg.Simplex.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Linalg.Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"

let test_simplex_basic_max () =
  (* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> optimum 36 at (2,6),
     solved as min -3x - 5y. *)
  let problem =
    {
      Linalg.Simplex.objective = [| -3.; -5. |];
      constraints =
        [
          ([| 1.; 0. |], Linalg.Simplex.Le, 4.);
          ([| 0.; 2. |], Linalg.Simplex.Le, 12.);
          ([| 3.; 2. |], Linalg.Simplex.Le, 18.);
        ];
    }
  in
  match Linalg.Simplex.solve problem with
  | Linalg.Simplex.Optimal { x; objective } ->
    Alcotest.(check (float 1e-6)) "objective" (-36.) objective;
    Alcotest.(check (float 1e-6)) "x" 2. x.(0);
    Alcotest.(check (float 1e-6)) "y" 6. x.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_minimize_with_ge () =
  (* min x + y st x + 2y >= 4, 3x + y >= 6 -> optimum at intersection
     (8/5, 6/5), value 14/5. *)
  let _, objective =
    solve_expect_optimal
      {
        Linalg.Simplex.objective = [| 1.; 1. |];
        constraints =
          [
            ([| 1.; 2. |], Linalg.Simplex.Ge, 4.);
            ([| 3.; 1. |], Linalg.Simplex.Ge, 6.);
          ];
      }
  in
  Alcotest.(check (float 1e-6)) "objective" 2.8 objective

let test_simplex_equality () =
  (* min x + 2y st x + y = 3, x <= 1 -> x=1, y=2, value 5. *)
  let _, objective =
    solve_expect_optimal
      {
        Linalg.Simplex.objective = [| 1.; 2. |];
        constraints =
          [
            ([| 1.; 1. |], Linalg.Simplex.Eq, 3.);
            ([| 1.; 0. |], Linalg.Simplex.Le, 1.);
          ];
      }
  in
  Alcotest.(check (float 1e-6)) "objective" 5. objective

let test_simplex_infeasible () =
  match
    Linalg.Simplex.solve
      {
        Linalg.Simplex.objective = [| 1. |];
        constraints =
          [
            ([| 1. |], Linalg.Simplex.Ge, 2.);
            ([| 1. |], Linalg.Simplex.Le, 1.);
          ];
      }
  with
  | Linalg.Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_simplex_unbounded () =
  match
    Linalg.Simplex.solve
      {
        Linalg.Simplex.objective = [| -1. |];
        constraints = [ ([| 1. |], Linalg.Simplex.Ge, 1.) ];
      }
  with
  | Linalg.Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_simplex_negative_rhs () =
  (* min x st x >= -1 rewritten internally; optimum x = 0 (x >= 0 implied). *)
  let _, objective =
    solve_expect_optimal
      {
        Linalg.Simplex.objective = [| 1. |];
        constraints = [ ([| -1. |], Linalg.Simplex.Le, 1.) ];
      }
  in
  Alcotest.(check (float 1e-6)) "objective" 0. objective

let test_simplex_arity_mismatch () =
  Alcotest.check_raises "arity"
    (Invalid_argument "Simplex.solve: constraint arity mismatch") (fun () ->
      ignore
        (Linalg.Simplex.solve
           {
             Linalg.Simplex.objective = [| 1.; 2. |];
             constraints = [ ([| 1. |], Linalg.Simplex.Le, 1.) ];
           }))

(* --- QCheck properties --- *)

let qcheck =
  let open QCheck in
  let vec = array_of_size (Gen.int_range 1 8) (float_range (-10.) 10.) in
  [
    Test.make ~name:"Cauchy-Schwarz |<x,y>| <= |x||y|" ~count:300 (pair vec vec)
      (fun (x, y) ->
        assume (Array.length x = Array.length y);
        Float.abs (Linalg.Vector.dot x y)
        <= (Linalg.Vector.norm2 x *. Linalg.Vector.norm2 y) +. 1e-6);
    Test.make ~name:"clamp stays in box" ~count:300 vec (fun x ->
        Array.for_all
          (fun v -> 0. <= v && v <= 1.)
          (Linalg.Vector.clamp ~lo:0. ~hi:1. x));
    Test.make ~name:"transpose involutive" ~count:100
      (array_of_size (Gen.int_range 1 5)
         (array_of_size (Gen.return 4) (float_range (-5.) 5.)))
      (fun rows ->
        let m = Linalg.Matrix.of_rows rows in
        let tt = Linalg.Matrix.transpose (Linalg.Matrix.transpose m) in
        let ok = ref true in
        for i = 0 to Linalg.Matrix.rows m - 1 do
          for j = 0 to Linalg.Matrix.cols m - 1 do
            if Linalg.Matrix.get m i j <> Linalg.Matrix.get tt i j then ok := false
          done
        done;
        !ok);
    (* Sparse-vs-dense exactness. Matrix entries are drawn from a small
       literal set (no underflow), so the CSR kernels — which accumulate in
       the same per-row ascending-column order as the dense loops but skip
       exact zeros — must agree bit for bit, not just approximately. Zeros
       dominate the generator, so empty rows and empty columns are common. *)
    (let gen =
       Gen.(
         pair (int_range 1 6) (int_range 1 6) >>= fun (r, c) ->
         triple
           (array_repeat r
              (array_repeat c (oneofl [ 0.; 0.; 0.; 1.; 2.; -3.; 0.5 ])))
           (array_repeat c (oneofl [ 0.; 1.; -2.; 0.25; 7. ]))
           (array_repeat r (oneofl [ 0.; 0.; 1.; -1.; 3.5 ])))
     in
     Test.make ~name:"Sparse mul_vec/tmul_vec = dense (bitwise)" ~count:500
       (make gen) (fun (rows, x, y) ->
         let m = Linalg.Matrix.of_rows rows in
         let s = Linalg.Sparse.of_matrix m in
         bits_eq (Linalg.Sparse.mul_vec s x) (Linalg.Matrix.mul_vec m x)
         && bits_eq (sparse_tmul s y) (dense_tmul m y)
         && bits_eq (Linalg.Sparse.mul_vec s x) (Linalg.Sparse.mul_vec_ml s x)
         && bits_eq (sparse_tmul s y) (Linalg.Sparse.tmul_vec_ml s y)));
    (let gen =
       Gen.(
         pair (int_range 1 6) (int_range 1 6) >>= fun (r, c) ->
         triple
           (array_repeat r
              (array_repeat c (oneofl [ 0.; 0.; 0.; 1.; 2.; -3.; 0.5 ])))
           (array_repeat c (float_range (-10.) 10.))
           (array_repeat r (oneofl [ 0.; 0.; 1.; -1.; 3.5; 0.1 ])))
     in
     Test.make ~name:"Matrix *_into = mul_vec/tmul_vec (bitwise)" ~count:300
       (make gen) (fun (rows, x, y) ->
         let m = Linalg.Matrix.of_rows rows in
         let ax = Array.make (Array.length rows) Float.nan in
         let aty = Array.make (Array.length x) Float.nan in
         Linalg.Matrix.mul_vec_into m x ax;
         Linalg.Matrix.tmul_vec_into m y aty;
         bits_eq ax (Linalg.Matrix.mul_vec m x)
         && bits_eq ax (ref_dense_mul m x)
         && bits_eq aty (ref_dense_tmul m y)));
    (* The in-place box solver against the allocating reference: the
       same iterate, iteration count and convergence flag, bit for bit,
       over dense and sparse systems, random boxes (some coordinates
       pinned), cold and warm starts, and tolerances that stop some runs
       early and let others hit the cap. *)
    (let gen =
       Gen.(
         pair (int_range 1 7) (int_range 1 7) >>= fun (m, n) ->
         let bound =
           pair (float_range (-2.) 2.) (oneofl [ 0.; 0.5; 1.; 3. ])
         in
         pair
           (triple
              (array_repeat m
                 (array_repeat n (oneofl [ 0.; 0.; 1.; 2.; -1.; 0.5; 0.3 ])))
              (array_repeat m (float_range (-5.) 5.))
              (array_repeat n bound))
           (triple
              (opt (array_repeat n (float_range (-4.) 4.)))
              (int_range 0 80)
              (oneofl [ 0.; 1e-6; 1e-3; 0.1 ])))
     in
     let same (x, iterations, converged) (s : Linalg.Lsq.solution) =
       bits_eq x s.Linalg.Lsq.x
       && iterations = s.Linalg.Lsq.iterations
       && converged = s.Linalg.Lsq.converged
     in
     Test.make ~name:"Lsq.box = allocating reference (bitwise)" ~count:300
       (make gen) (fun ((rows, b, bounds), (x0, max_iter, tolerance)) ->
         let n = Array.length bounds in
         let lo = Array.map fst bounds in
         let hi = Array.map (fun (l, w) -> l +. w) bounds in
         let options = { Linalg.Lsq.max_iter; tolerance } in
         let m = Linalg.Matrix.of_rows rows in
         let s = Linalg.Sparse.of_matrix m in
         let dense = { r_apply = ref_dense_mul m; r_tapply = ref_dense_tmul m } in
         let sparse =
           { r_apply = Linalg.Sparse.mul_vec s; r_tapply = sparse_tmul s }
         in
         same
           (ref_box ~max_iter ~tolerance ?x0 dense n b ~lo ~hi)
           (Linalg.Lsq.box ~options ?x0 (Linalg.Lsq.of_matrix m) b ~lo ~hi)
         && same
              (ref_box ~max_iter ~tolerance ?x0 sparse n b ~lo ~hi)
              (Linalg.Lsq.box ~options ?x0 (Linalg.Lsq.of_sparse s) b ~lo ~hi)));
    (* Propagation walking the CSR arrays against the closure-per-entry
       reference: the same bounds bit for bit, or the same empty variable.
       Row bounds are drawn independently of any planted solution, so
       infeasible systems (`Empty) are common. *)
    (let gen =
       Gen.(
         pair (int_range 1 6) (int_range 1 6) >>= fun (n, m) ->
         pair
           (pair
              (array_repeat m
                 (array_repeat n (oneofl [ None; None; Some 0.; Some 1.; Some 2.; Some 0.5 ])))
              (array_repeat m (pair (int_range (-1) 8) (int_range 0 3))))
           (oneofl [ 1.; 2.; 3.5; 4. ]))
     in
     Test.make ~name:"Intervals.propagate = closure reference (bitwise)"
       ~count:500 (make gen)
       (fun ((entries, row_specs), box_hi) ->
         let n = Array.length entries.(0) in
         let rows =
           Array.map
             (fun row ->
               List.filter_map Fun.id
                 (List.mapi
                    (fun j e -> Option.map (fun v -> (j, v)) e)
                    (Array.to_list row)))
             entries
         in
         let a = Linalg.Sparse.of_rows ~cols:n rows in
         let row_lo = Array.map (fun (l, _) -> float_of_int l) row_specs in
         let row_hi = Array.map (fun (l, w) -> float_of_int (l + w)) row_specs in
         let box = Linalg.Intervals.make ~n ~lo:0. ~hi:box_hi in
         match
           ( Linalg.Intervals.propagate a ~row_lo ~row_hi box,
             ref_propagate a ~row_lo ~row_hi box )
         with
         | `Empty j, `Empty j' -> j = j'
         | `Bounded b, `Bounded (lo, hi) ->
           bits_eq b.Linalg.Intervals.lo lo && bits_eq b.Linalg.Intervals.hi hi
         | _ -> false));
    (* Interval refinement is sound: on random 0/1 systems with a planted
       integer solution and widened row bounds, neither propagation nor
       branch-and-bound shaving may ever exclude the truth. *)
    (let gen =
       Gen.(
         pair (int_range 1 5) (int_range 1 6) >>= fun (n, m) ->
         pair
           (array_repeat n (int_range 0 3))
           (array_repeat m
              (triple (array_repeat n bool) (int_range 0 2) (int_range 0 2))))
     in
     Test.make ~name:"interval refinement keeps the true solution" ~count:300
       (make gen) (fun (truth, row_specs) ->
         let n = Array.length truth in
         let rows =
           Array.map
             (fun (subset, _, _) ->
               let entries = ref [] in
               for j = n - 1 downto 0 do
                 if subset.(j) then entries := (j, 1.) :: !entries
               done;
               !entries)
             row_specs
         in
         let exact =
           Array.map
             (fun (subset, _, _) ->
               let s = ref 0 in
               Array.iteri (fun j m -> if m then s := !s + truth.(j)) subset;
               !s)
             row_specs
         in
         let row_lo =
           Array.mapi
             (fun i (_, wl, _) -> float_of_int (exact.(i) - wl))
             row_specs
         in
         let row_hi =
           Array.mapi
             (fun i (_, _, wh) -> float_of_int (exact.(i) + wh))
             row_specs
         in
         let a = Linalg.Sparse.of_rows ~cols:n rows in
         let box = Linalg.Intervals.make ~n ~lo:0. ~hi:4. in
         let contains b =
           let ok = ref true in
           Array.iteri
             (fun j v ->
               let v = float_of_int v in
               if v < b.Linalg.Intervals.lo.(j) -. 1e-9 then ok := false;
               if v > b.Linalg.Intervals.hi.(j) +. 1e-9 then ok := false)
             truth;
           !ok
         in
         match Linalg.Intervals.propagate a ~row_lo ~row_hi box with
         | `Empty _ -> false
         | `Bounded b ->
           contains b
           &&
           let shaved = Linalg.Intervals.shave ~budget:300 a ~row_lo ~row_hi b in
           contains shaved));
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "linalg"
    [
      ( "vector",
        [
          Alcotest.test_case "dot" `Quick test_vector_dot;
          Alcotest.test_case "dot mismatch" `Quick test_vector_dot_mismatch;
          Alcotest.test_case "norms" `Quick test_vector_norms;
          Alcotest.test_case "arith" `Quick test_vector_arith;
          Alcotest.test_case "axpy" `Quick test_vector_axpy;
          Alcotest.test_case "clamp/round" `Quick test_vector_clamp_round;
          Alcotest.test_case "hamming" `Quick test_vector_hamming;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "mul_vec" `Quick test_matrix_mul_vec;
          Alcotest.test_case "mul" `Quick test_matrix_mul;
          Alcotest.test_case "transpose" `Quick test_matrix_transpose;
          Alcotest.test_case "ragged rejected" `Quick test_matrix_ragged_rejected;
          Alcotest.test_case "of_subset_queries" `Quick test_matrix_of_subset_queries;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "of_subset_queries" `Quick
            test_sparse_of_subset_queries;
          Alcotest.test_case "duplicate indices collapse" `Quick
            test_sparse_duplicate_indices_collapse;
          Alcotest.test_case "matrix roundtrip" `Quick test_sparse_roundtrip;
          Alcotest.test_case "restrict_cols" `Quick test_sparse_restrict_cols;
        ] );
      ( "intervals",
        [
          Alcotest.test_case "propagate" `Quick test_intervals_propagate_basic;
          Alcotest.test_case "shave tightens" `Quick
            test_intervals_shave_tightens;
          Alcotest.test_case "pass cap" `Quick test_intervals_pass_cap;
        ] );
      ( "lsq",
        [
          Alcotest.test_case "box lsq recovers planted" `Quick
            test_solve_box_recovers_planted;
          Alcotest.test_case "box lsq respects bounds" `Quick
            test_solve_box_respects_bounds;
          Alcotest.test_case "warm-started box matches cold" `Quick
            test_box_warm_start_matches_cold;
          Alcotest.test_case "box solution is KKT" `Quick test_box_kkt_dinur_nissim;
          Alcotest.test_case "scalar box wrappers agree" `Quick
            test_box_scalar_wrappers_agree;
          Alcotest.test_case "box steps allocate nothing" `Quick
            test_box_allocation_free;
          Alcotest.test_case "power iterations counted" `Quick
            test_power_iteration_counter;
          Alcotest.test_case "unconverged solves counted" `Quick
            test_unconverged_counter;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "basic max" `Quick test_simplex_basic_max;
          Alcotest.test_case "minimize with >=" `Quick test_simplex_minimize_with_ge;
          Alcotest.test_case "equality" `Quick test_simplex_equality;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_simplex_negative_rhs;
          Alcotest.test_case "arity mismatch" `Quick test_simplex_arity_mismatch;
        ] );
      ("properties", qcheck);
    ]
