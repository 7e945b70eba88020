type relation = Le | Ge | Eq

type problem = {
  objective : float array;
  constraints : (float array * relation * float) list;
}

type outcome =
  | Optimal of { x : float array; objective : float }
  | Stalled of { x : float array; objective : float }
  | Infeasible
  | Unbounded

let epsilon = 1e-7

(* Tableau layout: m constraint rows over [total] structural+slack+artificial
   columns, an RHS column, and an objective row kept reduced with respect to
   the current basis. *)
type tableau = {
  m : int;
  total : int;
  rows : float array array;  (* m rows of length total+1 (last = rhs) *)
  obj : float array;  (* length total+1; last entry is -objective value *)
  basis : int array;  (* column currently basic in each row *)
}

let c_pivots = Obs.Counter.make "linalg.simplex_pivots"

(* Solves (either phase) that reached the pivot cap before proving
   optimality. *)
let c_stalls = Obs.Counter.make "linalg.simplex_stalls"

let pivot t ~row ~col =
  Obs.Counter.incr c_pivots;
  let piv = t.rows.(row).(col) in
  let width = t.total + 1 in
  let r = t.rows.(row) in
  for j = 0 to width - 1 do
    r.(j) <- r.(j) /. piv
  done;
  let eliminate target =
    let factor = target.(col) in
    if Float.abs factor > 0. then
      for j = 0 to width - 1 do
        target.(j) <- target.(j) -. (factor *. r.(j))
      done
  in
  for i = 0 to t.m - 1 do
    if i <> row then eliminate t.rows.(i)
  done;
  eliminate t.obj;
  t.basis.(row) <- col

(* Entering column: Dantzig (most negative reduced cost) normally; Bland
   (lowest index) once [bland] is set, to guarantee termination. *)
let entering t ~allowed ~bland =
  if bland then begin
    let found = ref (-1) in
    (try
       for j = 0 to t.total - 1 do
         if allowed j && t.obj.(j) < -.epsilon then begin
           found := j;
           raise Exit
         end
       done
     with Exit -> ());
    !found
  end
  else begin
    let best = ref (-1) in
    let best_cost = ref (-.epsilon) in
    for j = 0 to t.total - 1 do
      if allowed j && t.obj.(j) < !best_cost then begin
        best := j;
        best_cost := t.obj.(j)
      end
    done;
    !best
  end

(* Leaving row: minimum ratio; ties broken toward the smallest basic index
   (Bland-compatible). *)
let leaving t ~col =
  let best_row = ref (-1) in
  let best_ratio = ref infinity in
  for i = 0 to t.m - 1 do
    let coeff = t.rows.(i).(col) in
    if coeff > epsilon then begin
      let ratio = t.rows.(i).(t.total) /. coeff in
      if
        ratio < !best_ratio -. epsilon
        || (Float.abs (ratio -. !best_ratio) <= epsilon
           && (!best_row < 0 || t.basis.(i) < t.basis.(!best_row)))
      then begin
        best_ratio := ratio;
        best_row := i
      end
    end
  done;
  !best_row

let iterate t ~allowed =
  let max_iter = 200 * (t.m + t.total) in
  let bland_after = 20 * (t.m + t.total) in
  let rec loop iter =
    if iter > max_iter then begin
      Obs.Counter.incr c_stalls;
      `Stalled
    end
    else begin
      let col = entering t ~allowed ~bland:(iter > bland_after) in
      if col < 0 then `Optimal
      else begin
        let row = leaving t ~col in
        if row < 0 then `Unbounded
        else begin
          pivot t ~row ~col;
          loop (iter + 1)
        end
      end
    end
  in
  loop 0

let solve problem =
  let n = Array.length problem.objective in
  List.iter
    (fun (row, _, _) ->
      if Array.length row <> n then
        invalid_arg "Simplex.solve: constraint arity mismatch")
    problem.constraints;
  let constraints = Array.of_list problem.constraints in
  let m = Array.length constraints in
  (* Normalize RHS to be nonnegative by negating rows where needed. *)
  let constraints =
    Array.map
      (fun (row, rel, b) ->
        if b < 0. then
          ( Array.map (fun v -> -.v) row,
            (match rel with Le -> Ge | Ge -> Le | Eq -> Eq),
            -.b )
        else (row, rel, b))
      constraints
  in
  let n_slack =
    Array.fold_left
      (fun acc (_, rel, _) -> match rel with Le | Ge -> acc + 1 | Eq -> acc)
      0 constraints
  in
  (* Crash basis: a structural column appearing in exactly one row, with a
     positive coefficient there, can start basic for that row (after
     normalization) — this removes the need for an artificial. Common in
     penalty formulations like LP decoding, where it removes phase 1
     entirely. *)
  let column_rows = Array.make n 0 in
  Array.iter
    (fun (row, _, _) ->
      Array.iteri
        (fun j v -> if Float.abs v > epsilon then column_rows.(j) <- column_rows.(j) + 1)
        row)
    constraints;
  let crash_used = Array.make n false in
  let crash_column (row, rel, _) =
    match rel with
    | Le -> None (* the slack serves already *)
    | Ge | Eq ->
      let found = ref None in
      Array.iteri
        (fun j v ->
          if
            !found = None && (not crash_used.(j))
            && column_rows.(j) = 1 && v > epsilon
          then found := Some j)
        row;
      (match !found with Some j -> crash_used.(j) <- true | None -> ());
      !found
  in
  let crash = Array.map (fun c -> crash_column c) constraints in
  (* A Ge row with a crash column still needs its surplus; an Eq row with a
     crash column needs nothing extra; rows without one get an artificial. *)
  let n_art =
    Array.fold_left
      (fun acc (i, (_, rel, _)) ->
        match (rel, crash.(i)) with
        | Le, _ -> acc
        | (Ge | Eq), Some _ -> acc
        | (Ge | Eq), None -> acc + 1)
      0
      (Array.mapi (fun i c -> (i, c)) constraints)
  in
  let total = n + n_slack + n_art in
  let rows = Array.init m (fun _ -> Array.make (total + 1) 0.) in
  let basis = Array.make m 0 in
  let slack_cursor = ref n in
  let art_cursor = ref (n + n_slack) in
  Array.iteri
    (fun i (row, rel, b) ->
      Array.blit row 0 rows.(i) 0 n;
      (match rel with
      | Le ->
        rows.(i).(!slack_cursor) <- 1.;
        basis.(i) <- !slack_cursor;
        incr slack_cursor
      | Ge ->
        rows.(i).(!slack_cursor) <- -1.;
        incr slack_cursor;
        (match crash.(i) with
        | Some j -> basis.(i) <- j
        | None ->
          rows.(i).(!art_cursor) <- 1.;
          basis.(i) <- !art_cursor;
          incr art_cursor)
      | Eq -> (
        match crash.(i) with
        | Some j -> basis.(i) <- j
        | None ->
          rows.(i).(!art_cursor) <- 1.;
          basis.(i) <- !art_cursor;
          incr art_cursor));
      rows.(i).(total) <- b)
    constraints;
  (* Normalize crash-basic rows so the basic coefficient is 1. *)
  Array.iteri
    (fun i c ->
      match c with
      | Some j ->
        let piv = rows.(i).(j) in
        for k = 0 to total do
          rows.(i).(k) <- rows.(i).(k) /. piv
        done
      | None -> ())
    crash;
  (* Phase 1: minimize the sum of artificials. Reduce the phase-1 objective
     w.r.t. the artificial part of the starting basis by subtracting the
     rows whose artificial is basic. *)
  let obj1 = Array.make (total + 1) 0. in
  for a = n + n_slack to total - 1 do
    obj1.(a) <- 1.
  done;
  Array.iteri
    (fun i row ->
      if basis.(i) >= n + n_slack then
        for j = 0 to total do
          obj1.(j) <- obj1.(j) -. row.(j)
        done)
    rows;
  let t = { m; total; rows; obj = obj1; basis } in
  let phase1 =
    if n_art = 0 then `Optimal else iterate t ~allowed:(fun _ -> true)
  in
  match phase1 with
  | `Unbounded -> Infeasible (* phase-1 objective is bounded below by 0 *)
  | (`Optimal | `Stalled) as phase1 ->
    let phase1_value = if n_art = 0 then 0. else -.t.obj.(total) in
    if phase1_value > 1e-5 then Infeasible
    else begin
      (* Drive any lingering artificial variables out of the basis. *)
      for i = 0 to m - 1 do
        if t.basis.(i) >= n + n_slack then begin
          let col = ref (-1) in
          (try
             for j = 0 to n + n_slack - 1 do
               if Float.abs t.rows.(i).(j) > epsilon then begin
                 col := j;
                 raise Exit
               end
             done
           with Exit -> ());
          if !col >= 0 then pivot t ~row:i ~col:!col
        end
      done;
      (* Phase 2: restore the real objective, reduced w.r.t. current basis. *)
      let obj2 = Array.make (total + 1) 0. in
      Array.blit problem.objective 0 obj2 0 n;
      for i = 0 to m - 1 do
        let b = t.basis.(i) in
        let c = obj2.(b) in
        if Float.abs c > 0. then
          for j = 0 to total do
            obj2.(j) <- obj2.(j) -. (c *. t.rows.(i).(j))
          done
      done;
      let t = { t with obj = obj2 } in
      let allowed j = j < n + n_slack in
      match iterate t ~allowed with
      | `Unbounded -> Unbounded
      | (`Optimal | `Stalled) as phase2 ->
        let x = Array.make n 0. in
        for i = 0 to m - 1 do
          if t.basis.(i) < n then x.(t.basis.(i)) <- t.rows.(i).(total)
        done;
        let objective = ref 0. in
        for i = 0 to n - 1 do
          objective := !objective +. (problem.objective.(i) *. x.(i))
        done;
        if phase1 = `Stalled || phase2 = `Stalled then
          Stalled { x; objective = !objective }
        else Optimal { x; objective = !objective }
    end
