type t = { lo : float array; hi : float array }

let make ~n ~lo ~hi =
  if hi < lo then invalid_arg "Intervals.make: empty box";
  { lo = Array.make n lo; hi = Array.make n hi }

let copy b = { lo = Array.copy b.lo; hi = Array.copy b.hi }

let width b j = b.hi.(j) -. b.lo.(j)

let is_fixed b j = b.lo.(j) = b.hi.(j)

let fixed_count b =
  let c = ref 0 in
  for j = 0 to Array.length b.lo - 1 do
    if is_fixed b j then incr c
  done;
  !c

(* Inward integral rounding with a tolerance so that a bound sitting a hair
   above/below an integer (from float division) still admits that integer. *)
let eps = 1e-9

let round_lo v = Float.ceil (v -. eps)

let round_hi v = Float.floor (v +. eps)

let max_passes = 50

let propagate a ~row_lo ~row_hi box =
  let m = Sparse.rows a and n = Sparse.cols a in
  if Array.length row_lo <> m || Array.length row_hi <> m then
    invalid_arg "Intervals.propagate: row bound dimension mismatch";
  if Array.length box.lo <> n || Array.length box.hi <> n then
    invalid_arg "Intervals.propagate: box dimension mismatch";
  let lo = Array.make n 0. and hi = Array.make n 0. in
  for j = 0 to n - 1 do
    lo.(j) <- round_lo box.lo.(j);
    hi.(j) <- round_hi box.hi.(j)
  done;
  let empty = ref (-1) in
  for j = 0 to n - 1 do
    if !empty < 0 && lo.(j) > hi.(j) then empty := j
  done;
  let row_ptr = a.Sparse.row_ptr
  and col_idx = a.Sparse.col_idx
  and values = a.Sparse.values in
  let changed = ref true in
  let pass = ref 0 in
  while !changed && !empty < 0 && !pass < max_passes do
    changed := false;
    incr pass;
    let r = ref 0 in
    while !empty < 0 && !r < m do
      let first = row_ptr.(!r) and last = row_ptr.(!r + 1) - 1 in
      let s_lo = ref 0. and s_hi = ref 0. in
      for k = first to last do
        let j = col_idx.(k) and v = values.(k) in
        if v < 0. then invalid_arg "Intervals.propagate: negative coefficient";
        s_lo := !s_lo +. (v *. lo.(j));
        s_hi := !s_hi +. (v *. hi.(j))
      done;
      let s_lo = !s_lo and s_hi = !s_hi in
      for k = first to last do
        let j = col_idx.(k) and v = values.(k) in
        if !empty < 0 && v > 0. then begin
          (* others' max contribution leaves this much for x_j at least *)
          let new_lo =
            round_lo ((row_lo.(!r) -. (s_hi -. (v *. hi.(j)))) /. v)
          in
          let new_hi =
            round_hi ((row_hi.(!r) -. (s_lo -. (v *. lo.(j)))) /. v)
          in
          if new_lo > lo.(j) then begin
            lo.(j) <- new_lo;
            changed := true
          end;
          if new_hi < hi.(j) then begin
            hi.(j) <- new_hi;
            changed := true
          end;
          if lo.(j) > hi.(j) then empty := j
        end
      done;
      incr r
    done
  done;
  match !empty with j when j >= 0 -> `Empty j | _ -> `Bounded { lo; hi }

(* Depth-first integer feasibility with propagation at every node; [budget]
   counts propagation calls. Exhausting the budget returns [true] (unknown
   counts as feasible), so [false] is always a proof of infeasibility. *)
let rec search budget a ~row_lo ~row_hi box =
  if !budget <= 0 then true
  else begin
    decr budget;
    match propagate a ~row_lo ~row_hi box with
    | `Empty _ -> false
    | `Bounded b ->
      let n = Array.length b.lo in
      let pick = ref (-1) and widest = ref 0. in
      for j = 0 to n - 1 do
        let w = width b j in
        if w > !widest then begin
          widest := w;
          pick := j
        end
      done;
      if !pick < 0 then true
        (* all variables fixed and propagation found no violated row *)
      else begin
        let j = !pick in
        let mid = Float.floor ((b.lo.(j) +. b.hi.(j)) /. 2.) in
        let left = copy b in
        left.hi.(j) <- mid;
        let right = copy b in
        right.lo.(j) <- mid +. 1.;
        search budget a ~row_lo ~row_hi left
        || search budget a ~row_lo ~row_hi right
      end
  end

let shave ?(budget = 2000) a ~row_lo ~row_hi box =
  let b = copy box in
  let budget = ref budget in
  let n = Array.length b.lo in
  let refuted probe = not (search budget a ~row_lo ~row_hi probe) in
  for j = 0 to n - 1 do
    let continue_ = ref true in
    while !continue_ && !budget > 0 && not (is_fixed b j) do
      let probe = copy b in
      probe.hi.(j) <- b.lo.(j);
      if refuted probe then b.lo.(j) <- b.lo.(j) +. 1. else continue_ := false
    done;
    let continue_ = ref true in
    while !continue_ && !budget > 0 && not (is_fixed b j) do
      let probe = copy b in
      probe.lo.(j) <- b.hi.(j);
      if refuted probe then b.hi.(j) <- b.hi.(j) -. 1. else continue_ := false
    done
  done;
  b
