type t = { rows : int; cols : int; data : float array }

let create ~rows ~cols v =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create";
  { rows; cols; data = Array.make (rows * cols) v }

let of_rows r =
  let nrows = Array.length r in
  if nrows = 0 then invalid_arg "Matrix.of_rows: no rows";
  let ncols = Array.length r.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> ncols then
        invalid_arg "Matrix.of_rows: ragged rows")
    r;
  let m = create ~rows:nrows ~cols:ncols 0. in
  Array.iteri
    (fun i row -> Array.iteri (fun j v -> m.data.((i * ncols) + j) <- v) row)
    r;
  m

let rows m = m.rows

let cols m = m.cols

let get m i j = m.data.((i * m.cols) + j)

let set m i j v = m.data.((i * m.cols) + j) <- v

let mul_vec_into m x y =
  if Array.length x <> m.cols then invalid_arg "Matrix.mul_vec: dimension mismatch";
  if Array.length y <> m.rows then
    invalid_arg "Matrix.mul_vec: output dimension mismatch";
  for i = 0 to m.rows - 1 do
    let acc = ref 0. in
    let base = i * m.cols in
    for j = 0 to m.cols - 1 do
      acc := !acc +. (m.data.(base + j) *. x.(j))
    done;
    y.(i) <- !acc
  done

let mul_vec m x =
  let y = Array.make m.rows 0. in
  mul_vec_into m x y;
  y

let tmul_vec_into m y out =
  if Array.length y <> m.rows then invalid_arg "Matrix.tmul_vec_into: dimension mismatch";
  if Array.length out <> m.cols then
    invalid_arg "Matrix.tmul_vec_into: output dimension mismatch";
  Array.fill out 0 m.cols 0.;
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let yi = y.(i) in
    if yi <> 0. then
      for j = 0 to m.cols - 1 do
        out.(j) <- out.(j) +. (m.data.(base + j) *. yi)
      done
  done

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
  let out = create ~rows:a.rows ~cols:b.cols 0. in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if aik <> 0. then
        for j = 0 to b.cols - 1 do
          set out i j (get out i j +. (aik *. get b k j))
        done
    done
  done;
  out

let transpose m =
  let out = create ~rows:m.cols ~cols:m.rows 0. in
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      set out j i (get m i j)
    done
  done;
  out

let identity n =
  let m = create ~rows:n ~cols:n 0. in
  for i = 0 to n - 1 do
    set m i i 1.
  done;
  m

let of_subset_queries ~query ~n =
  let m = create ~rows:(Array.length query) ~cols:n 0. in
  Array.iteri
    (fun q indices ->
      Array.iter
        (fun i ->
          if i < 0 || i >= n then
            invalid_arg "Matrix.of_subset_queries: index out of range";
          set m q i 1.)
        indices)
    query;
  m
