type t = {
  m : int;
  n : int;
  row_ptr : int array;  (* length m+1; row i occupies [row_ptr.(i), row_ptr.(i+1)) *)
  col_idx : int array;  (* length nnz, ascending within each row *)
  values : float array;  (* length nnz *)
}

external spmv_mul :
  int array -> int array -> float array -> float array -> float array -> unit
  = "pso_spmv_mul"
[@@noalloc]

external spmv_tmul :
  int array -> int array -> float array -> float array -> float array -> unit
  = "pso_spmv_tmul"
[@@noalloc]

let rows t = t.m

let cols t = t.n

let row_nnz t i = t.row_ptr.(i + 1) - t.row_ptr.(i)

let of_rows ~cols:n rows_l =
  if n < 0 then invalid_arg "Sparse.of_rows: negative cols";
  let m = Array.length rows_l in
  let row_ptr = Array.make (m + 1) 0 in
  let sorted =
    Array.map
      (fun entries ->
        let entries =
          List.sort (fun (j, _) (j', _) -> compare j j') entries
        in
        let rec check = function
          | (j, _) :: (((j', _) :: _) as rest) ->
            if j = j' then invalid_arg "Sparse.of_rows: duplicate column";
            check rest
          | _ -> ()
        in
        check entries;
        List.iter
          (fun (j, _) ->
            if j < 0 || j >= n then invalid_arg "Sparse.of_rows: column out of range")
          entries;
        entries)
      rows_l
  in
  Array.iteri
    (fun i entries -> row_ptr.(i + 1) <- row_ptr.(i) + List.length entries)
    sorted;
  let total = row_ptr.(m) in
  let col_idx = Array.make total 0 in
  let values = Array.make total 0. in
  Array.iteri
    (fun i entries ->
      List.iteri
        (fun k (j, v) ->
          col_idx.(row_ptr.(i) + k) <- j;
          values.(row_ptr.(i) + k) <- v)
        entries)
    sorted;
  { m; n; row_ptr; col_idx; values }

let of_subset_queries ~query ~n =
  let m = Array.length query in
  let row_ptr = Array.make (m + 1) 0 in
  let sorted =
    Array.map
      (fun indices ->
        let ascending = ref true in
        Array.iteri
          (fun r i ->
            if i < 0 || i >= n then
              invalid_arg "Sparse.of_subset_queries: index out of range";
            if r > 0 && i <= indices.(r - 1) then ascending := false)
          indices;
        (* A strictly ascending row, as every generated subset query is, is
           already its own sorted, duplicate-free form: it is only read
           below, so it is used as is rather than copied. *)
        if !ascending then (indices, Array.length indices)
        else
        let s = Array.copy indices in
        Array.sort compare s;
        (* collapse duplicates in place; the dense builder's [set _ _ 1.] is
           idempotent, so a repeated index is a single 1 *)
        let len = Array.length s in
        let w = ref 0 in
        for r = 0 to len - 1 do
          if r = 0 || s.(r) <> s.(r - 1) then begin
            s.(!w) <- s.(r);
            incr w
          end
        done;
        (s, !w))
      query
  in
  Array.iteri (fun i (_, len) -> row_ptr.(i + 1) <- row_ptr.(i) + len) sorted;
  let total = row_ptr.(m) in
  let col_idx = Array.make total 0 in
  let values = Array.make total 1. in
  Array.iteri
    (fun i (s, len) -> Array.blit s 0 col_idx row_ptr.(i) len)
    sorted;
  { m; n; row_ptr; col_idx; values }

let of_matrix a =
  let m = Matrix.rows a and n = Matrix.cols a in
  let row_ptr = Array.make (m + 1) 0 in
  for i = 0 to m - 1 do
    let c = ref 0 in
    for j = 0 to n - 1 do
      if Matrix.get a i j <> 0. then incr c
    done;
    row_ptr.(i + 1) <- row_ptr.(i) + !c
  done;
  let total = row_ptr.(m) in
  let col_idx = Array.make total 0 in
  let values = Array.make total 0. in
  let cursor = ref 0 in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let v = Matrix.get a i j in
      if v <> 0. then begin
        col_idx.(!cursor) <- j;
        values.(!cursor) <- v;
        incr cursor
      end
    done
  done;
  { m; n; row_ptr; col_idx; values }

let to_matrix t =
  let a = Matrix.create ~rows:t.m ~cols:t.n 0. in
  for i = 0 to t.m - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      Matrix.set a i t.col_idx.(k) t.values.(k)
    done
  done;
  a

let fold_row t i ~init ~f =
  let acc = ref init in
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    acc := f !acc t.col_idx.(k) t.values.(k)
  done;
  !acc

let mul_vec_into t x y =
  if Array.length x <> t.n then invalid_arg "Sparse.mul_vec: dimension mismatch";
  if Array.length y <> t.m then invalid_arg "Sparse.mul_vec: output dimension mismatch";
  spmv_mul t.row_ptr t.col_idx t.values x y

let mul_vec t x =
  let y = Array.make t.m 0. in
  mul_vec_into t x y;
  y

let tmul_vec_into t y out =
  if Array.length y <> t.m then invalid_arg "Sparse.tmul_vec_into: dimension mismatch";
  if Array.length out <> t.n then
    invalid_arg "Sparse.tmul_vec_into: output dimension mismatch";
  spmv_tmul t.row_ptr t.col_idx t.values y out

let mul_vec_ml t x =
  if Array.length x <> t.n then invalid_arg "Sparse.mul_vec: dimension mismatch";
  Array.init t.m (fun i ->
      let acc = ref 0. in
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        acc := !acc +. (t.values.(k) *. x.(t.col_idx.(k)))
      done;
      !acc)

let tmul_vec_ml t y =
  if Array.length y <> t.m then invalid_arg "Sparse.tmul_vec_ml: dimension mismatch";
  let out = Array.make t.n 0. in
  for i = 0 to t.m - 1 do
    let yi = y.(i) in
    if yi <> 0. then
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        let j = t.col_idx.(k) in
        out.(j) <- out.(j) +. (t.values.(k) *. yi)
      done
  done;
  out

let restrict_cols t ~keep =
  let k = Array.length keep in
  Array.iteri
    (fun i j ->
      if j < 0 || j >= t.n || (i > 0 && j <= keep.(i - 1)) then
        invalid_arg "Sparse.restrict_cols: keep must be strictly increasing and in range")
    keep;
  let remap = Array.make t.n (-1) in
  Array.iteri (fun new_j old_j -> remap.(old_j) <- new_j) keep;
  let row_ptr = Array.make (t.m + 1) 0 in
  for i = 0 to t.m - 1 do
    let c = ref 0 in
    for p = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      if remap.(t.col_idx.(p)) >= 0 then incr c
    done;
    row_ptr.(i + 1) <- row_ptr.(i) + !c
  done;
  let total = row_ptr.(t.m) in
  let col_idx = Array.make total 0 in
  let values = Array.make total 0. in
  let cursor = ref 0 in
  for i = 0 to t.m - 1 do
    for p = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let nj = remap.(t.col_idx.(p)) in
      if nj >= 0 then begin
        col_idx.(!cursor) <- nj;
        values.(!cursor) <- t.values.(p);
        incr cursor
      end
    done
  done;
  { m = t.m; n = k; row_ptr; col_idx; values }

let scale_rows t ~w =
  if Array.length w <> t.m then invalid_arg "Sparse.scale_rows: length mismatch";
  let values = Array.copy t.values in
  for i = 0 to t.m - 1 do
    for p = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      values.(p) <- values.(p) *. w.(i)
    done
  done;
  { t with values }
