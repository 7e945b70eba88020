type t = float array

let create n v = Array.make n v

let dim = Array.length

let check_dims name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vector.%s: dimension mismatch" name)

let dot x y =
  check_dims "dot" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x = Float.sqrt (dot x x)

let sub x y =
  check_dims "sub" x y;
  Array.mapi (fun i v -> v -. y.(i)) x

let axpy a x y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let clamp ~lo ~hi x =
  Array.map (fun v -> if v < lo then lo else if v > hi then hi else v) x

let round01 x = Array.map (fun v -> if v >= 0.5 then 1. else 0.) x

let hamming x y =
  check_dims "hamming" x y;
  let acc = ref 0 in
  for i = 0 to Array.length x - 1 do
    if x.(i) <> y.(i) then incr acc
  done;
  !acc
