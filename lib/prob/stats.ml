type summary = {
  count : int;
  mean : float;
  variance : float;
  std : float;
  min : float;
  max : float;
}

let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    ss /. float_of_int (n - 1)
  end

let std xs = Float.sqrt (variance xs)

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Stats.summarize: empty array";
  {
    count = Array.length xs;
    mean = mean xs;
    variance = variance xs;
    std = std xs;
    min = Array.fold_left Float.min xs.(0) xs;
    max = Array.fold_left Float.max xs.(0) xs;
  }

let quantile xs q =
  if Array.length xs = 0 then invalid_arg "Stats.quantile: empty array";
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let proportion_ci ~successes ~trials =
  if trials <= 0 then invalid_arg "Stats.proportion_ci: trials must be positive";
  let z = 1.959963984540054 in
  let n = float_of_int trials in
  let p = float_of_int successes /. n in
  let z2 = z *. z in
  let denom = 1. +. (z2 /. n) in
  let center = (p +. (z2 /. (2. *. n))) /. denom in
  let half =
    z /. denom *. Float.sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n)))
  in
  (Float.max 0. (center -. half), Float.min 1. (center +. half))

let histogram ~bins ~lo ~hi xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if hi <= lo then invalid_arg "Stats.histogram: empty range";
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  Array.iter
    (fun x ->
      let i = int_of_float (Float.floor ((x -. lo) /. width)) in
      let i = if i < 0 then 0 else if i >= bins then bins - 1 else i in
      counts.(i) <- counts.(i) + 1)
    xs;
  counts

let pearson xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.pearson: length mismatch";
  if n < 2 then invalid_arg "Stats.pearson: need at least 2 points";
  let mx = mean xs and my = mean ys in
  let num = ref 0. and sx = ref 0. and sy = ref 0. in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    num := !num +. (dx *. dy);
    sx := !sx +. (dx *. dx);
    sy := !sy +. (dy *. dy)
  done;
  if !sx = 0. || !sy = 0. then 0. else !num /. Float.sqrt (!sx *. !sy)

let fraction p xs =
  if Array.length xs = 0 then 0.
  else begin
    let hits = Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 xs in
    float_of_int hits /. float_of_int (Array.length xs)
  end
