type t = {
  m : int;  (* number of leaf cells (padded to a power of two internally) *)
  size : int;  (* padded size *)
  nodes : float array;  (* 1-indexed heap layout; nodes.(1) is the root *)
}

let build rng ~epsilon histogram =
  if epsilon <= 0. then invalid_arg "Dp.Tree.build: epsilon";
  let m = Array.length histogram in
  if m = 0 then invalid_arg "Dp.Tree.build: empty histogram";
  let size =
    let rec pow2 s = if s >= m then s else pow2 (2 * s) in
    pow2 1
  in
  let levels =
    let rec count s acc = if s = 1 then acc else count (s / 2) (acc + 1) in
    count size 1
  in
  let scale = float_of_int levels /. epsilon in
  let nodes = Array.make (2 * size) 0. in
  (* Exact leaf values, then exact internal sums, then noise every node. *)
  for i = 0 to size - 1 do
    nodes.(size + i) <- (if i < m then float_of_int histogram.(i) else 0.)
  done;
  for i = size - 1 downto 1 do
    nodes.(i) <- nodes.(2 * i) +. nodes.((2 * i) + 1)
  done;
  for i = 1 to (2 * size) - 1 do
    nodes.(i) <- nodes.(i) +. Prob.Sampler.laplace rng ~scale
  done;
  { m; size; nodes }

let cells t = t.m

let total t = t.nodes.(1)

(* Canonical dyadic cover: standard segment-tree query. *)
let range t ~lo ~hi =
  if lo < 0 || hi >= t.m || lo > hi then invalid_arg "Dp.Tree.range";
  let acc = ref 0. in
  let l = ref (lo + t.size) and r = ref (hi + t.size + 1) in
  while !l < !r do
    if !l land 1 = 1 then begin
      acc := !acc +. t.nodes.(!l);
      incr l
    end;
    if !r land 1 = 1 then begin
      decr r;
      acc := !acc +. t.nodes.(!r)
    end;
    l := !l / 2;
    r := !r / 2
  done;
  !acc
