type 'a t = {
  values : 'a array;
  probs : float array;  (* same length as values, strictly positive, sums to 1 *)
  cumulative : float array;  (* prefix sums of probs; last entry is 1. *)
  guide : int array;  (* Chen–Asau guide table, see [guide_of] *)
  index : ('a, float) Hashtbl.t;  (* value -> probability *)
}

(* Chen–Asau indexed search. With [m] the least power of two >= n (so
   [m < 2n], and [b /. m] and [u *. m] are exact), bucket [b] stores the
   first index whose cumulative exceeds the bucket's lower edge [b/m]. A
   draw [u] in bucket [b] has its answer — the first cumulative > u, the
   binary search's — at or after that index, so a forward scan from it
   finds exactly that answer, in O(1) expected steps. "cumulative > x" is
   monotone in the index for every x < 1 (prefix sums, last pinned to 1),
   so the scans below never pass the end. *)
let guide_of cumulative =
  let n = Array.length cumulative in
  let m = ref 1 in
  while !m < n do
    m := 2 * !m
  done;
  let scale = float_of_int !m in
  let j = ref 0 in
  Array.init !m (fun b ->
      let edge = float_of_int b /. scale in
      while cumulative.(!j) <= edge do
        incr j
      done;
      !j)

let of_weights assoc =
  let assoc = List.filter (fun (_, w) -> w <> 0.) assoc in
  if assoc = [] then invalid_arg "Distribution.of_weights: empty support";
  List.iter
    (fun (_, w) ->
      if not (Float.is_finite w) || w < 0. then
        invalid_arg "Distribution.of_weights: weights must be finite and >= 0")
    assoc;
  (* Merge duplicate values so [prob] is well defined. *)
  let index = Hashtbl.create (List.length assoc) in
  let order = ref [] in
  List.iter
    (fun (v, w) ->
      match Hashtbl.find_opt index v with
      | None ->
        Hashtbl.replace index v w;
        order := v :: !order
      | Some w0 -> Hashtbl.replace index v (w0 +. w))
    assoc;
  let values = Array.of_list (List.rev !order) in
  let total = Array.fold_left (fun acc v -> acc +. Hashtbl.find index v) 0. values in
  if total <= 0. then invalid_arg "Distribution.of_weights: total weight is zero";
  let probs = Array.map (fun v -> Hashtbl.find index v /. total) values in
  Array.iteri (fun i v -> Hashtbl.replace index v probs.(i)) values;
  let cumulative = Array.make (Array.length probs) 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i p ->
      acc := !acc +. p;
      cumulative.(i) <- !acc)
    probs;
  cumulative.(Array.length cumulative - 1) <- 1.;
  { values; probs; cumulative; guide = guide_of cumulative; index }

let uniform values =
  of_weights (List.map (fun v -> (v, 1.)) values)

let singleton v = of_weights [ (v, 1.) ]

let support t = Array.copy t.values

let prob t v = match Hashtbl.find_opt t.index v with Some p -> p | None -> 0.

let sample rng t =
  let u = Rng.uniform rng in
  (* The first cumulative value > u, scanned from u's guide bucket. *)
  let j = ref t.guide.(int_of_float (u *. float_of_int (Array.length t.guide))) in
  while t.cumulative.(!j) <= u do
    incr j
  done;
  t.values.(!j)

let to_assoc t =
  Array.to_list (Array.mapi (fun i v -> (v, t.probs.(i))) t.values)

let map f t = of_weights (List.map (fun (v, p) -> (f v, p)) (to_assoc t))

let product ta tb =
  of_weights
    (List.concat_map
       (fun (a, pa) -> List.map (fun (b, pb) -> ((a, b), pa *. pb)) (to_assoc tb))
       (to_assoc ta))

let expect f t =
  Array.to_list t.values
  |> List.mapi (fun i v -> f v *. t.probs.(i))
  |> List.fold_left ( +. ) 0.

let log2 x = Float.log x /. Float.log 2.

let entropy t =
  Array.fold_left (fun acc p -> acc -. (p *. log2 p)) 0. t.probs

let max_prob t = Array.fold_left Float.max 0. t.probs

let min_entropy t = -.log2 (max_prob t)

let total_variation ta tb =
  let keys = Hashtbl.create 16 in
  Array.iter (fun v -> Hashtbl.replace keys v ()) ta.values;
  Array.iter (fun v -> Hashtbl.replace keys v ()) tb.values;
  let sum =
    Hashtbl.fold (fun v () acc -> acc +. Float.abs (prob ta v -. prob tb v)) keys 0.
  in
  sum /. 2.

let zipf k =
  if k <= 0 then invalid_arg "Distribution.zipf";
  of_weights (List.init k (fun i -> (i, 1. /. float_of_int (i + 1))))
