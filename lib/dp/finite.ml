type side = A | B

type spec = {
  name : string;
  atoms : int;
  outputs : int;
  weights_a : int array;
  weights_b : int array;
  out_a : int array;
  out_b : int array;
  bound_num : int;
  bound_den : int;
  epsilon_label : string;
  out_label : int -> string;
}

(* All spans/bases below are single digits, so every weight product stays
   far under the native-integer range; the certificate checker re-does all
   arithmetic overflow-checked anyway. *)
let ipow base e =
  let rec go acc e = if e = 0 then acc else go (acc * base) (e - 1) in
  if e < 0 then invalid_arg "Dp.Finite.ipow" else go 1 e

(* Two-sided geometric on displacements [-span, span], indexed 0..2span:
   weight(k) = num^|k| den^(span-|k|), i.e. proportional to alpha^|k|. *)
let two_sided_weights ~alpha:(num, den) ~span =
  Array.init
    ((2 * span) + 1)
    (fun i ->
      let k = abs (i - span) in
      ipow num k * ipow den (span - k))

let counting_pair ~name ~alpha ~span ~bound:(bound_num, bound_den)
    ~epsilon_label =
  let m = (2 * span) + 1 in
  let w = two_sided_weights ~alpha ~span in
  {
    name;
    atoms = m;
    outputs = m;
    weights_a = w;
    weights_b = w;
    (* A's true count is one higher, so its noisy outputs shift by one,
       cyclically; the wrap is what makes the restriction exactly eps-DP. *)
    out_a = Array.init m (fun i -> (i + 1) mod m);
    out_b = Array.init m (fun i -> i);
    bound_num;
    bound_den;
    epsilon_label;
    out_label = (fun o -> Printf.sprintf "count c%+d (mod %d)" (o - span) m);
  }

let randomized_response_pair ~name ~lambda ~bound:(bound_num, bound_den)
    ~epsilon_label =
  {
    name;
    atoms = 2;
    outputs = 2;
    weights_a = [| lambda; 1 |];
    weights_b = [| lambda; 1 |];
    (* Atom 0 = report truthfully, atom 1 = lie; A's true bit is 1, B's
       is 0. *)
    out_a = [| 1; 0 |];
    out_b = [| 0; 1 |];
    bound_num;
    bound_den;
    epsilon_label;
    out_label = (fun o -> if o = 0 then "reply false" else "reply true");
  }

let exponential_pair ~name ~base ~utilities_a ~utilities_b
    ~bound:(bound_num, bound_den) ~epsilon_label =
  let n = Array.length utilities_a in
  if Array.length utilities_b <> n || n = 0 then
    invalid_arg "Dp.Finite.exponential_pair: utility vectors";
  {
    name;
    atoms = n;
    outputs = n;
    weights_a = Array.map (fun u -> ipow base u) utilities_a;
    weights_b = Array.map (fun u -> ipow base u) utilities_b;
    out_a = Array.init n (fun i -> i);
    out_b = Array.init n (fun i -> i);
    bound_num;
    bound_den;
    epsilon_label;
    out_label = (fun o -> Printf.sprintf "candidate %d" o);
  }

let laplace_pair () =
  counting_pair ~name:"laplace" ~alpha:(1, 2) ~span:6 ~bound:(2, 1)
    ~epsilon_label:"eps = ln 2"

let geometric_pair () =
  counting_pair ~name:"geometric" ~alpha:(1, 3) ~span:5 ~bound:(3, 1)
    ~epsilon_label:"eps = ln 3"

(* Mixed-radix atom coding for the product constructions below: an atom is
   a tuple of per-coordinate noises, encoded most-significant-first. *)
let decode ~radix ~coords i =
  let t = Array.make coords 0 in
  let rec go i c =
    if c >= 0 then begin
      t.(c) <- i mod radix;
      go (i / radix) (c - 1)
    end
  in
  go i (coords - 1);
  t

let histogram_pair () =
  let span = 2 in
  let mc = (2 * span) + 1 in
  let cells = 3 in
  let w = two_sided_weights ~alpha:(1, 2) ~span in
  let atoms = ipow mc cells in
  let weight i =
    Array.fold_left (fun acc d -> acc * w.(d)) 1 (decode ~radix:mc ~coords:cells i)
  in
  let encode t = Array.fold_left (fun acc d -> (acc * mc) + d) 0 t in
  let out shift i =
    (* The extra record is in cell 0: shift that coordinate's noisy count
       by one (cyclically), leave the others untouched. *)
    let t = decode ~radix:mc ~coords:cells i in
    t.(0) <- (t.(0) + shift) mod mc;
    encode t
  in
  {
    name = "histogram";
    atoms;
    outputs = atoms;
    weights_a = Array.init atoms weight;
    weights_b = Array.init atoms weight;
    out_a = Array.init atoms (out 1);
    out_b = Array.init atoms (out 0);
    bound_num = 2;
    bound_den = 1;
    epsilon_label = "eps = ln 2";
    out_label =
      (fun i ->
        let t = decode ~radix:mc ~coords:cells i in
        Printf.sprintf "cells(%+d,%+d,%+d)" (t.(0) - span) (t.(1) - span)
          (t.(2) - span));
  }

let noisy_max_pair () =
  (* Two candidates: the argmax depends only on the DIFFERENCE of the two
     per-score noises, so the restriction models that difference directly
     as a cyclic two-sided geometric delta. The utility gap v0 - v1 is +1
     on A and -1 on B (each score moves by one), so B's winning window is
     A's rotated by two — and rotating the noise by two is the alignment,
     costing at most (den/num)^2 = 4 in mass, the report-noisy-max
     bound. *)
  let span = 4 in
  let m = (2 * span) + 1 in
  let w = two_sided_weights ~alpha:(1, 2) ~span in
  (* Candidate 0 wins on A iff gap + delta > 0, i.e. delta >= 0. *)
  let out_a = Array.init m (fun i -> if i >= span then 0 else 1) in
  let out_b = Array.init m (fun i -> out_a.((i - 2 + m) mod m)) in
  {
    name = "noisy_max";
    atoms = m;
    outputs = 2;
    weights_a = w;
    weights_b = w;
    out_a;
    out_b;
    bound_num = 4;
    bound_den = 1;
    epsilon_label = "eps = 2 ln 2";
    out_label = (fun o -> Printf.sprintf "argmax %d" o);
  }

let sv_queries_b = [| 0; 1; 0 |]

let sv_threshold = 2

let sparse_vector_pair () =
  (* AboveThreshold transcript with cyclic noise on the threshold and on
     each query. The neighbor's extra record satisfies every query
     predicate (q_a = q_b + 1 coordinatewise, each query still
     sensitivity-1), so shifting the threshold noise by one realigns every
     query position exactly and the whole transcript is preserved; the
     alignment touches only rho, costing at most den/num = 2. *)
  let span = 3 in
  let m = (2 * span) + 1 in
  let nq = Array.length sv_queries_b in
  let coords = nq + 1 (* threshold noise rho first, then one per query *) in
  let w = two_sided_weights ~alpha:(1, 2) ~span in
  let atoms = ipow m coords in
  let weight i =
    Array.fold_left (fun acc d -> acc * w.(d)) 1 (decode ~radix:m ~coords i)
  in
  let transcript ~extra i =
    let t = decode ~radix:m ~coords i in
    let rho = t.(0) - span in
    let hit = ref nq in
    (try
       for q = 0 to nq - 1 do
         let position =
           (* Cyclic window: the wrapped analog of
              query + noise >= threshold + rho. *)
           (sv_queries_b.(q) + extra + (t.(q + 1) - span) - rho - sv_threshold)
           mod m
         in
         let position = (position + m) mod m in
         if position <= span then begin
           hit := q;
           raise Exit
         end
       done
     with Exit -> ());
    !hit
  in
  {
    name = "sparse_vector";
    atoms;
    outputs = nq + 1;
    weights_a = Array.init atoms weight;
    weights_b = Array.init atoms weight;
    out_a = Array.init atoms (fun i -> transcript ~extra:1 i);
    out_b = Array.init atoms (fun i -> transcript ~extra:0 i);
    bound_num = 2;
    bound_den = 1;
    epsilon_label = "eps = ln 2";
    out_label =
      (fun o -> if o = nq then "no hit" else Printf.sprintf "first hit %d" o);
  }

let subsample_pair () =
  let span = 4 in
  let m = (2 * span) + 1 in
  let w = two_sided_weights ~alpha:(1, 2) ~span in
  (* Under A the extra record is kept with probability 1/2, shifting the
     displacement by one; marginalizing the keep-bit gives
     mass_a(d) ∝ w(d) + w(d-1) against mass_b(d) ∝ 2·w(d) (equal totals),
     and the worst ratio is exactly the amplified 1 + q(e^eps - 1) = 3/2. *)
  {
    name = "subsample";
    atoms = m;
    outputs = m;
    weights_a = Array.init m (fun i -> w.(i) + w.((i - 1 + m) mod m));
    weights_b = Array.init m (fun i -> 2 * w.(i));
    out_a = Array.init m (fun i -> i);
    out_b = Array.init m (fun i -> i);
    bound_num = 3;
    bound_den = 2;
    epsilon_label = "eps = ln(3/2)";
    out_label = (fun o -> Printf.sprintf "count c%+d (mod %d)" (o - span) m);
  }

let randomized_response_spec () =
  randomized_response_pair ~name:"randomized_response" ~lambda:3 ~bound:(3, 1)
    ~epsilon_label:"eps = ln 3"

let exponential_spec () =
  exponential_pair ~name:"exponential" ~base:2 ~utilities_a:[| 0; 1; 2; 3 |]
    ~utilities_b:[| 1; 0; 1; 2 |] ~bound:(4, 1) ~epsilon_label:"eps = 2 ln 2"

let weights spec = function A -> spec.weights_a | B -> spec.weights_b

let sample rng spec side =
  let w = weights spec side in
  let total = Array.fold_left ( + ) 0 w in
  let draw = Prob.Rng.int rng total in
  let atom = ref (spec.atoms - 1) in
  let acc = ref 0 in
  (try
     Array.iteri
       (fun i wi ->
         acc := !acc + wi;
         if draw < !acc then begin
           atom := i;
           raise Exit
         end)
       w
   with Exit -> ());
  (match side with A -> spec.out_a | B -> spec.out_b).(!atom)
