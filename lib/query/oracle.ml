type t = {
  data : int array;
  noise : int array -> float -> float;  (* query, true answer -> answer *)
  noised : bool;  (* exact-vs-noised flag for audit-ledger events *)
  mutable asked : int;
}

let n t = Array.length t.data

let asked t = t.asked

let subset_sum data q =
  Array.fold_left
    (fun acc i ->
      if i < 0 || i >= Array.length data then
        invalid_arg "Oracle: index out of range";
      acc + data.(i))
    0 q

let true_answer t q = float_of_int (subset_sum t.data q)

let c_queries = Obs.Counter.make "query.oracle_queries"

(* Shared by name with Curator and Mechanism. *)
let sk_cost = Obs.Sketchm.make "query.cost_rows"

let ask t q =
  let exact = true_answer t q in
  t.asked <- t.asked + 1;
  Obs.Counter.incr c_queries;
  Obs.Sketchm.observe sk_cost (float_of_int (Array.length q));
  Obs.Ledger.query ~analyst:Obs.Ledger.ambient_analyst ~kind:"oracle"
    ~digest:"-" ~engine:"subset" ~noised:t.noised ~cost:(Array.length q);
  t.noise q exact

(* Explicit ascending loop (not Array.map, whose evaluation order the
   stdlib leaves unspecified): the noise closure consumes an rng, and the
   batched attackers rely on [ask_many t qs] drawing in the same order as
   asking each query in turn. *)
let ask_many t qs =
  let out = Array.make (Array.length qs) 0. in
  for i = 0 to Array.length qs - 1 do
    out.(i) <- ask t qs.(i)
  done;
  out

let check_binary data =
  Array.iter
    (fun v -> if v <> 0 && v <> 1 then invalid_arg "Oracle: dataset must be 0/1")
    data

let exact data =
  check_binary data;
  { data; noise = (fun _ a -> a); noised = false; asked = 0 }

let bounded_noise rng ~magnitude data =
  if magnitude < 0. then invalid_arg "Oracle.bounded_noise";
  check_binary data;
  {
    data;
    noise = (fun _ a -> a +. ((Prob.Rng.uniform rng *. 2. -. 1.) *. magnitude));
    noised = true;
    asked = 0;
  }

let laplace rng ~scale data =
  check_binary data;
  {
    data;
    noise = (fun _ a -> a +. Prob.Sampler.laplace rng ~scale);
    noised = true;
    asked = 0;
  }
