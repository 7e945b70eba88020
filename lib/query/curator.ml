module Table = Dataset.Table
module Value = Dataset.Value

type policy =
  | Exact
  | Limited of int
  | Audited
  | Noisy of { per_query_epsilon : float; total_epsilon : float }

type reply = Answer of float | Refusal of string

type state =
  | Plain of { budget : int option }  (* Exact / Limited *)
  | Auditing of Auditor.t
  | Accounting of { per_query : float; total : float; mutable spent : float }

type t = {
  table : Table.t;
  bits : int array;  (* the target attribute as 0/1 *)
  rng : Prob.Rng.t;
  state : state;
  analyst : string;  (* audit-ledger session id *)
  mutable answered : int;
  mutable refused : int;
}

let c_answered = Obs.Counter.make "curator.answered"

let c_refused = Obs.Counter.make "curator.refusals"

(* Deterministic cost sketch shared (by name) with the mechanism layer. *)
let sk_cost = Obs.Sketchm.make "query.cost_rows"

(* Shared by name with Dp.Telemetry: the noisy curator's ε joins the
   accountants' in the exported dp.epsilon_spent gauge. *)
let g_eps = Obs.Gauge.make "dp.epsilon_spent"

let target_bits table target =
  let j = Dataset.Schema.index_of (Table.schema table) target in
  Array.map
    (fun row ->
      match row.(j) with
      | Value.Int 0 | Value.Bool false -> 0
      | Value.Int 1 | Value.Bool true -> 1
      | v ->
        invalid_arg
          (Printf.sprintf "Curator.create: target %S has non-binary value %s"
             target (Value.to_string v)))
    (Table.rows table)

let create ?analyst ?rng ~policy ~target table =
  let rng = match rng with Some r -> r | None -> Prob.Rng.create () in
  let bits = target_bits table target in
  let state =
    match policy with
    | Exact -> Plain { budget = None }
    | Limited k ->
      if k <= 0 then invalid_arg "Curator.create: Limited budget";
      Plain { budget = Some k }
    | Audited -> Auditing (Auditor.create bits)
    | Noisy { per_query_epsilon; total_epsilon } ->
      if per_query_epsilon <= 0. || total_epsilon <= 0. then
        invalid_arg "Curator.create: Noisy budgets";
      Accounting
        { per_query = per_query_epsilon; total = total_epsilon; spent = 0. }
  in
  let analyst =
    match analyst with
    | Some a -> a
    | None ->
      if Obs.Ledger.enabled () then Obs.Ledger.fresh_analyst ()
      else Obs.Ledger.ambient_analyst
  in
  (if Obs.Ledger.enabled () then
     match policy with
     | Exact -> Obs.Ledger.session ~analyst ~policy:"exact" ()
     | Limited _ -> Obs.Ledger.session ~analyst ~policy:"limited" ()
     | Audited -> Obs.Ledger.session ~analyst ~policy:"audited" ()
     | Noisy { per_query_epsilon; total_epsilon } ->
       Obs.Ledger.session ~analyst ~policy:"noisy" ~per_query:per_query_epsilon
         ~total:total_epsilon ());
  { table; bits; rng; state; analyst; answered = 0; refused = 0 }

let exact_sum t subset =
  Array.fold_left
    (fun acc i ->
      if i < 0 || i >= Array.length t.bits then
        invalid_arg "Curator: index out of range";
      acc + t.bits.(i))
    0 subset

let answer t ~digest ~engine ~noised ~cost v =
  Obs.Counter.incr c_answered;
  Obs.Sketchm.observe sk_cost (float_of_int cost);
  Obs.Ledger.query ~analyst:t.analyst ~kind:"curator" ~digest ~engine ~noised
    ~cost;
  t.answered <- t.answered + 1;
  Answer v

let refuse t ~reason ~detail msg =
  Obs.Counter.incr c_refused;
  Obs.Ledger.refusal ~analyst:t.analyst ~reason ~detail;
  t.refused <- t.refused + 1;
  Refusal msg

let ask_subset_as t ~digest ~engine subset =
  let cost = Array.length subset in
  match t.state with
  | Plain { budget = None } ->
    answer t ~digest ~engine ~noised:false ~cost
      (float_of_int (exact_sum t subset))
  | Plain { budget = Some k } ->
    if t.answered >= k then
      refuse t ~reason:"limit"
        ~detail:
          [ ("answered", float_of_int t.answered); ("limit", float_of_int k) ]
        "query limit reached"
    else
      answer t ~digest ~engine ~noised:false ~cost
        (float_of_int (exact_sum t subset))
  | Auditing auditor -> (
    match Auditor.ask auditor subset with
    | Auditor.Answered v -> answer t ~digest ~engine ~noised:false ~cost v
    | Auditor.Refused ->
      refuse t ~reason:"audit" ~detail:[]
        "answering would disclose an individual's bit")
  | Accounting a ->
    if a.spent +. a.per_query > a.total +. 1e-12 then
      refuse t ~reason:"budget"
        ~detail:
          [
            ("spent", a.spent);
            ("per_query", a.per_query);
            ("total", a.total);
          ]
        "privacy budget exhausted"
    else begin
      a.spent <- a.spent +. a.per_query;
      Obs.Gauge.add g_eps a.per_query;
      Obs.Ledger.spend ~analyst:t.analyst ~label:"curator-query"
        ~epsilon:a.per_query ~cumulative:a.spent ();
      let scale = 1. /. a.per_query in
      Obs.Ledger.noise ~analyst:t.analyst ~mechanism:"laplace" ~scale ~n:1;
      let noisy =
        float_of_int (exact_sum t subset) +. Prob.Sampler.laplace t.rng ~scale
      in
      answer t ~digest ~engine ~noised:true ~cost noisy
    end

let ask_subset t subset = ask_subset_as t ~digest:"-" ~engine:"subset" subset

let matching_interpreted t schema p =
  let subset = ref [] in
  Table.iter
    (fun i row -> if Predicate.eval schema p row then subset := i :: !subset)
    t.table;
  Array.of_list (List.rev !subset)

let show_subset s =
  "[" ^ String.concat "; " (Array.to_list (Array.map string_of_int s)) ^ "]"

let ask t p =
  let schema = Table.schema t.table in
  let subset =
    Predicate.by_engine
      ~what:(fun () -> "Curator.ask on " ^ Predicate.to_string p)
      ~show:show_subset
      (fun () -> matching_interpreted t schema p)
      (fun () ->
        Bitset.indices (Predicate.bits (Predicate.compile schema p) t.table))
  in
  let digest = if Obs.Ledger.enabled () then Predicate.digest p else "-" in
  ask_subset_as t ~digest
    ~engine:(Predicate.engine_name (Predicate.engine ()))
    subset

(* Subpopulation extraction for a whole question list at once. Replies
   still go through [ask_subset] one by one in index order, so the
   curator's state transitions (budget, audit, noise draws) are exactly
   those of asking sequentially — [ask_many] and [Array.map (ask t)]
   produce identical replies from identical starting states. *)
let matching_many t schema ps =
  Predicate.by_engine
    ~what:(fun () ->
      Printf.sprintf "Curator.ask_many on %d queries" (Array.length ps))
    ~show:(fun ss -> String.concat " " (Array.to_list (Array.map show_subset ss)))
    (fun () -> Array.map (matching_interpreted t schema) ps)
    (fun () ->
      let cs = Array.map (Predicate.compile schema) ps in
      Array.map Bitset.indices (Predicate.bits_many t.table cs))

let ask_many t ps =
  let subsets = matching_many t (Table.schema t.table) ps in
  let engine = Predicate.engine_name (Predicate.engine ()) in
  let ledger_on = Obs.Ledger.enabled () in
  let out = Array.make (Array.length ps) (Refusal "unasked") in
  for i = 0 to Array.length ps - 1 do
    let digest = if ledger_on then Predicate.digest ps.(i) else "-" in
    out.(i) <- ask_subset_as t ~digest ~engine subsets.(i)
  done;
  out

let analyst t = t.analyst

let answered t = t.answered

let refused t = t.refused

let spent_epsilon t =
  match t.state with Accounting a -> a.spent | Plain _ | Auditing _ -> 0.

let remaining_epsilon t =
  match t.state with
  | Accounting a -> Some (a.total -. a.spent)
  | Plain _ | Auditing _ -> None
