type t = {
  analyst : string;  (* audit-ledger session id *)
  mutable steps : (string * float * float) list;
  mutable spent_eps : float;  (* running Σ ε, the ledger's cumulative field *)
}

(* Each accountant journals under its own deterministic analyst id, so
   [Obs.Ledger.verify] can replay every accountant's arithmetic
   independently even when several are live in one run. *)
let create () =
  let analyst =
    if Obs.Ledger.enabled () then Obs.Ledger.fresh_analyst ()
    else Obs.Ledger.ambient_analyst
  in
  if Obs.Ledger.enabled () then
    Obs.Ledger.session ~analyst ~policy:"accountant" ();
  { analyst; steps = []; spent_eps = 0. }

let spend t ~epsilon ?(delta = 0.) label =
  if epsilon <= 0. then invalid_arg "Dp.Accountant.spend: epsilon";
  if delta < 0. || delta >= 1. then invalid_arg "Dp.Accountant.spend: delta";
  Telemetry.spend ();
  Obs.Gauge.add Telemetry.epsilon_spent epsilon;
  t.steps <- (label, epsilon, delta) :: t.steps;
  t.spent_eps <- t.spent_eps +. epsilon;
  Obs.Ledger.spend ~analyst:t.analyst ~label ~epsilon ~delta
    ~cumulative:t.spent_eps ()

(* One batched release spending [n] identical steps: the composition
   bounds still see [n] analyses (advanced composition's k counts every
   query), but the telemetry records a single spend event — the batch is
   one release. *)
let spend_many t ~epsilon ?(delta = 0.) ~n label =
  if n < 0 then invalid_arg "Dp.Accountant.spend_many: n";
  if epsilon <= 0. then invalid_arg "Dp.Accountant.spend_many: epsilon";
  if delta < 0. || delta >= 1. then invalid_arg "Dp.Accountant.spend_many: delta";
  if n > 0 then begin
    Telemetry.spend ();
    Obs.Gauge.add_scaled Telemetry.epsilon_spent epsilon n;
    for _ = 1 to n do
      t.steps <- (label, epsilon, delta) :: t.steps
    done;
    let total = epsilon *. float_of_int n in
    t.spent_eps <- t.spent_eps +. total;
    Obs.Ledger.spend_many ~analyst:t.analyst ~label ~epsilon ~n ~total
  end

let steps t = List.rev t.steps

let basic t =
  List.fold_left
    (fun (e, d) (_, ei, di) -> (e +. ei, d +. di))
    (0., 0.) t.steps

let advanced t ~delta_slack =
  if delta_slack <= 0. || delta_slack >= 1. then
    invalid_arg "Dp.Accountant.advanced: delta_slack";
  let k = List.length t.steps in
  if k = 0 then (0., 0.)
  else begin
    let eps_max =
      List.fold_left (fun acc (_, e, _) -> Float.max acc e) 0. t.steps
    in
    let delta_sum = List.fold_left (fun acc (_, _, d) -> acc +. d) 0. t.steps in
    let kf = float_of_int k in
    let eps' =
      (Float.sqrt (2. *. kf *. Float.log (1. /. delta_slack)) *. eps_max)
      +. (kf *. eps_max *. (Float.exp eps_max -. 1.))
    in
    (eps', delta_sum +. delta_slack)
  end

let best t ~delta_slack =
  let b = basic t in
  let a = advanced t ~delta_slack in
  if fst a < fst b then a else b
