(* Shared telemetry handles for the DP mechanisms.

   Every mechanism routes its randomness through [noise] / [noise_int] /
   [coin], so "dp.noise_draws" counts privacy-relevant random draws and
   the "dp.noise_magnitude" sketch records their absolute size: its
   count and quantiles in the final timeline point show how much noise a
   run actually drew against the scale its ε calls for. Both are
   deterministic across --jobs: the per-trial RNG fan-out makes each
   trial draw the same noise no matter which domain runs it. Counter and
   sketch handles are idempotent by name, so the Laplace-counts
   mechanism in lib/query shares the same accounting.

   Call sites that know which mechanism they are and at what scale pass
   [?mechanism]/[?scale], which additionally journals the draw as an
   audit-ledger "noise" event (ambient analyst); unlabeled draws are
   counted but not journaled. *)

let draws = Obs.Counter.make "dp.noise_draws"

let magnitude = Obs.Sketchm.make "dp.noise_magnitude"

let spends = Obs.Counter.make "dp.accountant_spends"

(* Total ε recorded by accountants (and the noisy curator), exported in
   every metrics view; a gauge so the cross-domain merge stays exact. *)
let epsilon_spent = Obs.Gauge.make "dp.epsilon_spent"

let ledger_noise ?mechanism ?scale n =
  match (mechanism, scale) with
  | Some m, Some s when n > 0 ->
    Obs.Ledger.noise ~analyst:Obs.Ledger.ambient_analyst ~mechanism:m ~scale:s
      ~n
  | _ -> ()

let noise ?mechanism ?scale x =
  Obs.Counter.incr draws;
  Obs.Sketchm.observe magnitude (Float.abs x);
  ledger_noise ?mechanism ?scale 1;
  x

let noise_int ?mechanism ?scale k =
  Obs.Counter.incr draws;
  Obs.Sketchm.observe magnitude (Float.abs (float_of_int k));
  ledger_noise ?mechanism ?scale 1;
  k

(* Draws whose magnitude is meaningless (a Bernoulli flip, an exponential-
   mechanism selection): counted, not sketched. *)
let coin v =
  Obs.Counter.incr draws;
  v

(* Draws sampled through the bulk (vectorized) path — Bulk and the batched
   mechanisms. A subset of "dp.noise_draws", split out so the trajectory
   of batch adoption is visible in the obs report. *)
let bulk = Obs.Counter.make "dp.bulk_samples"

(* Telemetry for a whole noise vector at once: per-sample magnitudes (so
   the noise-magnitude quantiles cover bulk draws too), one counter add
   per batch. The enabled check hoists out of the magnitude pass —
   per-sample [noise] pays a no-op call per draw, but a bulk vector
   shouldn't pay a second full pass just to record nothing. *)
let noise_many ?mechanism ?scale xs =
  if Obs.enabled () then begin
    Array.iter (fun x -> Obs.Sketchm.observe magnitude (Float.abs x)) xs;
    Obs.Counter.add draws (Array.length xs);
    Obs.Counter.add bulk (Array.length xs)
  end;
  ledger_noise ?mechanism ?scale (Array.length xs);
  xs

let noise_many_int ?mechanism ?scale ks =
  if Obs.enabled () then begin
    Array.iter
      (fun k -> Obs.Sketchm.observe magnitude (Float.abs (float_of_int k)))
      ks;
    Obs.Counter.add draws (Array.length ks);
    Obs.Counter.add bulk (Array.length ks)
  end;
  ledger_noise ?mechanism ?scale (Array.length ks);
  ks

let spend () = Obs.Counter.incr spends
