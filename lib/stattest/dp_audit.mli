(** Empirical ε-DP counterexample auditor.

    Definition 1.2 demands [Pr[M(x) ∈ E] ≤ e^ε · Pr[M(x') ∈ E] + δ] for
    every event [E] and neighboring [x, x']. The auditor fixes an
    adversarially chosen neighboring pair and a finite partition of the
    output space into events, estimates both event distributions by Monte
    Carlo, and certifies a violation only when the Clopper–Pearson
    {e lower} bound on the numerator exceeds [e^ε] times the
    Clopper–Pearson {e upper} bound on the denominator (plus δ), with
    Bonferroni correction across events — so a reported counterexample is
    statistically sound at the stated confidence, not sampling noise.

    The converse does not hold (passing is evidence, not proof — the trial
    budget bounds the detectable excess privacy loss), which is why the
    battery ships deliberately broken variants ({!broken}) demonstrating
    the auditor's power: a mechanism at half the required noise scale, or
    with a dropped factor of 2, is reliably flagged at the default trial
    count.

    Trials fan out over a {!Parallel.Pool.t} with one child generator per
    trial ({!Parallel.Trials.map}), so reports are byte-identical at every
    [--jobs] count for a fixed seed. *)

type case = {
  name : string;
  epsilon : float;  (** claimed privacy parameter *)
  delta : float;  (** claimed δ (0 for pure ε-DP) *)
  events : int;  (** size of the output-event partition *)
  label : int -> string;  (** human name of an event *)
  sample_a : Prob.Rng.t -> int;  (** run the mechanism on x, map to event *)
  sample_b : Prob.Rng.t -> int;  (** the same on the neighbor x' *)
  broken : bool;  (** negative control: auditor is expected to flag it *)
}

type direction = A_over_b | B_over_a

type violation = {
  event : int;
  event_label : string;
  direction : direction;
  log_ratio_lower : float;
      (** CI-corrected lower bound on [ln((p_num − δ) / p_den)]; a
          violation has this [> epsilon] *)
  numerator_ci : float * float;
  denominator_ci : float * float;
}

type report = {
  case_name : string;
  epsilon : float;
  delta : float;
  trials : int;
  confidence : float;
  counts_a : int array;
  counts_b : int array;
  max_log_ratio_lower : float;
      (** largest certified lower bound on the privacy loss across all
          events and both directions ([neg_infinity] when nothing is
          measurable); an ε-DP mechanism keeps this [<= epsilon] *)
  violations : violation list;
}

val run :
  ?pool:Parallel.Pool.t ->
  ?confidence:float ->
  ?trials:int ->
  Prob.Rng.t ->
  case ->
  report
(** Defaults: the shared pool, [confidence = 0.9999] (split across events
    by Bonferroni), [trials = 60_000] per neighbor. The generator advances
    by exactly [trials] splits regardless of the pool size. Raises
    [Invalid_argument] if [trials <= 0] or a sampler returns an event
    outside [0, events). *)

val passed : report -> bool
(** No violations found. *)

val standard : unit -> case list
(** One case per [lib/dp] mechanism at its claimed ε: laplace, gaussian,
    geometric, exponential, randomized_response, noisy_max, sparse_vector,
    histogram, tree. All are expected to pass. *)

val broken : unit -> case list
(** [List.map case_of_control Controls.all] — the four deliberately
    miscalibrated variants the auditor must flag: half-scale Laplace
    noise, geometric noise at triple ε, the exponential mechanism without
    its factor-2 denominator, and randomized response at double ε. *)

val all : unit -> case list
(** [standard () @ broken ()]. *)

val find : string -> case option
(** Case lookup by name (case-insensitive). *)

val pp_report : Format.formatter -> report -> unit
