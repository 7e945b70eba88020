(** Facade for the singling-out library.

    Re-exports every sub-library under one namespace and provides the
    one-call audit entry points. Downstream users can depend on [core]
    alone. *)

val version : string

(** {1 Re-exports} *)

module Prob = Prob
module Linalg = Linalg
module Dataset = Dataset
module Query = Query
module Dp = Dp
module Kanon = Kanon
module Attacks = Attacks
module Pso = Pso
module Legal = Legal

(** {1 Utilities} *)

module Json = Json
module Obs = Obs

(** {1 One-call audits} *)

module Audit : sig
  type finding = {
    attacker : string;
    outcome : Pso.Game.outcome;
  }

  val standard_attackers : n:int -> weight_exponent:float -> Pso.Attacker.t list
  (** The attacker battery run against arbitrary mechanisms: the heavy
      weight-[1/n] baseline (its isolations don't count but calibrate the
      37% line), a negligible-weight trivial attacker, the release-row
      attacker (for [Release] outputs), and both k-anonymity attackers
      (each no-ops on output shapes it does not understand). *)

  val mechanism :
    Prob.Rng.t ->
    model:Dataset.Model.t ->
    n:int ->
    trials:int ->
    ?weight_exponent:float ->
    Query.Mechanism.t ->
    finding list
  (** Run the standard battery; [weight_exponent] (default 2.) sets the
      negligible-weight stand-in [n^-c]. *)

  val worst_success : finding list -> float
  (** The highest PSO success across the battery — the headline number. *)
end
