(** Executable statements of the paper's technical theorems.

    Each function runs a scaled-down but faithful instantiation of a
    theorem's construction and returns a {!verdict}: the claim, what the
    theorem predicts, what was measured, and whether the measurement is
    consistent with the prediction. These verdicts are the {e technical
    premises} the legal layer (Section 2.4) builds legal theorems from —
    and they are exactly what makes the claims falsifiable: a verdict that
    fails to hold would refute the corresponding modeling. *)

type verdict = {
  id : string;  (** e.g. "Theorem 2.10" *)
  title : string;
  statement : string;  (** the paper's claim, paraphrased *)
  expectation : string;  (** the quantitative prediction tested *)
  measured : (string * float) list;
  holds : bool;
}

type params = {
  n : int;  (** dataset size per game trial *)
  trials : int;  (** Monte-Carlo trials per game *)
  weight_exponent : float;  (** negligible-weight stand-in: bound = n^-c *)
}

val dp_prevents_pso : ?params:params -> Prob.Rng.t -> verdict
(** Theorem 2.9: the same attacker against ε-DP noisy counts fails. *)

val kanon_fails : ?params:params -> Prob.Rng.t -> verdict
(** Theorem 2.10 + Cohen: greedy attacker ≈ 37% on class-level releases;
    released-unique attacker ≈ 100% on member-level releases. *)

val all : ?params:params -> Prob.Rng.t -> verdict list
(** Every check, in paper order: Theorem 1.3 (Laplace counts on
    neighbouring datasets differ by at most [e^ε] per bin), 2.5 ([M#q]
    prevents PSO), 2.6 (post-processing [M#q] keeps it so), 2.7 (the pad
    construction: secure marginals, broken composition), 2.8 (composing
    ω(log n) counts enables PSO), then {!dp_prevents_pso} and
    {!kanon_fails}. [params] defaults to [n = 150], [trials = 200],
    [c = 2], sized so the battery runs in seconds. *)

val pp : Format.formatter -> verdict -> unit
