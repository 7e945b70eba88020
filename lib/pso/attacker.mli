(** PSO attackers.

    An attacker observes only the mechanism's output [y] and produces a
    predicate on the {e original} data universe (Section 2.2). The type
    enforces the information flow: no access to the dataset, the schema
    reaching the attacker only through the output itself or through
    parameters fixed before the game. *)

type t = {
  name : string;
  attack : Prob.Rng.t -> Query.Mechanism.output -> Query.Predicate.t;
}

val attack : t -> Prob.Rng.t -> Query.Mechanism.output -> Query.Predicate.t

val fixed_value : attr:string -> Dataset.Value.t -> t
(** The birthday attacker: "is this person born on Apr-30". *)

val hash_bucket : buckets:int -> t
(** A Leftover-Hash-Lemma-style predicate of weight ≈ [1/buckets] with a
    salt drawn fresh from the game's randomness; still data- and
    output-independent. *)

val release_row : unit -> t
(** Against a [Release] table output: pick a released row uniformly and
    output its full-tuple predicate. Defeats verbatim releases (the tuple
    is a real record of negligible weight); against synthetic releases the
    tuple almost surely matches no real record — the E13 contrast. *)
