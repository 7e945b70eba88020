(** Certificate search and exact refutation — untrusted producers for the
    {!Witness} checker.

    {!certify} looks for an alignment by bipartite maximum matching inside
    each output class: source atom ω may align to destination atom t iff
    they induce the same output event and the atomwise mass bound
    [mass_src(ω) ≤ Λ·mass_dst(t)] holds. A greedy pass matches each
    source to its first free candidate, and Kuhn's augmenting paths place
    the rest; the matching is {e complete} (König/Hall, Berge): if any
    valid injective alignment exists for the model, the search finds
    one — so a search failure on a negative control is meaningful, not a
    heuristic giving up. It is the only producer of the witnesses the
    certificate catalog verifies.

    {!refute} is stronger than a failed search when it applies: it
    computes both exact output distributions and exhibits an output event
    whose probability ratio exceeds the claimed bound — a machine-checked
    counterexample to the ε-DP inequality itself (search failure alone
    leaves open that the mechanism is private but not alignment-provable
    at atom granularity).

    Nothing here is trusted: whatever the search returns is re-verified by
    {!Witness.check} before a model is ever reported as certified. *)

type counterexample = {
  output : int;
  direction : Witness.direction;
      (** [A_to_b] means [Pr[A = output] > Λ·Pr[B = output]] *)
  p_src : Q.t;
  p_dst : Q.t;
}

type outcome =
  | Certified of Witness.t * Witness.t
      (** both directions found by search AND re-verified by the trusted
          checker *)
  | Refuted of counterexample
      (** exact pointwise violation of the claimed bound *)
  | No_witness of string
      (** no violation found, but no injective alignment exists at the
          claimed bound in the stated direction *)

val refute : Model.t -> counterexample option
(** The first output event (lowest index, [A_to_b] direction first) whose
    exact probability ratio exceeds the claimed bound, if any. *)

val certify : Model.t -> outcome
(** [refute] first; otherwise align both directions (zero-mass source
    atoms align to themselves) and re-check the found pair with
    {!Witness.check_pair}. *)

val pp_counterexample :
  label:(int -> string) -> Format.formatter -> counterexample -> unit
