(** The registered certificates: every production mechanism's finite
    restriction with its witness source, plus the four shared negative
    controls from {!Stattest.Controls} with deliberately false claims.

    Production entries either carry a {e handwritten} witness pair (the
    explicit shift coupling, stated in code so a reader can audit the
    proof idea) or are marked {e derived}, meaning the complete matching
    search produces the witness at verification time. Either way the
    trusted checker has the last word. Negative entries are always
    derived: the point is that the complete search must {e fail} (or the
    exact refuter must exhibit a violating event) on each of them. *)

type witness_source =
  | Handwritten of Witness.t * Witness.t
      (** explicit alignment pair, [A_to_b] then [B_to_a] *)
  | Derived  (** produced by {!Search.certify} at verification time *)

type entry = {
  name : string;
  spec : Dp.Finite.spec;
  model : Model.t;
  witness : witness_source;
  negative : bool;
      (** negative control: verification must {e reject} this entry *)
  note : string;  (** one-line description of the finite restriction *)
}

val production : unit -> entry list
(** The 8 mechanisms of the standard audit battery: laplace, geometric,
    randomized_response, histogram, noisy_max, sparse_vector, exponential,
    subsample. *)

val all : unit -> entry list
(** [production () @ controls ()]. *)

val find : string -> entry option
