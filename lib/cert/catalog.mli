(** The registered certificates: every production mechanism's finite
    restriction, plus the four shared negative controls from
    {!Stattest.Controls} with deliberately false claims.

    No entry carries a witness: {!Search.certify} derives every alignment
    at verification time, and the trusted checker has the last word.
    Because the search is complete, it finds an alignment whenever one
    exists, so a production entry certifies without help and a negative
    control must make it {e fail} (or the exact refuter must exhibit a
    violating event). The proof idea behind each production alignment is
    stated with its restriction in {!Dp.Finite}. *)

type entry = {
  name : string;
  spec : Dp.Finite.spec;
  model : Model.t;
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
