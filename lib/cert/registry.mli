(** Verdicts over the whole certificate catalog, the stable verdict
    table behind [pso_audit certify], and the tampered-certificate
    suite.

    A row is {e ok} when the entry met its expectation: a production
    mechanism verified CERTIFIED, a negative control REJECTED (refuted
    by the exact output-distribution check, or shown to admit no
    injective alignment by the complete search). The rendered table is
    deterministic text — no floats, no randomness, no parallelism — so
    it is registered as a golden snapshot alongside the experiment
    tables. *)

type verdict =
  | Certified of Witness.t * Witness.t
      (** checker-verified alignment pair; for handwritten entries the
          shipped pair, for derived entries the one the search found *)
  | Refuted of Search.counterexample
      (** exact pointwise violation of the claimed bound *)
  | No_alignment of string
      (** complete search exhausted without an injective alignment *)
  | Invalid_witness of Witness.failure list
      (** a handwritten witness failed the checker *)

type row = { entry : Catalog.entry; verdict : verdict }

val verify : Catalog.entry -> verdict

val verify_all : unit -> row list
(** {!Catalog.all} in catalog order. *)

val all_ok : row list -> bool

val render_table : row list -> string
(** The [pso_audit certify] verdict table, byte-stable. *)

(** {1 Tamper suite}

    Each tamper takes a verified certificate of a production entry and
    corrupts it in a way that is invalid {e by construction} (alignment
    into a different output class, two support atoms collided onto one
    target, an out-of-range target); the checker must reject every one.
    Exercised by tests and by the CI smoke step. *)

type tamper_result = {
  entry_name : string;
  tamper : string;  (** which corruption was applied *)
  rejected : bool;  (** the checker refused the tampered witness *)
}

val tamper_suite : unit -> tamper_result list
(** All applicable tampers across the certified production entries;
    every [rejected] must be [true]. *)
