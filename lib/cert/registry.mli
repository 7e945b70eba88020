(** Verdicts over the whole certificate catalog, the stable verdict
    table behind [pso_audit certify], and the tampered-certificate
    suite.

    Every verdict is the {!Search.outcome} of the complete alignment
    search on the entry's model: the search is the only witness producer,
    and {!Witness.check_pair} re-verifies whatever it finds. A row is
    {e ok} when the entry met its expectation: a production
    mechanism verified CERTIFIED, a negative control REJECTED (refuted
    by the exact output-distribution check, or shown to admit no
    injective alignment by the complete search). The rendered table is
    deterministic text — no floats, no randomness, no parallelism — so
    it is registered as a golden snapshot alongside the experiment
    tables. *)

type row = { entry : Catalog.entry; verdict : Search.outcome }

val verify : Catalog.entry -> Search.outcome
(** [Search.certify] on the entry's model. *)

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
