(** An interactive curator: the stateful query-answering server the
    reconstruction story is about.

    The curator holds a table with a designated binary {e target} attribute
    (the paper's [x_i ∈ {0,1}] — "is person i diabetic") and answers
    Dinur–Nissim-style subpopulation counts: a query selects a
    subpopulation (a predicate, or row indices directly) and the answer is
    the number of selected records with the target trait.

    Policies are the defenses the Fundamental Law leaves open, plus the
    undefended baseline:

    - [Exact]: answer truthfully, forever (blatantly non-private);
    - [Limited]: answer truthfully up to a query budget, then refuse;
    - [Audited]: answer truthfully unless some individual's target bit
      would be exactly determined (sound for exact disclosure, still
      approximately reconstructable — see the tests);
    - [Noisy]: ε-per-query Laplace answers under a total budget tracked by
      a privacy accountant; refuse once the budget is spent. *)

type policy =
  | Exact
  | Limited of int  (** maximum number of answered queries *)
  | Audited
  | Noisy of { per_query_epsilon : float; total_epsilon : float }

type t

type reply =
  | Answer of float
  | Refusal of string  (** human-readable reason *)

val create :
  ?analyst:string ->
  ?rng:Prob.Rng.t ->
  policy:policy ->
  target:string ->
  Dataset.Table.t ->
  t
(** [target] must name an attribute whose values are all [Int 0]/[Int 1]
    or booleans; raises [Invalid_argument] otherwise, or on nonpositive
    [Noisy] budgets or [Limited] counts. The default [rng] is freshly
    seeded (deterministic).

    [analyst] is the audit-ledger session id under which this curator's
    queries, refusals and budget spends are journaled; it defaults to a
    deterministic fresh id ({!Obs.Ledger.fresh_analyst}) when the ledger
    is enabled. When the ledger is on, creation opens the analyst's
    session — analyst ids must therefore be unique per run. *)

val ask : t -> Predicate.t -> reply
(** Count of target-positive records in the subpopulation satisfying the
    predicate. *)

val ask_subset : t -> int array -> reply
(** The same with the subpopulation given as row indices — the literal
    Theorem 1.1 interface. Raises [Invalid_argument] on out-of-range
    indices. *)

val ask_many : t -> Predicate.t array -> reply array
(** Batched {!ask}: subpopulations are extracted in one shared columnar
    pass ({!Predicate.bits_many}), then answered sequentially in index
    order, so replies — including budget exhaustion, audit refusals and
    noise draws — are exactly those of [Array.map (ask t)]. *)

val answered : t -> int

val refused : t -> int

val spent_epsilon : t -> float
(** Privacy budget consumed so far ([0.] for non-noisy policies). *)

val remaining_epsilon : t -> float option
(** [None] for non-noisy policies. *)
