(** Predicates over records.

    This is the paper's object of study: the attacker's output is a
    predicate [p : X -> {0,1}] (Section 2.1, interpreting "a collection of
    attributes" as a truth-valued function on records). Predicates are
    represented as a small AST so that their weight under a product data
    model can be computed analytically — a Monte-Carlo estimate can never
    certify that a weight is negligible. *)

type atom =
  | Eq of string * Dataset.Value.t  (** attribute equals a value *)
  | Member of string * Dataset.Value.t list  (** attribute in a finite set *)
  | Range of string * float * float
      (** numeric view of the attribute in [lo, hi) (dates via ordinal) *)
  | Fits of string * Dataset.Gvalue.t
      (** attribute falls under a generalized value — the bridge from
          k-anonymized releases to predicates *)
  | Hash_bucket of { buckets : int; bucket : int; salt : int64 }
      (** the whole record hashes into a given bucket: the
          Leftover-Hash-Lemma-style predicate of prescribed weight
          [1/buckets] used throughout Section 2 *)
  | Hash_bit of { index : int; salt : int64 }
      (** one bit of the record's 64-bit digest — the unit of information
          the Theorem 2.8 attacker extracts per count query *)

type t =
  | True
  | False
  | Atom of atom
  | Not of t
  | And of t * t
  | Or of t * t

val conj : t list -> t
(** Conjunction of a list ([True] for the empty list). *)

val of_grow : Dataset.Schema.t -> Dataset.Gtable.grow -> t
(** The predicate "this record falls under every cell of this generalized
    row" — the equivalence-class predicate of Theorem 2.10's proof. *)

val encode_row : Dataset.Table.row -> string
(** Canonical serialization of a record, the input to the hash atoms.
    Injective on rows of a fixed schema. *)

val eval : Dataset.Schema.t -> t -> Dataset.Table.row -> bool
(** Raises [Not_found] if an atom names an attribute absent from the
    schema. *)

val count : Dataset.Schema.t -> t -> Dataset.Table.t -> int
(** [Σᵢ p(xᵢ)] — the count-query answer for this predicate: compiles [p]
    and runs the word machine on a batch of one ({!count_compiled}).
    Charges [query.predicate_evals] with the table's row count. Equal to
    {!count_interpreted} on every input (property-tested). *)

val isolates : Dataset.Schema.t -> t -> Dataset.Table.t -> bool
(** Definition 2.1: [p] isolates in [x] iff it holds for exactly one
    record. [count] compared with 1. *)

(** {1 Compiled engine}

    [compile] resolves each atom's attribute name to its schema index
    once and linearizes the connectives into a postfix program over the
    resolved atoms. There is one compiled evaluator, a word machine over
    a batch of programs; a single query is a batch of one. Each distinct
    atom materializes a {!Bitset.t} over the table's rows with a
    specialized columnar evaluation: per-value tests (Eq/Member/Fits) run
    once per distinct dictionary value, Range scans a flat float array,
    hash atoms read a memoized per-salt digest column. Each operator then
    runs as one word-wise loop into a reusable scratch array, and a count
    fuses the root connective into the popcount, so it never allocates
    its row set.

    Atom bitsets and digest columns are memoized in a bounded domain-local
    cache keyed by [Table.id] and the resolved atom — derived tables get
    fresh ids, so stale hits are impossible by construction. The cache
    keeps 4 tables in MRU order and at least 512 atoms per table; a batch
    with more distinct atoms grows the bound to fit (up to a fixed
    ceiling), so a large batch does not thrash it. *)

type compiled

val compile : Dataset.Schema.t -> t -> compiled
(** Raises [Not_found] if an atom names an attribute absent from the
    schema — eagerly, unlike the interpreter, which only faults when row
    evaluation actually reaches the atom. *)

val count_compiled : ?cache:bool -> compiled -> Dataset.Table.t -> int
(** The compiled count of one predicate: {!count_many} on a batch of one.
    [cache] (default [true]) controls the
    domain-local atom bitset cache; with [~cache:false] every atom
    rematerializes. *)

val bits : ?cache:bool -> compiled -> Dataset.Table.t -> Bitset.t
(** The rows satisfying the predicate, as a bitset of length
    [Table.nrows]: {!bits_many} on a batch of one. [cache] as in
    {!count_compiled}. *)

val count_interpreted : Dataset.Schema.t -> t -> Dataset.Table.t -> int
(** The reference row-by-row interpreter ({!eval} on every row). No
    workload runs it: it is what the tests and the perf gates check the
    compiled evaluator against. *)

(** {2 Batched evaluation}

    The attacks never ask one query: reconstruction, the PSO composition
    game and the dpcheck audits each evaluate hundreds to thousands of
    predicates against one table. A batch fetches the columnar view
    once, hash-conses every distinct atom across the whole batch and
    materializes it exactly once, and evaluates each distinct program
    once, fanning its answer out to every slot that asked it. The
    table-independent half of that work is memoized per compiled array
    (by physical identity), since callers replay one array run after
    run.

    Results equal the interpreter's on every input (property-tested). *)

val count_many : ?cache:bool -> Dataset.Table.t -> compiled array -> int array
(** [count_many table cs] is [Array.map (fun c -> count_compiled c table) cs],
    computed with one shared scan. [cache] as in {!count_compiled}. *)

val isolates_many :
  ?cache:bool -> Dataset.Table.t -> compiled array -> bool array
(** Batched Definition 2.1: [count_many] compared with 1. *)

val bits_many : ?cache:bool -> Dataset.Table.t -> compiled array -> Bitset.t array
(** Batched {!bits}: one freshly allocated row set per distinct predicate
    (duplicate slots share it), sharing atom materialization across the
    batch. *)

(** {1 Weight} *)

type weight =
  | Exact of float  (** computed analytically from the model's marginals *)
  | Salted of float
      (** exact in expectation over the hash salt (hash atoms present);
          concentrates tightly for the salts used in practice *)
  | Estimated of { value : float; trials : int }  (** Monte-Carlo fallback *)

val weight_value : weight -> float

val weight : ?rng:Prob.Rng.t -> ?trials:int -> Dataset.Model.t -> t -> weight
(** [weight model p] is [w_D(p)] (Section 2.2). Conjunctions of
    per-attribute atoms (optionally with hash atoms) are computed
    analytically; other shapes fall back to Monte-Carlo with [trials]
    samples (default 20_000) using [rng] (default a fixed seed). *)

val to_string : t -> string

val digest : t -> string
(** A stable 16-hex-digit identifier (salted 64-bit hash of
    {!to_string}) used to reference predicates in audit-ledger events. *)
