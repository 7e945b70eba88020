(** Synthetic stand-ins for the datasets the paper's narrative relies on.

    We do not have the GIC medical records, the Cambridge voter registration,
    the Netflix Prize data, the 2010 Decennial Census microdata, or the
    commercial databases matched against them. Each generator below produces
    a synthetic dataset reproducing the statistical property the
    corresponding attack depends on (quasi-identifier uniqueness, rating
    sparsity and popularity skew, small-block marginal structure, allele
    frequency spread) — see DESIGN.md's substitution table. *)

(** {1 Demographic population (Sweeney / GIC story)} *)

val disease_hierarchy : Hierarchy.t

val gic_model : ?zips:int -> unit -> Model.t
(** The product model [population] draws each person's [zip],
    [birth_date], [sex] and [disease] from (in that order): Zipf-like ZIP
    sizes over [zips] codes (default 50), birth dates uniform over 23,520
    dates in 1930–1999, and a skewed disease marginal. *)

val population : Prob.Rng.t -> n:int -> ?zips:int -> unit -> Table.t
(** An identified population of [n] people spread over [zips] ZIP codes with
    Zipf-like sizes, birth dates across 1930–1999, and diseases drawn from a
    skewed marginal. Names are unique. *)

val gic_release : Table.t -> Table.t
(** The GIC publication step: drop the [Identifier] columns, keep
    quasi-identifiers and sensitive data verbatim. *)

val voter_list : Prob.Rng.t -> Table.t -> coverage:float -> Table.t
(** The public auxiliary dataset: [name, zip, birth_date, sex] for a random
    [coverage] fraction of the population. *)

(** {1 Product models for the PSO game} *)

val pso_model : attributes:int -> values_per_attribute:int -> Model.t
(** A product data model with [attributes] uniform categorical attributes
    (the first marked quasi-identifier, one sensitive), universe size
    [values_per_attribute ^ attributes]. Used by the PSO game experiments
    where exact predicate weights are needed. *)

val kanon_pso_model : qis:int -> retained:int -> domain:int -> Model.t
(** The data model of the Theorem 2.10 experiments: [qis] quasi-identifier
    attributes plus [retained] insensitive attributes, each uniform over
    [domain] integer values. "Typical datasets include many more attributes
    than the toy example" — enough attributes make the equivalence-class
    predicates' weights negligible. *)

(** {1 Sparse ratings (Netflix story)} *)

type rating = { user : int; movie : int; stars : int; day : int }

val ratings :
  Prob.Rng.t ->
  users:int ->
  movies:int ->
  ratings_per_user:int ->
  rating array
(** Each user rates ~[ratings_per_user] movies chosen from a Zipf(1)
    popularity distribution; stars are 1–5 correlated with a per-movie
    base score; days span ~2 years. *)

val ratings_by_user : rating array -> users:int -> rating array array

(** {1 Census blocks} *)

type census_person = {
  block : int;
  sex : int;  (** 0 = female, 1 = male *)
  age : int;  (** 0–99 *)
  race : int;  (** 0–5, skewed *)
  ethnicity : int;  (** 0/1 *)
  person_name : string;  (** ground-truth identity, never published *)
}

val census_block :
  Prob.Rng.t -> block:int -> mean_block_size:int -> census_person array
(** One block of the census model, drawn entirely from the given
    generator. The block size is geometric around the mean (minimum 1),
    mimicking the small-block regime where reconstruction bites hardest;
    each block has a dominant race and a low or high ethnicity rate, the
    segregation that makes marginal tables nearly determine the joint
    distribution. This is the streaming building block for census-scale
    runs: handing block [b] a dedicated child generator (split
    deterministically from a parent) makes a multi-million-person
    population generable block by block, in any order, with peak memory
    one block; {!Attacks.Census_scale} tabulates and solves each block and
    drops it. Names are unique within a run ([#block-index] suffix). *)

val census_population :
  Prob.Rng.t -> blocks:int -> mean_block_size:int -> census_person array
(** [census_block] of blocks [0 .. blocks - 1], drawn in order from the
    one generator and concatenated — the whole population at once, for
    the block-toy pipeline of {!Attacks.Census}. *)

(** {1 Genotype aggregates (Homer story)} *)

type genotypes = {
  frequencies : float array;  (** population allele frequencies per SNP *)
  pool : bool array array;  (** the study pool, one bool array per person *)
  reference : bool array array;  (** an independent reference cohort *)
  outsiders : bool array array;  (** people in neither, for the null side *)
}

val genotype_study :
  Prob.Rng.t -> people:int -> snps:int -> ?reference_size:int -> unit -> genotypes
