(** A reusable domain pool for coarse-grained data parallelism.

    Built directly on OCaml 5 [Domain]s (no external dependency): a pool
    of [jobs - 1] worker domains blocked on a task queue, with the calling
    domain always participating as the [jobs]-th worker. Work items are
    claimed dynamically from a shared counter, so unevenly sized items
    balance across workers; results are stored by index and combined in
    index order on the caller, which makes every operation's result
    independent of the number of workers.

    Intended granularity is one Monte Carlo trial (or one experiment row)
    per index — milliseconds and up. The per-index overhead (an atomic
    increment and a mutex-guarded counter bump) makes it a poor fit for
    microsecond-scale items.

    Nested bulk operations are safe but degrade: the initiating domain
    always participates in its own operation's work loop, so an inner
    call issued from a worker (or from the caller while an outer
    operation is in flight) completes even when every other worker is
    busy — it just runs with less help, down to sequentially. *)

type t

val max_jobs : int
(** 127: the largest [jobs] a pool accepts. OCaml 5.1 runs at most 128
    domains at once, the main domain included; a pool of [jobs] uses the
    calling domain and [jobs - 1] workers, and one slot stays free for the
    [Obs.Timeline] ticker. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs] defaults to
    [Domain.recommended_domain_count () - 1] with a floor of 1, leaving a
    slot for the calling domain). [jobs = 1] spawns nothing: every operation runs
    sequentially on the caller. Raises [Invalid_argument], before
    spawning anything, unless [1 <= jobs <= max_jobs]. *)

val jobs : t -> int
(** Total parallelism, counting the calling domain. *)

val shutdown : t -> unit
(** Stop and join all workers. Idempotent. Operations on a pool after
    [shutdown] run on the caller alone. *)

val parallel_init_array : t -> int -> (int -> 'a) -> 'a array
(** [parallel_init_array pool n f] is [[| f 0; ...; f (n-1) |]] with the
    calls distributed over the pool. [f] must depend only on its index
    (and thread-safe captured state); with that contract the result is
    identical at every [jobs] count. If any call raises, the first
    recorded exception is re-raised on the caller after all claimed work
    finishes. Raises [Invalid_argument] if [n < 0]. *)

val map_reduce :
  t -> n:int -> map:(int -> 'a) -> combine:('b -> 'a -> 'b) -> init:'b -> 'b
(** [map_reduce pool ~n ~map ~combine ~init] computes [map] over
    [0..n-1] in parallel and folds the results {e in index order on the
    caller}: byte-identical at every [jobs] count even when [combine] is
    only approximately associative (floating-point accumulation). *)

val set_default_jobs : int -> unit
(** Configure the parallelism of {!default}. If a default pool already
    exists at a different size it is shut down and recreated lazily.
    Raises [Invalid_argument] unless [1 <= jobs <= max_jobs]. *)

val default : unit -> t
(** The process-wide shared pool, created on first use with the size from
    {!set_default_jobs} (or the {!create} default) and shut down at exit.
    This is what [Pso.Game.run] and the experiment harness use when not
    handed an explicit pool. *)
