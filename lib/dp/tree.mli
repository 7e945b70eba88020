(** The hierarchical (binary-tree) mechanism for range counts.

    The Fundamental Law says accurate answers to {e many} queries destroy
    privacy; this mechanism shows how far careful noise placement stretches
    a fixed budget. Over an ordered domain of m cells it perturbs the full
    dyadic tree of interval counts once (ε split across the ~log m levels);
    any of the m(m+1)/2 range queries is then answered from at most
    2·log m noisy nodes, for per-query error O((log m)^{1.5}/ε) — versus
    O(√m/ε) when summing per-cell noisy counts, and versus a fresh budget
    per query for the naive interactive approach. *)

type t

val build : Prob.Rng.t -> epsilon:float -> int array -> t
(** [build rng ~epsilon histogram] perturbs the dyadic tree over the given
    per-cell counts. The whole structure is ε-DP (each record appears in
    one node per level; the budget is split evenly across levels). Raises
    [Invalid_argument] if [epsilon <= 0] or the histogram is empty. *)

val cells : t -> int

val range : t -> lo:int -> hi:int -> float
(** Noisy count of the inclusive cell range [lo..hi], assembled from the
    canonical dyadic cover. Raises [Invalid_argument] on an invalid
    range. *)

val total : t -> float
(** The root's noisy count. *)
