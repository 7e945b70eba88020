(** Finite restrictions of the production mechanisms, for machine-checked
    certification.

    A coupling (randomness-alignment) certificate of ε-DP can only be
    checked {e exhaustively} on a finite probability space, so each
    mechanism exports a finite restriction: a pair of distributions over a
    shared finite noise-atom space — one per neighboring database — with
    integer (unnormalized) weights, explicit atom→output maps, and the
    claimed privacy-loss bound [e^ε] as an exact rational. Continuous
    noise (Laplace) is discretized to its geometric counterpart and
    truncated cyclically or by folding the tail, at parameters chosen so
    the restriction is {e exactly} ε-DP at the stated bound; the
    certificate checker in [lib/cert] then verifies that claim with no
    floats and no sampling.

    Everything here is data plus an exact integer-weight sampler; the
    trusted checking logic lives in [Cert]. *)

type side = A | B
(** Which neighboring database the mechanism ran on. By convention [A] is
    the larger/changed database (e.g. one extra record). *)

type spec = {
  name : string;
  atoms : int;  (** size of the shared noise-atom space *)
  outputs : int;  (** size of the output-event space *)
  weights_a : int array;
      (** unnormalized atom masses under [A]; length [atoms], all ≥ 0,
          positive total *)
  weights_b : int array;  (** the same under [B] *)
  out_a : int array;  (** atom → output event when run on [A] *)
  out_b : int array;  (** atom → output event when run on [B] *)
  bound_num : int;
  bound_den : int;
      (** the claimed bound [e^ε = bound_num/bound_den ≥ 1], exact *)
  epsilon_label : string;  (** human rendering of ε, e.g. ["eps = ln 2"] *)
  out_label : int -> string;
}

(** {1 Generic builders}

    Parameterized so the deliberately broken negative controls can be
    expressed as the same construction with miscalibrated noise. *)

val counting_pair :
  name:string ->
  alpha:int * int ->
  span:int ->
  bound:int * int ->
  epsilon_label:string ->
  spec
(** Cyclic (wrapped) two-sided geometric perturbation of a count on
    [Z_m], [m = 2·span + 1]: displacement [k ∈ [-span, span]] has weight
    [num^|k| · den^(span-|k|)] for [alpha = num/den < 1], and database
    [A]'s true count is one higher so its outputs are shifted by one,
    cyclically. The wrap makes the restriction {e exactly} ε-DP with
    [e^ε = den/num] (the wrap pair has weight ratio 1) — so the
    certificate passes iff [bound ≥ den/num]. Models [Dp.Laplace.count]
    (discretized) and [Dp.Geometric.count]. *)

val randomized_response_pair :
  name:string -> lambda:int -> bound:int * int -> epsilon_label:string -> spec
(** Two atoms, report-truthfully (weight [lambda = e^ε]) and lie (weight
    1); the neighbors hold opposite true bits, so the output maps are
    swapped. Models {!Randomized_response.respond}. *)

val exponential_pair :
  name:string ->
  base:int ->
  utilities_a:int array ->
  utilities_b:int array ->
  bound:int * int ->
  epsilon_label:string ->
  spec
(** Candidate [c] drawn with weight [base^u(c)] where [base = e^{ε/2}];
    sensitivity-1 utilities, identity output maps. Models
    {!Exponential.select}; the missing-factor-2 control is the same
    construction with [base = e^ε]. *)

(** {1 Production restrictions}

    One per mechanism in the standard audit battery, at small spans so the
    checker's exhaustive enumeration is instant. *)

val laplace_pair : unit -> spec
(** {!counting_pair} at [alpha = 1/2], span 6 — the geometric
    discretization of Laplace counting at [ε = ln 2]. *)

val geometric_pair : unit -> spec
(** {!counting_pair} at [alpha = 1/3], span 5 ([ε = ln 3]). *)

val histogram_pair : unit -> spec
(** Three cells with independent cyclic geometric noise ([alpha = 1/2],
    span 2 each); the extra record lands in cell 0, so only that
    coordinate's outputs shift. Exactly ε-DP at [e^ε = 2] because each
    record touches one cell. Models {!Histogram.noisy}. *)

val randomized_response_spec : unit -> spec
(** {!randomized_response_pair} at [lambda = 3] ([ε = ln 3]). *)

val exponential_spec : unit -> spec
(** {!exponential_pair} at [base = 2] ([ε = 2 ln 2]) with the audit
    battery's sensitivity-1 utility vectors. *)

val noisy_max_pair : unit -> spec
(** Two-candidate noisy max via the {e difference} of the per-score
    noises: a cyclic two-sided geometric delta ([alpha = 1/2], span 4),
    with the utility gap +1 on [A] and -1 on [B] (each score moves by
    one). B's winning window is A's rotated by two, so rotating the noise
    by two is an exact alignment at the report-noisy-max bound
    [(den/num)^2 = 4] ([ε = 2 ln 2]). Models
    {!Noisy_max.select_values}. *)

val sparse_vector_pair : unit -> spec
(** AboveThreshold transcript over three sensitivity-1 queries with
    cyclic two-sided geometric noise ([alpha = 1/2], span 3) on the
    threshold and on each query; the neighbor's extra record satisfies
    every query predicate ([q_a = q_b + 1] coordinatewise), so shifting
    the threshold noise by one preserves the whole transcript exactly —
    an alignment at bound 2 ([ε = ln 2]). Output = index of the first
    above-threshold report or "none". Models {!Sparse_vector.ask}. *)

val subsample_pair : unit -> spec
(** Subsampling amplification at [q = 1/2] over the cyclic geometric
    counting mechanism ([alpha = 1/2], span 4, [e^ε = 2]): the differing
    record's keep-bit is marginalized into the displacement masses, giving
    the amplified bound [1 + q(e^ε - 1) = 3/2] exactly. Models
    {!Subsample.mechanism}. *)

(** {1 Sampling} *)

val sample : Prob.Rng.t -> spec -> side -> int
(** Draw one output event exactly: a uniform integer below the side's
    total weight selects an atom by cumulative weight (no floating point),
    which the side's output map translates to an event. One call consumes
    one [Prob.Rng.int] draw. *)
