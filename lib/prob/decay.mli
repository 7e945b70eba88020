(** Empirical negligibility classification.

    The paper's security definitions quantify over "negligible functions of
    n" — functions decaying faster than any inverse polynomial. Experiments
    can only sample finitely many n, so we fit measured success probabilities
    against n and classify the decay shape. This makes the asymptotic
    statements of Theorems 2.5–2.10 observable: a PSO-secure mechanism's
    attack success should decay at least polynomially in n (within the model
    it decays like ~n·w(n)), while a broken mechanism's success plateaus. *)

type shape =
  | Plateau of float  (** success stabilizes near a positive constant *)
  | Polynomial_decay of float  (** success ≈ c · n^(-k); carries exponent k *)
  | Below_resolution  (** all measurements are ~0 at the sampled trial counts *)

val classify : (int * float) array -> shape
(** [classify points] fits [(n, success)] measurements. Requires at least two
    distinct [n]; raises [Invalid_argument] otherwise. Points with success
    [<= 0] are treated as at the Monte-Carlo resolution floor. *)

val to_string : shape -> string
