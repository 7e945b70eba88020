(** The four deliberately broken mechanisms used as negative controls.

    Every layer that claims to have power against non-private mechanisms —
    the statistical auditor ({!Dp_audit}), the certificate search
    ([Cert.Search]), the [pso_audit certify] / [dpcheck] CLIs, and the CI
    gates — must be exercised against the {e same} four defects. This
    module is the single declaration of those defects; the auditor builds
    its sampling cases from it and the certificate catalog builds its
    finite restrictions from it, so a control can't silently drift between
    layers. *)

type kind =
  | Laplace_half_scale
      (** Laplace counting query run at half the required noise scale:
          claims ε but delivers 2ε. *)
  | Geometric_triple_epsilon
      (** Geometric perturbation with [alpha = exp (-3 ε)]: three times
          the claimed privacy loss. *)
  | Exponential_missing_half
      (** Exponential mechanism weighting by [exp (ε u)] instead of
          [exp (ε u / 2)]: the textbook missing factor of two. *)
  | Randomized_response_double_epsilon
      (** Randomized response biased as if ε were doubled. *)

type spec = {
  name : string;  (** Stable CLI / registry identifier, e.g. ["broken-laplace"]. *)
  kind : kind;
  claimed_epsilon : float;  (** The ε the mechanism advertises. *)
  actual_epsilon : float;
      (** The ε it actually satisfies (always > [claimed_epsilon]). *)
}

val all : spec list
(** The four controls, in the order the auditor registers them. *)
