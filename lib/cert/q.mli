(** Exact rational arithmetic for the certificate checker's trusted core.

    Every quantity the checker reasons about — noise-atom masses, the
    claimed privacy-loss bound [e^ε], output-event probabilities — is a
    rational number represented exactly as a reduced fraction of OCaml
    native integers. No floating point enters any comparison: a
    certificate verdict is a statement about integers.

    Overflow is a soundness hazard, not a performance concern, so every
    integer operation is checked: any intermediate that would exceed the
    native range raises {!Overflow}, and the checker treats that as a
    verification {e failure} (a certificate that cannot be checked exactly
    is rejected, never waved through). The finite restrictions shipped in
    {!Catalog} keep all intermediates far below the 63-bit limit. *)

type t
(** A rational, always reduced, denominator always positive. *)

exception Overflow
(** Raised when an exact operation would exceed native-integer range. *)

val zero : t

val one : t

val of_int : int -> t

val make : int -> int -> t
(** [make num den] is [num/den] reduced. Raises [Invalid_argument] if
    [den = 0]. *)

val num : t -> int

val add : t -> t -> t

val mul : t -> t -> t

val div : t -> t -> t
(** Raises [Division_by_zero] on a zero divisor. *)

val neg : t -> t

val compare : t -> t -> int
(** Exact comparison by checked cross-multiplication. *)

val equal : t -> t -> bool

val leq : t -> t -> bool

val lt : t -> t -> bool

val sign : t -> int
(** [-1], [0] or [1]. *)

val to_string : t -> string
(** ["num/den"], or just ["num"] when the denominator is 1. Never a
    float rendering. *)
