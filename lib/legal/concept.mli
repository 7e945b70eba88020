(** Legal concepts and their implication structure.

    The GDPR's architecture (Section 2.1): data escapes regulation iff it is
    anonymous; anonymity requires that the data subject not be identifiable;
    identifiability must consider "all means reasonably likely to be used,
    such as singling out". This module encodes that chain so derivations in
    {!Theorem} can walk it mechanically. *)

type t =
  | Singling_out  (** isolating records that identify an individual *)
  | Linkability  (** matching records to an identified source *)
  | Inference  (** deducing attributes of an individual *)
  | Identifiability  (** the person "can be identified, directly or indirectly" *)
  | Personal_data
  | Anonymous_data

val name : t -> string

val enables_transitively : t -> t -> bool
(** Reflexive-transitive closure of the direct legal implications:
    [Singling_out], [Linkability] and [Inference] enable
    [Identifiability] (Recital 26), and [Identifiability] makes data
    [Personal_data] (Article 4).
    [Anonymous_data] appears only as the negation target of
    [Personal_data]. *)

val anonymity_requires_preventing : t -> bool
(** Does rendering data anonymous require preventing this means of
    identification? True exactly for the means Recital 26 enumerates as
    "reasonably likely to be used" — singling out, and by WP29's reading
    also linkability and inference. *)
