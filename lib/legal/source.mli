(** Legal sources: the statutes, regulations and opinions the paper cites,
    as structured, quotable objects. The quotes are the ones reproduced in
    the paper (Sections 1.2 and 2.1); keeping them in the code makes every
    derivation's textual basis inspectable. *)

type t = {
  id : string;  (** short handle, e.g. "GDPR-Rec26" *)
  title : string;
  jurisdiction : string;
  year : int;
  quote : string;  (** the operative passage *)
}

val gdpr_article_17 : t
(** The right to erasure ("right to be forgotten") — the sibling
    legal-technical question the paper's discussion points to. *)

val gdpr_recital_26 : t
(** Anonymous data exemption + "all the means reasonably likely to be used,
    such as singling out". *)

val wp29_personal_data : t
(** Article 29 Working Party Opinion 04/2007 on the Concept of Personal
    Data — singling out as "the possibility to isolate some or all records
    which identify an individual in the dataset". *)

val hipaa_privacy_rule : t

val title_13 : t
(** The US Census confidentiality mandate the 2010 reconstruction puts in
    question. *)

val all : t list
