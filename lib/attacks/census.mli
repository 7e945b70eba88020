(** Census tabulations and the identified data an attacker links them to
    (Garfinkel–Abowd–Martindale 2018; Abowd 2019 — the paper's account of
    the 2010 Decennial Census reconstruction, Section 1).

    This module is the publication side of the pipeline: (1) block-level
    marginal tables from confidential microdata, optionally republished
    with differential-privacy noise, and (3) an identified "commercial"
    database. The attack itself — (2) reconstructing each block's
    microdata from its tables and (4) re-identifying and confirming
    against the truth — lives in {!Census_scale}, whose box solver serves
    both E10's whole-population run and E14's streamed one. The absolute
    rates depend on the synthetic population; the shape — most records
    reconstructed nearly exactly, a large minority of the population
    re-identified, orders of magnitude above the agency's prior risk
    estimate — is the claim being reproduced. *)

(** {1 Publication} *)

type published = {
  block : int;
  total : int;
  age_histogram : (int * int) list;  (** (age, count), exact single years *)
  sex_by_bucket : ((int * int) * int) list;  (** ((sex, age/10), count) *)
  race_eth : ((int * int) * int) list;  (** ((race, ethnicity), count) *)
}

val tabulate : Dataset.Synth.census_person array -> published array
(** One table set per block id (dense from 0 to max block). Single pass over
    the population. *)

val tabulate_block : block:int -> Dataset.Synth.census_person array -> published
(** Tables for one block's members — the streaming unit: generate a block
    with {!Dataset.Synth.census_block}, tabulate it, drop the microdata.
    [tabulate] over a full population yields exactly [tabulate_block] of
    each block's members. *)

val protect : Prob.Rng.t -> epsilon:float -> published array -> published array
(** The post-2010 fix, in miniature: republish every table with two-sided
    geometric noise (ε split across the four table families; noisy counts
    clamped at zero, empty cells dropped, the full value domains noised so
    cell presence itself is protected). The reconstruction pipeline accepts
    the noisy tables unchanged — and E10's ablation shows what happens to
    its accuracy. *)

(** {1 Re-identification} *)

type commercial = { c_name : string; c_block : int; c_sex : int; c_age : int }

val commercial_db :
  Prob.Rng.t ->
  Dataset.Synth.census_person array ->
  coverage:float ->
  age_error_rate:float ->
  commercial array
(** An identified database covering a [coverage] fraction of the population,
    with ages off by ±1 for an [age_error_rate] fraction — modelling 2010-era
    commercial data quality. *)
