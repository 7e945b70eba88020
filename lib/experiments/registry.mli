(** Experiment registry: E1..E14 as uniform runnable entries, consumed by
    [pso_audit run] and the golden-table tests. *)

type entry = {
  id : string;
  title : string;
  print : scale:Common.scale -> Prob.Rng.t -> Format.formatter -> unit;
}

val all : entry list
(** In id order, E1..E14. *)

val find : string -> entry option
(** Case-insensitive lookup by id ("e7" or "E7"). *)
