type algorithm = Mondrian | Datafly | Samarati | Incognito

type config = {
  algorithm : algorithm;
  k : int;
  scheme : Generalization.scheme;
  max_suppression : float;
  recoding : Mondrian.recoding;
}

let algorithm_name = function
  | Mondrian -> "mondrian"
  | Datafly -> "datafly"
  | Samarati -> "samarati"
  | Incognito -> "incognito"

let c_calls = Obs.Counter.make "kanon.anonymize_calls"
let c_suppressed = Obs.Counter.make "kanon.suppressed_cells"

let count_suppressed gtable =
  let n = ref 0 in
  for i = 0 to Dataset.Gtable.nrows gtable - 1 do
    Array.iter
      (fun v -> if Dataset.Gvalue.is_suppressed v then incr n)
      (Dataset.Gtable.row gtable i)
  done;
  !n

let anonymize config table =
  Obs.Counter.incr c_calls;
  let release =
    Obs.with_span "kanon.anonymize"
      ~args:[ ("algorithm", algorithm_name config.algorithm) ]
      (fun () ->
        match config.algorithm with
        | Mondrian ->
          Mondrian.anonymize ~hierarchies:config.scheme
            ~recoding:config.recoding ~k:config.k table
        | Datafly ->
          (Datafly.anonymize ~scheme:config.scheme ~k:config.k
             ~max_suppression:config.max_suppression table)
            .Datafly.release
        | Samarati ->
          (Samarati.anonymize ~scheme:config.scheme ~k:config.k
             ~max_suppression:config.max_suppression table)
            .Samarati.release
        | Incognito ->
          (Incognito.anonymize ~scheme:config.scheme ~k:config.k table)
            .Incognito.release)
  in
  if Obs.enabled () || Obs.Ledger.enabled () then begin
    let cells = count_suppressed release in
    Obs.Counter.add c_suppressed cells;
    Obs.Ledger.suppression ~analyst:Obs.Ledger.ambient_analyst
      ~source:(algorithm_name config.algorithm) ~cells
      ~rows:(Dataset.Gtable.nrows release)
  end;
  release

let is_k_anonymous ~k gtable =
  let qis =
    Dataset.Schema.with_role (Dataset.Gtable.schema gtable)
      Dataset.Schema.Quasi_identifier
  in
  let qis =
    if qis = [] then Dataset.Schema.names (Dataset.Gtable.schema gtable) else qis
  in
  (* Fully suppressed rows are withheld from the release semantics — they
     cannot violate k-anonymity however few of them there are. *)
  let suppressed i =
    Array.for_all Dataset.Gvalue.is_suppressed (Dataset.Gtable.row gtable i)
  in
  Dataset.Gtable.classes_on gtable qis
  |> List.for_all (fun c ->
         let live =
           Array.to_list c.Dataset.Gtable.members
           |> List.filter (fun i -> not (suppressed i))
         in
         live = [] || List.length live >= k)

let mechanism config =
  {
    Query.Mechanism.name =
      Printf.sprintf "%s[k=%d]" (algorithm_name config.algorithm) config.k;
    run = (fun _rng table -> Query.Mechanism.Generalized (anonymize config table));
  }
