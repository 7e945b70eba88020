type t = {
  generated_for : string;
  verdicts : Pso.Theorems.verdict list;
  theorems : Theorem.t list;
  comparison : Wp29.row list;
}

let find verdicts id =
  match
    List.find_opt (fun v -> v.Pso.Theorems.id = id) verdicts
  with
  | Some v -> v
  | None ->
    invalid_arg (Printf.sprintf "Report: missing verdict for %S" id)

let of_verdicts ?(context = "synthetic audit") verdicts =
  let count = find verdicts "Theorem 2.5" in
  let composed = find verdicts "Theorem 2.8" in
  let dp = find verdicts "Theorem 2.9" in
  let kanon = find verdicts "Theorem 2.10" in
  let kanon_theorems =
    List.concat_map
      (fun variant ->
        [
          Theorem.kanon_fails_gdpr ~variant kanon;
          Theorem.kanon_fails_anonymization ~variant kanon;
        ])
      [ Technology.K_anonymity; Technology.L_diversity; Technology.T_closeness ]
  in
  {
    generated_for = context;
    verdicts;
    theorems =
      Theorem.raw_release_fails
      :: (kanon_theorems
         @ [
             Theorem.dp_necessary_condition dp;
             Theorem.count_release_caveat count composed;
           ]);
    comparison = Wp29.comparison ~kanon ~dp;
  }

let build ?context rng params =
  of_verdicts ?context (Pso.Theorems.all ~params rng)

let pp fmt t =
  Format.fprintf fmt "=== Legal-technical audit: %s ===@.@." t.generated_for;
  Format.fprintf fmt "--- Technical verdicts (empirically checked) ---@.";
  List.iter (fun v -> Format.fprintf fmt "%a@." Pso.Theorems.pp v) t.verdicts;
  Format.fprintf fmt "--- Legal theorems ---@.";
  List.iter (fun th -> Format.fprintf fmt "%a@." Theorem.pp th) t.theorems;
  Format.fprintf fmt "--- Article 29 Working Party comparison (Section 2.4.3) ---@.";
  Wp29.pp_table fmt t.comparison;
  Format.fprintf fmt
    "@.Statements above are mathematically falsifiable; each legal theorem \
     lists the measurement that would refute it.@."
