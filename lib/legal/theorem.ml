type standing = Fails_standard | Necessary_condition_met | Undetermined

type certificate = {
  mechanism : string;
  claim : string;
  certified : bool;
}

type premise =
  | Technical of Pso.Theorems.verdict
  | Bridging of Bridge.t
  | Legal_text of Source.t
  | Machine_checked of certificate

type t = {
  name : string;
  about : Technology.t;
  standard : string;
  standing : standing;
  conclusion : string;
  premises : premise list;
  falsifiable_by : string;
}

let standing_name = function
  | Fails_standard -> "FAILS the standard"
  | Necessary_condition_met -> "necessary condition met (sufficiency open)"
  | Undetermined -> "undetermined (technical premise did not hold)"

(* Negative conclusions may only flow through failure-transferring bridges;
   positive ones may not flow through them at all. *)
let derive_failure ~bridges verdict =
  if not (List.for_all Bridge.failure_transfers bridges) then
    invalid_arg "Theorem.derive_failure: bridge does not transfer failures";
  if verdict.Pso.Theorems.holds then Fails_standard else Undetermined

let kanon_fails_gdpr ~variant verdict =
  if not (Technology.kanon_family variant) then
    invalid_arg "Theorem.kanon_fails_gdpr: not a k-anonymity variant";
  let standing =
    derive_failure ~bridges:[ Bridge.pso_to_gdpr_singling_out ] verdict
  in
  {
    name = "Legal Theorem 2.1";
    about = variant;
    standard = "GDPR prevention of singling out (Recital 26)";
    standing;
    conclusion =
      Printf.sprintf
        "%s fails to prevent singling out as required by the GDPR: it does \
         not even prevent the weaker notion of predicate singling out."
        (Technology.name variant);
    premises =
      [
        Technical verdict;
        Bridging Bridge.pso_to_gdpr_singling_out;
        Legal_text Source.gdpr_recital_26;
      ];
    falsifiable_by =
      "a proof or measurement that typical information-optimizing \
       k-anonymizers resist the Theorem 2.10 attackers (PSO success at \
       negligible weight driven to ~0)";
  }

let kanon_fails_anonymization ~variant verdict =
  let base = kanon_fails_gdpr ~variant verdict in
  {
    base with
    name = "Legal Corollary 2.1";
    standard = "GDPR anonymization standard (Recital 26 exemption)";
    conclusion =
      Printf.sprintf
        "%s does not meet the GDPR standard for anonymization: preventing \
         singling out is necessary for the Recital 26 exemption, and it is \
         not prevented." (Technology.name variant);
    premises = base.premises @ [ Bridging Bridge.singling_out_to_anonymization ];
  }

let dp_necessary_condition ?(certificates = []) verdict =
  let standing =
    if verdict.Pso.Theorems.holds then Necessary_condition_met else Undetermined
  in
  let all_certified =
    certificates <> [] && List.for_all (fun c -> c.certified) certificates
  in
  {
    name = "Section 2.4.1 determination";
    about = Technology.Differential_privacy;
    standard = "GDPR prevention of singling out (Recital 26)";
    standing;
    conclusion =
      "Differential privacy prevents predicate singling out (Theorem 2.9); \
       since PSO is a weakened form of the legal notion, this establishes a \
       necessary condition only — differential privacy MAY provide the \
       anonymization the GDPR requires, pending analysis of the remaining \
       'means reasonably likely to be used'."
      ^ (if all_certified then
           " The eps-DP premises cited here are machine-checked \
            (randomness-alignment certificates verified exhaustively in \
            exact arithmetic), not merely statistically audited."
         else "");
    premises =
      Technical verdict
      :: (List.map (fun c -> Machine_checked c) certificates
         @ [
             Bridging Bridge.pso_to_gdpr_singling_out;
             Legal_text Source.gdpr_recital_26;
           ]);
    falsifiable_by =
      "a PSO attacker winning the Definition 2.4 game against an \
       eps-differentially private mechanism with non-negligible probability";
  }

let count_release_caveat secure_verdict composed_verdict =
  let standing =
    if
      secure_verdict.Pso.Theorems.holds && composed_verdict.Pso.Theorems.holds
    then Necessary_condition_met
    else Undetermined
  in
  {
    name = "Composition caveat (Theorems 2.5/2.8)";
    about = Technology.Count_release;
    standard = "GDPR prevention of singling out (Recital 26)";
    standing;
    conclusion =
      "A single exact count prevents predicate singling out, but omega(log \
       n) composed counts do not; any legal determination that counting is \
       safe cannot survive composition, so the necessary condition holds \
       only for isolated releases.";
    premises =
      [
        Technical secure_verdict;
        Technical composed_verdict;
        Bridging Bridge.pso_to_gdpr_singling_out;
      ];
    falsifiable_by =
      "either a PSO attack on a single count mechanism, or a proof that \
       composed count releases resist the bucket-and-bits attacker";
  }

let raw_release_fails =
  {
    name = "Anchor case";
    about = Technology.Raw_release;
    standard = "GDPR prevention of singling out (Recital 26)";
    standing = Fails_standard;
    conclusion =
      "Publishing records verbatim permits singling out trivially: any \
       record's full-value predicate isolates it whenever it is unique, and \
       its weight is its probability under D — negligible for \
       high-entropy records.";
    premises = [ Legal_text Source.gdpr_recital_26 ];
    falsifiable_by = "nothing — the attack is immediate from the release format";
  }

let pp fmt t =
  Format.fprintf fmt "%s — %s vs %s: %s@." t.name (Technology.name t.about)
    t.standard (standing_name t.standing);
  Format.fprintf fmt "  %s@." t.conclusion;
  List.iter
    (fun p ->
      match p with
      | Technical v ->
        Format.fprintf fmt "  premise (technical): %s [%s]@." v.Pso.Theorems.id
          (if v.Pso.Theorems.holds then "holds" else "refuted")
      | Bridging b -> Format.fprintf fmt "  premise (bridge): %a@." Bridge.pp b
      | Legal_text s ->
        Format.fprintf fmt "  premise (legal text): %s@." s.Source.id
      | Machine_checked c ->
        Format.fprintf fmt "  premise (machine-checked): %s, %s [%s]@."
          c.mechanism c.claim
          (if c.certified then "certified: search-derived alignment"
           else "NOT certified — audited only"))
    t.premises;
  Format.fprintf fmt "  falsifiable by: %s@." t.falsifiable_by
