type t =
  | Raw_release
  | Hipaa_safe_harbor
  | K_anonymity
  | L_diversity
  | T_closeness
  | Count_release
  | Differential_privacy

let name = function
  | Raw_release -> "raw release"
  | Hipaa_safe_harbor -> "HIPAA safe harbor"
  | K_anonymity -> "k-anonymity"
  | L_diversity -> "l-diversity"
  | T_closeness -> "t-closeness"
  | Count_release -> "count release"
  | Differential_privacy -> "differential privacy"

let kanon_family = function
  | K_anonymity | L_diversity | T_closeness -> true
  | Raw_release | Hipaa_safe_harbor | Count_release | Differential_privacy ->
    false
