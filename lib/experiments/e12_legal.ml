let params = function
  | Common.Quick ->
    { Pso.Theorems.n = 100; trials = 80; weight_exponent = 2. }
  | Common.Full -> { Pso.Theorems.n = 200; trials = 400; weight_exponent = 2. }

let report ~scale rng =
  Legal.Report.build ~context:"E12 (paper Section 2.4)" rng (params scale)

let print ~scale rng fmt =
  Common.banner fmt ~id:"E12" ~title:"Legal theorems and the WP29 comparison"
    ~claim:
      "k-anonymity (and l-diversity, t-closeness) fails to prevent singling \
       out as required by the GDPR and does not meet its anonymization \
       standard; differential privacy meets the necessary condition. The \
       WP29 Opinion's answers are reversed for the k-anonymity family.";
  Legal.Report.pp fmt (report ~scale rng)
