exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

let default_alpha = 0.001

let mean ?confidence ~expected msg xs =
  let lo, hi = Ci.mean_ci ?confidence xs in
  if expected < lo || expected > hi then
    fail "%s: expected mean %g outside CI [%g, %g] (n=%d)" msg expected lo hi
      (Array.length xs)

let variance ?confidence ~expected msg xs =
  let lo, hi = Ci.variance_ci ?confidence xs in
  if expected < lo || expected > hi then
    fail "%s: expected variance %g outside CI [%g, %g] (n=%d)" msg expected lo
      hi (Array.length xs)

let proportion ?confidence ~expected msg ~successes ~trials =
  let lo, hi = Ci.clopper_pearson ?confidence ~successes ~trials () in
  if expected < lo || expected > hi then
    fail "%s: expected proportion %g outside CI [%g, %g] (%d/%d)" msg expected
      lo hi successes trials

let proportion_within ?confidence ~lo ~hi msg ~successes ~trials =
  let ci_lo, ci_hi = Ci.clopper_pearson ?confidence ~successes ~trials () in
  if ci_lo < lo || ci_hi > hi then
    fail "%s: CI [%g, %g] not within claimed band [%g, %g] (%d/%d)" msg ci_lo
      ci_hi lo hi successes trials

let check_p ~alpha msg (r : Htest.result) =
  if r.Htest.p_value < alpha then
    fail "%s: p-value %.2g < alpha %g (statistic %.4g, df %g)" msg
      r.Htest.p_value alpha r.Htest.statistic r.Htest.df

let uniform ?(alpha = default_alpha) msg observed =
  check_p ~alpha msg (Htest.chi_square_uniform observed)

let ks_cdf ?(alpha = default_alpha) ~cdf msg xs =
  check_p ~alpha msg (Htest.ks_one_sample ~cdf xs)
