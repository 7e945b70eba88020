(* The perf-gate runner: times every gate in Stattest.Gate's table,
   prints one line per gate (ratio, 95% interval, bound, verdict) and
   exits 1 if any gate fails. It takes no arguments; an unresolved gate (interval
   straddling its bound) does not fail the run. Experiment tables are
   `pso_audit run E… [--full]`; end-to-end timings are bench/e2e. *)

let usage = "usage: bench/main.exe (no arguments: runs every perf gate)"

let () =
  if Array.length Sys.argv > 1 then begin
    Format.eprintf "bench: unexpected argument %s@.%s@." Sys.argv.(1) usage;
    exit 2
  end;
  let t0 = Unix.gettimeofday () in
  let failed =
    List.fold_left
      (fun failed g ->
        let s = Stattest.Gate.measure g in
        Format.printf "%a@." Stattest.Gate.pp_line (g, s);
        failed || s.Stattest.Gate.verdict = Stattest.Gate.Fail)
      false Stattest.Gate.all
  in
  Format.printf "%d gates in %.1fs: %s@."
    (List.length Stattest.Gate.all)
    (Unix.gettimeofday () -. t0)
    (if failed then "FAIL" else "ok");
  if failed then exit 1
