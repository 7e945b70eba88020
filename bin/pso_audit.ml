(* pso_audit — command-line front end.

   Subcommands:
     synth        generate a synthetic population (CSV to stdout or a file)
     anonymize    k-anonymize a synthetic population and print the release
     game         run the PSO security game for a chosen mechanism
     theorems     run the executable theorem battery (1.3, 2.5-2.10)
     report       print the full legal-technical report
     dpcheck      empirically audit the eps-DP mechanisms (Definition 1.2)
     certify      mechanically verify the eps-DP coupling certificates
     run          run one of E1..E14 (or `all`) at --quick or --full scale
     census       census-scale sharded reconstruction (streaming tabulation)
     validate-json  check the JSON, JSONL and Prometheus files a run writes

   Observability: every long-running subcommand accepts --trace FILE
   (Chrome trace_event JSON), --metrics (summary table on stderr),
   --ledger FILE (ledger/v1 JSONL), --timeline FILE (obs-timeline/v3,
   whose final point is the run's metrics record), --prom FILE
   (Prometheus text) and --watch (live stderr heartbeat), all run by
   [with_obs], the one telemetry lifecycle in the tree. All telemetry
   output goes to stderr or to files, never stdout, so golden tables
   stay byte-identical with telemetry enabled. *)

open Cmdliner

let rng_of_seed seed = Prob.Rng.create ~seed:(Int64.of_int seed) ()

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

(* Monte Carlo parallelism: trials fan out over a domain pool with one
   split-off generator per trial, so results are identical at every jobs
   count for the same seed. *)
let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"K"
        ~doc:
          "Worker domains for Monte Carlo trials (default: cores - 1; \
           results do not depend on this).")

let set_jobs =
  Option.iter (fun j ->
      if j < 1 || j > Parallel.Pool.max_jobs then begin
        Format.eprintf "pso_audit: --jobs must be >= 1 and <= %d (got %d)@."
          Parallel.Pool.max_jobs j;
        exit 2
      end;
      Parallel.Pool.set_default_jobs j)

(* --- file input and output --- *)

(* Every file error is exit 2 with one stderr line, never an uncaught
   exception. *)
let die fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "pso_audit: %s@." msg;
      exit 2)
    fmt

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> die "cannot read %s: %s" path msg

(* [path]'s JSON document, whose "schema" field must equal [expect]. *)
let read_json ~expect path =
  let doc =
    match Core.Json.of_string (read_file path) with
    | Ok doc -> doc
    | Error msg -> die "%s: invalid JSON: %s" path msg
  in
  (match Core.Json.member "schema" doc with
  | Some (Core.Json.String s) when String.equal s expect -> ()
  | Some (Core.Json.String s) ->
    die "%s: expected schema %s, found %s" path expect s
  | _ -> die "%s: missing schema field" path);
  doc

let cannot_write path msg = die "cannot write %s: %s" path msg

let write path f = try f path with Sys_error msg -> cannot_write path msg

(* --- observability flags --- *)

type obs_cfg = {
  trace : string option;
  metrics : bool;
  ledger : string option;
  prom : string option;
  timeline : string option;
  watch : bool;
  tick_ms : int;
}

let obs_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON file (open in Perfetto or \
             chrome://tracing); one track per worker domain.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print a metrics summary table to stderr on completion.")
  in
  let ledger =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "Journal every query, refusal, noise draw, budget spend and \
             suppression to FILE as ledger/v1 JSONL (byte-identical at \
             every --jobs for a fixed seed); re-check it with $(b,pso_audit \
             ledger-verify).")
  in
  let prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "Rewrite FILE atomically on every telemetry tick in Prometheus \
             text-exposition format (# HELP/# TYPE from metric \
             registrations; every sample carries a \
             class=\"deterministic\"|\"timing\" label).")
  in
  let timeline =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline" ] ~docv:"FILE"
          ~doc:
            "Write the run's snapshot ring as obs-timeline/v3 JSON on \
             completion: periodic captures of every metric with \
             per-interval deltas and rates, plus a final post-workload \
             capture (the run's metrics record: counters, gauges and \
             sketch counts, extrema and quantiles) whose deterministic \
             entries are byte-identical at every --jobs.")
  in
  let watch =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "Live stderr dashboard redrawn on every telemetry tick (top \
             counters with rates, gauges, sketch quantiles); on a pipe, one \
             compact line per tick, the last one tagged (final).")
  in
  let tick_ms =
    Arg.(
      value & opt int 250
      & info [ "tick-ms" ] ~docv:"MS"
          ~doc:
            "Telemetry snapshot period for --prom/--timeline/--watch \
             (default 250).")
  in
  Term.(
    const (fun trace metrics ledger prom timeline watch tick_ms ->
        { trace; metrics; ledger; prom; timeline; watch; tick_ms })
    $ trace $ metrics $ ledger $ prom $ timeline $ watch $ tick_ms)

(* The one telemetry lifecycle: enable -> tick -> capture -> export. Runs
   [f] with telemetry enabled when any obs output was requested, then
   exports. [f] returns an exit code instead of calling [exit] directly so
   the capture/export runs before the process terminates. An unwritable
   output path exits 2 after the workload, naming the path. *)
let with_obs cfg f =
  if cfg.tick_ms <= 0 then die "--tick-ms must be > 0 (got %d)" cfg.tick_ms;
  (match cfg.ledger with
  | Some _ ->
    Obs.Ledger.reset ();
    Obs.Ledger.enable ()
  | None -> ());
  let finish_ledger () =
    Option.iter
      (fun path ->
        Obs.Ledger.disable ();
        write path Obs.Ledger.write_file;
        Format.eprintf "[obs] wrote %s to %s@." Obs.Ledger.schema path)
      cfg.ledger
  in
  (* Periodic captures serve the live consumers; every telemetry output
     reads the final one. *)
  let ticking = cfg.prom <> None || cfg.timeline <> None || cfg.watch in
  if not (ticking || cfg.trace <> None || cfg.metrics) then begin
    let code = f () in
    finish_ledger ();
    code
  end
  else begin
    let jobs = Parallel.Pool.jobs (Parallel.Pool.default ()) in
    Obs.reset ();
    Obs.Timeline.reset ();
    Obs.Timeline.set_jobs jobs;
    Obs.enable ();
    Option.iter
      (fun path ->
        Obs.Timeline.subscribe (fun values _ ->
            Obs.Prom.write_file path (Obs.Prom.render values)))
      cfg.prom;
    if cfg.watch then Obs.Timeline.subscribe (Obs.Watch.subscriber ~jobs ());
    if ticking then
      Obs.Timeline.start ~period_ns:(Int64.of_int (cfg.tick_ms * 1_000_000)) ();
    let code = f () in
    (* Stop ticking before the final capture so it freezes the completed
       workload: its deterministic entries are byte-identical at every
       --jobs, unlike the wall-clock-placed periodic ticks. *)
    Obs.Timeline.stop ();
    (* The ticker swallows a failed --prom rewrite; this capture runs the
       subscriber on the calling domain, where the error surfaces. *)
    let final =
      try Obs.Timeline.capture ~final:true ()
      with Sys_error msg ->
        cannot_write (Option.value cfg.prom ~default:"stderr") msg
    in
    Option.iter
      (fun path ->
        write path (fun path ->
            Obs.Export.write_file path (Obs.Timeline.to_json ()));
        Format.eprintf "[obs] wrote %s to %s@." Obs.Timeline.schema path)
      cfg.timeline;
    Option.iter
      (fun path -> Format.eprintf "[obs] wrote Prometheus text to %s@." path)
      cfg.prom;
    let report = Obs.snapshot ~jobs () in
    Option.iter
      (fun path ->
        write path (fun path ->
            Obs.Export.write_file path (Obs.Export.chrome_trace report));
        Format.eprintf "[obs] wrote Chrome trace to %s@." path)
      cfg.trace;
    if cfg.metrics then
      Format.eprintf "%a@." (Obs.Export.pp_summary final) report;
    finish_ledger ();
    code
  end

let exit_with code = if code <> 0 then exit code

let n_arg default =
  Arg.(value & opt int default & info [ "n"; "size" ] ~docv:"N" ~doc:"Dataset size.")

let trials_arg =
  Arg.(value & opt int 100 & info [ "trials" ] ~docv:"T" ~doc:"Game trials.")

(* --- synth --- *)

let synth_cmd =
  let run seed n out =
    let rng = rng_of_seed seed in
    let table = Dataset.Synth.population rng ~n () in
    match out with
    | None -> print_string (Dataset.Csv.to_string table)
    | Some path ->
      Dataset.Csv.write_file path table;
      Printf.printf "wrote %d rows to %s\n" (Dataset.Table.nrows table) path
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Output CSV file.")
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Generate a synthetic GIC-style population as CSV.")
    Term.(const run $ seed_arg $ n_arg 1000 $ out)

(* --- anonymize --- *)

let algo_conv =
  Arg.enum
    [
      ("mondrian", Kanon.Anonymizer.Mondrian);
      ("datafly", Kanon.Anonymizer.Datafly);
      ("samarati", Kanon.Anonymizer.Samarati);
      ("incognito", Kanon.Anonymizer.Incognito);
    ]

let demographic_scheme =
  [
    ("zip", Dataset.Hierarchy.zip_prefix ~digits:5);
    ("birth_date", Dataset.Hierarchy.date_ladder);
    ("sex", Dataset.Hierarchy.categorical ~name:"sex"
       (Dataset.Hierarchy.Node
          ( "*",
            [
              Dataset.Hierarchy.Leaf (Dataset.Value.String "F");
              Dataset.Hierarchy.Leaf (Dataset.Value.String "M");
            ] )));
  ]

let anonymize_cmd =
  let run seed n k algorithm rows out =
    let rng = rng_of_seed seed in
    let table = Dataset.Synth.population rng ~n () in
    let config =
      {
        Kanon.Anonymizer.algorithm;
        k;
        scheme = demographic_scheme;
        max_suppression = 0.05;
        recoding = Kanon.Mondrian.Member_level;
      }
    in
    let release = Kanon.Anonymizer.anonymize config table in
    (match out with
    | None -> Format.printf "%a@." (Dataset.Gtable.pp ~max_rows:rows) release
    | Some path ->
      Dataset.Csv.write_gtable_file path release;
      Format.printf "wrote %d generalized rows to %s@."
        (Dataset.Gtable.nrows release) path);
    Format.printf "k-anonymous (k=%d): %b; suppressed rows: %d@." k
      (Kanon.Anonymizer.is_k_anonymous ~k release)
      (Kanon.Metrics.suppressed_rows release)
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write the release as CSV.")
  in
  let k_arg =
    Arg.(value & opt int 5 & info [ "k"; "anonymity" ] ~docv:"K" ~doc:"Anonymity parameter.")
  in
  let algo_arg =
    Arg.(value & opt algo_conv Kanon.Anonymizer.Mondrian
         & info [ "algo" ] ~docv:"ALGO" ~doc:"mondrian | datafly | samarati | incognito.")
  in
  let rows_arg =
    Arg.(value & opt int 20 & info [ "rows" ] ~docv:"R" ~doc:"Rows to print.")
  in
  Cmd.v
    (Cmd.info "anonymize" ~doc:"k-anonymize a synthetic population.")
    Term.(const run $ seed_arg $ n_arg 200 $ k_arg $ algo_arg $ rows_arg $ out_arg)

(* --- game --- *)

type game_target = Count | Dp_count | Kanon_member | Kanon_class

let game_cmd =
  let run seed jobs n trials target obs =
    set_jobs jobs;
    exit_with @@ with_obs obs
    @@ fun () ->
    let rng = rng_of_seed seed in
    let model = Dataset.Synth.kanon_pso_model ~qis:6 ~retained:42 ~domain:64 in
    let count_query =
      Query.Predicate.Atom (Query.Predicate.Range ("q0", 0., 32.))
    in
    let mechanism, attacker =
      match target with
      | Count ->
        ( Query.Mechanism.exact_count count_query,
          Pso.Attacker.hash_bucket ~buckets:(n * n * n) )
      | Dp_count ->
        ( Dp.Laplace.mechanism ~epsilon:1. [| count_query |],
          Pso.Attacker.hash_bucket ~buckets:(n * n * n) )
      | Kanon_member ->
        ( Kanon.Anonymizer.mechanism
            {
              Kanon.Anonymizer.algorithm = Kanon.Anonymizer.Mondrian;
              k = 5;
              scheme = [];
              max_suppression = 0.05;
              recoding = Kanon.Mondrian.Member_level;
            },
          Pso.Kanon_attack.cohen () )
      | Kanon_class ->
        ( Kanon.Anonymizer.mechanism
            {
              Kanon.Anonymizer.algorithm = Kanon.Anonymizer.Mondrian;
              k = 5;
              scheme = [];
              max_suppression = 0.05;
              recoding = Kanon.Mondrian.Class_level;
            },
          Pso.Kanon_attack.greedy () )
    in
    let outcome =
      Pso.Game.run rng ~model ~n ~mechanism ~attacker
        ~weight_bound:(Pso.Isolation.negligible_bound ~n ~c:2.)
        ~trials
    in
    Format.printf "mechanism: %s@.attacker: %s@.%a@." mechanism.Query.Mechanism.name
      attacker.Pso.Attacker.name Pso.Game.pp outcome;
    0
  in
  let target_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("count", Count);
               ("dp-count", Dp_count);
               ("kanon-member", Kanon_member);
               ("kanon-class", Kanon_class);
             ])
          Kanon_member
      & info [ "mechanism" ] ~docv:"M"
          ~doc:"count | dp-count | kanon-member | kanon-class.")
  in
  Cmd.v
    (Cmd.info "game" ~doc:"Run the PSO security game (Definition 2.4).")
    Term.(
      const run $ seed_arg $ jobs_arg $ n_arg 120 $ trials_arg
      $ target_arg $ obs_term)

(* --- audit --- *)

type audit_target =
  | A_count
  | A_dp_count
  | A_kanon_member
  | A_kanon_class
  | A_identity
  | A_synthetic

let audit_cmd =
  let run seed jobs n trials target obs =
    set_jobs jobs;
    exit_with @@ with_obs obs
    @@ fun () ->
    let rng = rng_of_seed seed in
    let model = Dataset.Synth.kanon_pso_model ~qis:6 ~retained:42 ~domain:64 in
    let count_query =
      Query.Predicate.Atom (Query.Predicate.Range ("q0", 0., 32.))
    in
    let kanon recoding =
      Kanon.Anonymizer.mechanism
        {
          Kanon.Anonymizer.algorithm = Kanon.Anonymizer.Mondrian;
          k = 5;
          scheme = [];
          max_suppression = 0.05;
          recoding;
        }
    in
    let mechanism =
      match target with
      | A_count -> Query.Mechanism.exact_count count_query
      | A_dp_count -> Dp.Laplace.mechanism ~epsilon:1. [| count_query |]
      | A_kanon_member -> kanon Kanon.Mondrian.Member_level
      | A_kanon_class -> kanon Kanon.Mondrian.Class_level
      | A_identity -> Query.Mechanism.identity_release
      | A_synthetic ->
        let domains =
          List.map
            (fun name -> (name, List.init 64 (fun v -> Dataset.Value.Int v)))
            (Dataset.Schema.names (Dataset.Model.schema model))
        in
        Dp.Synthetic.mechanism ~epsilon:1. ~domains ~rows:n
    in
    Format.printf "auditing mechanism: %s@." mechanism.Query.Mechanism.name;
    let findings = Core.Audit.mechanism rng ~model ~n ~trials mechanism in
    List.iter
      (fun f ->
        Format.printf "  %-34s %a@." f.Core.Audit.attacker Pso.Game.pp
          f.Core.Audit.outcome)
      findings;
    let worst = Core.Audit.worst_success findings in
    Format.printf "worst PSO success: %.1f%% -> %s@." (100. *. worst)
      (if worst > 0.1 then "singling out DEMONSTRATED: not GDPR-anonymous"
       else "no singling out demonstrated by this battery");
    0
  in
  let target_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("count", A_count);
               ("dp-count", A_dp_count);
               ("kanon-member", A_kanon_member);
               ("kanon-class", A_kanon_class);
               ("identity", A_identity);
               ("dp-synthetic", A_synthetic);
             ])
          A_identity
      & info [ "mechanism" ] ~docv:"M"
          ~doc:
            "count | dp-count | kanon-member | kanon-class | identity | \
             dp-synthetic.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Run the standard PSO attacker battery against a mechanism.")
    Term.(
      const run $ seed_arg $ jobs_arg $ n_arg 120 $ trials_arg
      $ target_arg $ obs_term)

(* --- theorems --- *)

let theorems_cmd =
  let run seed jobs n trials obs =
    set_jobs jobs;
    exit_with @@ with_obs obs
    @@ fun () ->
    let rng = rng_of_seed seed in
    let params = { Pso.Theorems.n; trials; weight_exponent = 2. } in
    let verdicts = Pso.Theorems.all ~params rng in
    List.iter (fun v -> Format.printf "%a@." Pso.Theorems.pp v) verdicts;
    let failed = List.filter (fun v -> not v.Pso.Theorems.holds) verdicts in
    if failed = [] then begin
      Format.printf "all %d checks hold@." (List.length verdicts);
      0
    end
    else begin
      Format.printf "%d checks REFUTED@." (List.length failed);
      1
    end
  in
  Cmd.v
    (Cmd.info "theorems" ~doc:"Run the executable theorem battery.")
    Term.(
      const run $ seed_arg $ jobs_arg $ n_arg 150 $ trials_arg
      $ obs_term)

(* --- report --- *)

let report_cmd =
  let run seed jobs n trials obs =
    set_jobs jobs;
    exit_with @@ with_obs obs
    @@ fun () ->
    let rng = rng_of_seed seed in
    let report =
      Legal.Report.build ~context:"pso_audit report" rng
        { Pso.Theorems.n; trials; weight_exponent = 2. }
    in
    Format.printf "%a@." Legal.Report.pp report;
    0
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Print the full legal-technical audit report.")
    Term.(
      const run $ seed_arg $ jobs_arg $ n_arg 150 $ trials_arg
      $ obs_term)

(* --- dpcheck --- *)

let dpcheck_cmd =
  let run seed jobs trials confidence battery mechanism obs =
    set_jobs jobs;
    if trials < 1 then begin
      Format.eprintf "pso_audit: --trials must be >= 1 (got %d)@." trials;
      exit 2
    end;
    if not (confidence > 0. && confidence < 1.) then begin
      Format.eprintf "pso_audit: --confidence must be in (0, 1) (got %g)@."
        confidence;
      exit 2
    end;
    let cases =
      match mechanism with
      | Some name -> (
        match Stattest.Dp_audit.find name with
        | Some case -> [ case ]
        | None ->
          Format.eprintf "pso_audit: unknown mechanism %S (valid: %s)@." name
            (String.concat ", "
               (List.map
                  (fun (c : Stattest.Dp_audit.case) -> c.Stattest.Dp_audit.name)
                  (Stattest.Dp_audit.all ())));
          exit 2)
      | None -> (
        match battery with
        | "standard" -> Stattest.Dp_audit.standard ()
        | "broken" -> Stattest.Dp_audit.broken ()
        | "all" -> Stattest.Dp_audit.all ()
        | other ->
          Format.eprintf
            "pso_audit: --battery must be standard | broken | all (got %S)@."
            other;
          exit 2)
    in
    exit_with @@ with_obs obs
    @@ fun () ->
    let rng = rng_of_seed seed in
    let flagged =
      List.filter
        (fun case ->
          let report = Stattest.Dp_audit.run ~confidence ~trials rng case in
          Format.printf "%a@." Stattest.Dp_audit.pp_report report;
          not (Stattest.Dp_audit.passed report))
        cases
    in
    Format.printf "dpcheck: %d/%d mechanism(s) flagged@." (List.length flagged)
      (List.length cases);
    if flagged <> [] then 1 else 0
  in
  let trials_arg =
    Arg.(
      value & opt int 60_000
      & info [ "trials" ] ~docv:"T" ~doc:"Monte Carlo trials per neighbor.")
  in
  let confidence_arg =
    Arg.(
      value & opt float 0.9999
      & info [ "confidence" ] ~docv:"C"
          ~doc:"Family-wise confidence for violation certificates.")
  in
  let battery_arg =
    Arg.(
      value & opt string "standard"
      & info [ "battery" ] ~docv:"B"
          ~doc:"standard | broken | all (ignored with --mechanism).")
  in
  let mechanism_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mechanism" ] ~docv:"M"
          ~doc:"Audit a single case, e.g. laplace or broken-laplace.")
  in
  Cmd.v
    (Cmd.info "dpcheck"
       ~doc:
         "Empirically audit the eps-DP mechanisms (Definition 1.2); exits 1 \
          when a statistically certified violation is found.")
    Term.(
      const run $ seed_arg $ jobs_arg $ trials_arg
      $ confidence_arg $ battery_arg $ mechanism_arg $ obs_term)

(* --- certify --- *)

let certify_cmd =
  let run mechanism tamper legal seed =
    (* No --jobs here: certificate checking is an exhaustive
       deterministic enumeration — nothing is sampled, nothing fans out. *)
    if tamper then begin
      let results = Cert.Registry.tamper_suite () in
      List.iter
        (fun (r : Cert.Registry.tamper_result) ->
          Format.printf "%-28s %-20s %s@." r.entry_name r.tamper
            (if r.rejected then "REJECTED" else "ACCEPTED"))
        results;
      let accepted =
        List.filter (fun (r : Cert.Registry.tamper_result) -> not r.rejected) results
      in
      Format.printf "tamper: %d/%d tampered certificates rejected@."
        (List.length results - List.length accepted)
        (List.length results);
      exit_with (if accepted = [] && results <> [] then 0 else 1)
    end
    else begin
      let rows =
        match mechanism with
        | None -> Cert.Registry.verify_all ()
        | Some name -> (
          match Cert.Catalog.find name with
          | Some entry ->
            [ { Cert.Registry.entry; verdict = Cert.Registry.verify entry } ]
          | None ->
            Format.eprintf "pso_audit: unknown certificate %S (valid: %s)@."
              name
              (String.concat ", "
                 (List.map
                    (fun (e : Cert.Catalog.entry) -> e.Cert.Catalog.name)
                    (Cert.Catalog.all ())));
            exit 2)
      in
      print_string (Cert.Registry.render_table rows);
      if legal then begin
        let rng = rng_of_seed seed in
        let verdict = Pso.Theorems.dp_prevents_pso rng in
        let certificates =
          List.filter_map
            (fun (r : Cert.Registry.row) ->
              if r.entry.Cert.Catalog.negative then None
              else
                Some
                  {
                    Legal.Theorem.mechanism = r.entry.Cert.Catalog.name;
                    claim =
                      Printf.sprintf "e^eps = %s (%s)"
                        (Cert.Q.to_string r.entry.Cert.Catalog.model.Cert.Model.bound)
                        r.entry.Cert.Catalog.spec.Dp.Finite.epsilon_label;
                    certified =
                      (match r.verdict with
                      | Cert.Search.Certified _ -> true
                      | _ -> false);
                  })
            rows
        in
        Format.printf "%a@." Legal.Theorem.pp
          (Legal.Theorem.dp_necessary_condition ~certificates verdict)
      end;
      exit_with (if Cert.Registry.all_ok rows then 0 else 1)
    end
  in
  let mechanism_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mechanism" ] ~docv:"M"
          ~doc:"Verify a single registered certificate, e.g. laplace.")
  in
  let tamper_arg =
    Arg.(
      value & flag
      & info [ "tamper" ]
          ~doc:
            "Run the tampered-certificate suite instead: corrupt every \
             verified production certificate (shifted target, collided \
             targets, out-of-range target) and require the checker to \
             reject each one.")
  in
  let legal_arg =
    Arg.(
      value & flag
      & info [ "legal" ]
          ~doc:
            "Also derive the Section 2.4.1 legal determination citing the \
             certificate verdicts as machine-checked premises.")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Mechanically verify the registered eps-DP coupling certificates \
          (exact rational arithmetic, no sampling); exits 1 unless every \
          production mechanism is certified and every negative control is \
          rejected.")
    Term.(const run $ mechanism_arg $ tamper_arg $ legal_arg $ seed_arg)

(* --- run --- *)

let run_cmd =
  let run seed jobs quick full id obs =
    if quick && full then begin
      Format.eprintf "pso_audit: --quick and --full are mutually exclusive@.";
      exit 2
    end;
    let scale =
      if full then Experiments.Common.Full else Experiments.Common.Quick
    in
    set_jobs jobs;
    (* Validate the id before enabling telemetry so a typo exits cleanly. *)
    let entries =
      if String.lowercase_ascii id = "all" then Experiments.Registry.all
      else
        match Experiments.Registry.find id with
        | Some e -> [ e ]
        | None ->
          Format.eprintf "unknown experiment %S (expected E1..E14 or all)@." id;
          exit 2
    in
    exit_with @@ with_obs obs
    @@ fun () ->
    let rng = rng_of_seed seed in
    let fmt = Format.std_formatter in
    List.iter
      (fun (e : Experiments.Registry.entry) ->
        e.Experiments.Registry.print ~scale rng fmt)
      entries;
    0
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Quick-scale parameters (the default).")
  in
  let full_arg =
    Arg.(value & flag & info [ "full" ] ~doc:"Full-scale parameters (slower).")
  in
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"E1..E14 or all.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run an experiment from DESIGN.md's index at quick (the default) \
          or full scale.")
    Term.(
      const run $ seed_arg $ jobs_arg $ quick_arg $ full_arg
      $ id_arg $ obs_term)

(* --- census --- *)

let census_cmd =
  let run seed jobs blocks mean_block_size shards threshold cold shave obs =
    set_jobs jobs;
    if blocks < 1 || mean_block_size < 1 || shards < 1 then begin
      Format.eprintf
        "pso_audit: census: --blocks, --mean-block-size and --shards must \
         all be >= 1@.";
      exit 2
    end;
    if threshold < 0 then begin
      Format.eprintf "pso_audit: census: --suppress must be >= 0 (got %d)@."
        threshold;
      exit 2
    end;
    exit_with @@ with_obs obs
    @@ fun () ->
    let module Cs = Attacks.Census_scale in
    let cfg =
      {
        Cs.blocks;
        mean_block_size;
        shards;
        threshold;
        warm_start = not cold;
        shave;
      }
    in
    let rng = rng_of_seed seed in
    let t0 = Obs.now_ns () in
    let stats = Cs.run cfg rng in
    let dt_ns = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) in
    Format.printf "census: %d blocks (mean size %d) over %d shards%s@."
      blocks mean_block_size shards
      (if cold then " [cold]" else " [warm-started]");
    Format.printf "  population          %d@." stats.Cs.population;
    Format.printf "  records             %d@." stats.Cs.records;
    Format.printf "  solved blocks       %d (%d converged)@."
      stats.Cs.solved_blocks stats.Cs.converged_blocks;
    Format.printf "  suppressed cells    %d (threshold %d)@."
      stats.Cs.suppressed_cells threshold;
    Format.printf "  fixed cells         %d@." stats.Cs.fixed_cells;
    Format.printf "  joint match rate    %.4f@." (Cs.match_rate stats);
    Format.printf "  sex-age match rate  %.4f@." (Cs.sex_age_rate stats);
    Format.printf "  warm-started        %d@." stats.Cs.warm_solves;
    Format.printf "  iterations          %d (%d in warm solves)@."
      stats.Cs.iterations stats.Cs.warm_iterations;
    (* Throughput is wall-clock: stderr only, so stdout stays deterministic
       for a fixed seed and shard count. *)
    if dt_ns > 0. then
      Printf.eprintf "census: %.0f rows/sec\n%!"
        (float_of_int stats.Cs.records /. (dt_ns /. 1e9));
    0
  in
  let blocks_arg =
    Arg.(
      value & opt int 200
      & info [ "blocks" ] ~docv:"N" ~doc:"Number of census blocks to stream.")
  in
  let mean_arg =
    Arg.(
      value & opt int 30
      & info [ "mean-block-size" ] ~docv:"N"
          ~doc:"Mean people per block (geometric, always >= 1).")
  in
  let shards_arg =
    Arg.(
      value & opt int 16
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Fixed fan-out unit the blocks are dealt across. Part of the \
             scenario: results depend on it (one generator per shard), but \
             never on --jobs.")
  in
  let threshold_arg =
    Arg.(
      value & opt int 3
      & info [ "suppress" ] ~docv:"T"
          ~doc:
            "Suppression threshold: marginal counts under T are withheld \
             and published as intervals. 0 publishes everything exactly.")
  in
  let cold_arg =
    Arg.(
      value & flag
      & info [ "cold" ]
          ~doc:
            "Disable neighbor warm-starting; every block solves from the \
             interval midpoint seed.")
  in
  let shave_arg =
    Arg.(
      value & flag
      & info [ "shave" ]
          ~doc:
            "Sharpen interval propagation with per-cell branch-and-bound \
             before solving (slower, pins more cells).")
  in
  Cmd.v
    (Cmd.info "census"
       ~doc:
         "Census-scale sharded reconstruction: stream synthetic blocks \
          through suppression, interval propagation and warm-started sparse \
          least squares without materializing the population (Section 1 at \
          scale; E14 is the golden-pinned variant).")
    Term.(
      const run $ seed_arg $ jobs_arg $ blocks_arg $ mean_arg $ shards_arg
      $ threshold_arg $ cold_arg $ shave_arg $ obs_term)

(* --- validate-json --- *)

let validate_json_cmd =
  let run files =
    List.iter
      (fun path ->
        let contents = read_file path in
        let schema_of doc =
          match Core.Json.member "schema" doc with
          | Some (Core.Json.String s) -> s
          | _ -> "unknown schema"
        in
        match Core.Json.of_string contents with
        | Ok doc ->
          (* Schemas with a structural validator get the deep check, not
             just a parse; an older timeline version fails it on its
             schema line instead of passing as an unknown schema. *)
          if String.starts_with ~prefix:"obs-timeline/" (schema_of doc) then begin
            match Obs.Timeline.validate doc with
            | Ok () -> Format.printf "ok: %s (%s)@." path Obs.Timeline.schema
            | Error msg ->
              Format.eprintf "pso_audit: %s: invalid %s: %s@." path
                Obs.Timeline.schema msg;
              exit 2
          end
          else Format.printf "ok: %s (%s)@." path (schema_of doc)
        | Error msg -> (
          (* Not one JSON document. A Prometheus text exposition (the
             --prom output) starts with a comment or a bare metric name —
             never a JSON value — so try its line grammar next. *)
          let looks_prom =
            match
              String.split_on_char '\n' contents
              |> List.find_opt (fun l -> String.trim l <> "")
            with
            | Some l -> (
              match (String.trim l).[0] with
              | '#' | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
              | _ -> false)
            | None -> false
          in
          if looks_prom then begin
            match Obs.Prom.validate contents with
            | Ok () -> Format.printf "ok: %s (prometheus-text)@." path
            | Error pmsg ->
              Format.eprintf "pso_audit: %s: invalid Prometheus text: %s@."
                path pmsg;
              exit 2
          end
          else begin
            (* Maybe JSONL (the --ledger output): every non-empty line
               must parse on its own. *)
            let lines =
              String.split_on_char '\n' contents
              |> List.filter (fun l -> String.trim l <> "")
            in
            match lines with
            | [] | [ _ ] ->
              Format.eprintf "pso_audit: %s: invalid JSON: %s@." path msg;
              exit 2
            | first :: _ ->
              List.iteri
                (fun i l ->
                  match Core.Json.of_string l with
                  | Ok _ -> ()
                  | Error lmsg ->
                    Format.eprintf
                      "pso_audit: %s: invalid JSON (line %d): %s@." path
                      (i + 1) lmsg;
                    exit 2)
                lines;
              let schema =
                match Core.Json.of_string first with
                | Ok doc -> schema_of doc
                | Error _ -> "unknown schema"
              in
              Format.printf "ok: %s (%s, %d lines)@." path schema
                (List.length lines)
          end))
      files
  in
  let files_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc:"JSON files.")
  in
  Cmd.v
    (Cmd.info "validate-json"
       ~doc:
         "Parse telemetry artifacts and report their schema: JSON documents \
          (--trace output), JSONL (--ledger output), Prometheus text \
          expositions (--prom output, line-grammar check) and \
          obs-timeline/v3 documents (--timeline output, structural \
          check). Exits 2 on malformed input.")
    Term.(const run $ files_arg)

(* --- ledger-verify / ledger-report --- *)

let read_ledger path =
  match Obs.Ledger.read path with
  | Ok events -> events
  | Error msg ->
    Format.eprintf "pso_audit: %s: %s@." path msg;
    exit 2
  | exception Sys_error msg ->
    Format.eprintf "pso_audit: cannot read %s: %s@." path msg;
    exit 2

let ledger_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"LEDGER" ~doc:"A ledger/v1 JSONL file (from --ledger).")

let ledger_verify_cmd =
  let run path =
    let events = read_ledger path in
    match Obs.Ledger.verify events with
    | [] ->
      Format.printf "ok: %s: %d event(s), accountant arithmetic verified@."
        path (List.length events)
    | vs ->
      List.iter
        (fun (v : Obs.Ledger.violation) ->
          Format.printf "%s:%d: %s@." path v.Obs.Ledger.at v.Obs.Ledger.what)
        vs;
      Format.printf "%s: %d violation(s)@." path (List.length vs);
      exit 1
  in
  Cmd.v
    (Cmd.info "ledger-verify"
       ~doc:
         "Replay an audit ledger and mechanically re-check it: sessions \
          precede use, cumulative eps per analyst matches the spends and \
          never exceeds the declared budget, spend_many totals match, and \
          every refusal is justified. Exits 1 on any violation, 2 on \
          malformed input.")
    Term.(const run $ ledger_file_arg)

let ledger_report_cmd =
  let run path json =
    let events = read_ledger path in
    let rows = Obs.Ledger.report events in
    if json then
      print_endline
        (Core.Json.to_string ~pretty:true (Obs.Ledger.report_json rows))
    else begin
      Format.printf "ledger report: %s (%d event(s))@." path
        (List.length events);
      Format.printf "%a" Obs.Ledger.pp_report rows
    end;
    let violations = Obs.Ledger.verify events in
    if violations <> [] then begin
      (* In --json mode stdout stays pure JSON; the warning moves to
         stderr. *)
      if json then
        Format.eprintf "WARNING: %d violation(s) — run ledger-verify@."
          (List.length violations)
      else
        Format.printf "WARNING: %d violation(s) — run ledger-verify@."
          (List.length violations);
      exit 1
    end
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the per-analyst table as a ledger-report/v1 JSON document \
             on stdout instead of the human table.")
  in
  Cmd.v
    (Cmd.info "ledger-report"
       ~doc:
         "Print per-analyst tables (queries, refusals, eps spent/remaining, \
          cost p50/p95/p99) from an audit ledger, as a human table or \
          (--json) a ledger-report/v1 document. Exits 1 if the ledger does \
          not verify, 2 on malformed input.")
    Term.(const run $ ledger_file_arg $ json_arg)

(* --- report-html --- *)

let report_html_cmd =
  let run out timeline ledger title =
    if timeline = None && ledger = None then begin
      Format.eprintf
        "pso_audit: report-html needs at least one source (--timeline or \
         --ledger)@.";
      exit 2
    end;
    let timeline =
      Option.map
        (fun path ->
          let doc = read_json ~expect:Obs.Timeline.schema path in
          (match Obs.Timeline.validate doc with
          | Ok () -> ()
          | Error msg ->
            Format.eprintf "pso_audit: %s: invalid %s: %s@." path
              Obs.Timeline.schema msg;
            exit 2);
          doc)
        timeline
    in
    let ledger =
      Option.map
        (fun path -> Obs.Ledger.report (read_ledger path))
        ledger
    in
    let html = Obs.Report_html.render ?timeline ?ledger ~title () in
    write out (fun out ->
        Out_channel.with_open_bin out (fun oc -> output_string oc html));
    Format.printf "wrote run report to %s@." out
  in
  let out_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OUT.html" ~doc:"Output HTML file.")
  in
  let timeline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline" ] ~docv:"FILE"
          ~doc:
            "An obs-timeline/v3 document (from --timeline): sparklines of \
             every series plus the final metric tables from its last \
             snapshot.")
  in
  let ledger_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:"A ledger/v1 JSONL file (from --ledger).")
  in
  let title_arg =
    Arg.(
      value
      & opt string "pso_audit run report"
      & info [ "title" ] ~docv:"TITLE" ~doc:"Report title.")
  in
  Cmd.v
    (Cmd.info "report-html"
       ~doc:
         "Fuse a run's telemetry artifacts into one self-contained static \
          HTML report (inline CSS/SVG, no scripts, no external \
          references): timeline sparklines, final metric tables and \
          per-analyst ledger accounting. Exits 2 on any malformed source.")
    Term.(const run $ out_arg $ timeline_arg $ ledger_arg $ title_arg)

let () =
  let doc = "singling-out: PSO games, attacks and legal theorems (PODS 2021)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "pso_audit" ~version:Core.version ~doc)
          [
            synth_cmd; anonymize_cmd; game_cmd; audit_cmd; theorems_cmd; report_cmd;
            dpcheck_cmd; certify_cmd; run_cmd; census_cmd;
            validate_json_cmd;
            ledger_verify_cmd; ledger_report_cmd; report_html_cmd;
          ]))
