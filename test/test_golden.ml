(* Golden-table regression harness for the experiment suite and the
   certificate verdict table.

   Every E1..E14 table is rendered at Quick scale exactly as
   [pso_audit run E<k> --quick --seed 20210621] renders it —
   [Parallel.Pool.set_default_jobs], then a fresh generator seeded
   20210621 — and compared byte-for-byte against the
   checked-in snapshot in test/golden/. Each table is rendered at jobs = 1,
   2 and 4, so the suite simultaneously pins the numbers (any change to a
   mechanism, sampler or experiment shows up as a diff) and the
   determinism contract (the rendering is byte-identical at every pool
   size). The jobs = 4 pass runs with telemetry and the audit ledger on,
   and the theorem battery runs the same way afterwards: the domain-safety
   check of every module-level cell those paths share.

   Regenerating after an intentional change:

     dune exec test/test_golden.exe -- update     # from the repo root

   then review the diff like any other code change. *)

let seed = 20210621L

let render (e : Experiments.Registry.entry) ~jobs =
  Parallel.Pool.set_default_jobs jobs;
  let rng = Prob.Rng.create ~seed () in
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  e.Experiments.Registry.print ~scale:Experiments.Common.Quick rng fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* The certificate verdict table rides along as the CERT snapshot: it
   involves no sampling or pool at all, so rendering it at every jobs
   count pins the stronger claim that the verdicts cannot depend on
   parallelism. *)
let render_cert ~jobs =
  Parallel.Pool.set_default_jobs jobs;
  Cert.Registry.render_table (Cert.Registry.verify_all ())

(* Telemetry and the audit ledger on for [f], which must also leave a
   ledger that verifies. With four domains sharing every metric and
   ledger buffer, a domain-safety fault shows as a crash, a changed byte
   or a ledger violation. *)
let with_telemetry f =
  Obs.reset ();
  Obs.Ledger.reset ();
  Obs.enable ();
  Obs.Ledger.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.Ledger.disable ())
    (fun () ->
      let v = f () in
      let violations =
        match Obs.Ledger.parse_lines (Obs.Ledger.to_lines ()) with
        | Error msg -> [ msg ]
        | Ok events ->
          List.map
            (fun (x : Obs.Ledger.violation) ->
              Printf.sprintf "line %d: %s" x.at x.what)
            (Obs.Ledger.verify events)
      in
      (v, violations))

let tables () =
  List.map
    (fun (e : Experiments.Registry.entry) ->
      (e.Experiments.Registry.id, fun ~jobs -> render e ~jobs))
    Experiments.Registry.all
  @ [ ("CERT", render_cert) ]

(* Under `dune runtest` the cwd is _build/default/test and the snapshots
   are staged at golden/ by the dune deps; under `dune exec` from the repo
   root they live at test/golden. *)
let golden_dir () =
  if Sys.file_exists "golden" && Sys.is_directory "golden" then "golden"
  else Filename.concat "test" "golden"

let golden_path id = Filename.concat (golden_dir ()) (id ^ ".txt")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> None
    | x :: la, y :: lb -> if String.equal x y then go (i + 1) la lb else Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<missing>")
    | [], y :: _ -> Some (i, "<missing>", y)
  in
  go 1 la lb

let update () =
  let dir = golden_dir () in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (id, render) ->
      write_file (golden_path id) (render ~jobs:1);
      Printf.printf "wrote %s\n%!" (golden_path id))
    (tables ())

let check () =
  let failures = ref 0 in
  List.iter
    (fun (id, render) ->
      let path = golden_path id in
      if not (Sys.file_exists path) then begin
        incr failures;
        Printf.printf
          "[FAIL] %s: no golden snapshot at %s (run: dune exec test/test_golden.exe -- update)\n%!"
          id path
      end
      else begin
        let expected = read_file path in
        List.iter
          (fun jobs ->
            let actual, violations =
              if jobs = 4 then with_telemetry (fun () -> render ~jobs)
              else (render ~jobs, [])
            in
            List.iter
              (fun v ->
                incr failures;
                Printf.printf "[FAIL] %s jobs=%d ledger: %s\n%!" id jobs v)
              violations;
            if String.equal expected actual then
              Printf.printf "[OK]   %s jobs=%d%s\n%!" id jobs
                (if jobs = 4 then " (obs+ledger)" else "")
            else begin
              incr failures;
              (match first_diff expected actual with
              | Some (line, want, got) ->
                Printf.printf
                  "[FAIL] %s jobs=%d differs from %s at line %d\n  golden: %s\n  actual: %s\n%!"
                  id jobs path line want got
              | None ->
                Printf.printf "[FAIL] %s jobs=%d differs from %s (length)\n%!" id jobs path)
            end)
          [ 1; 2; 4 ]
      end)
    (tables ());
  (* The battery as [pso_audit theorems --jobs 4 --ledger F --metrics]
     runs it: default parameters, every verdict must hold. *)
  Parallel.Pool.set_default_jobs 4;
  let verdicts, violations =
    with_telemetry (fun () -> Pso.Theorems.all (Prob.Rng.create ~seed ()))
  in
  List.iter
    (fun (v : Pso.Theorems.verdict) ->
      if v.holds then Printf.printf "[OK]   %s holds at jobs=4 (obs+ledger)\n%!" v.id
      else begin
        incr failures;
        Printf.printf "[FAIL] %s REFUTED at jobs=4 (obs+ledger)\n%!" v.id
      end)
    verdicts;
  List.iter
    (fun v ->
      incr failures;
      Printf.printf "[FAIL] theorems jobs=4 ledger: %s\n%!" v)
    violations;
  if !failures > 0 then begin
    Printf.printf
      "%d golden mismatch(es); if the change is intentional, regenerate with\n\
      \  dune exec test/test_golden.exe -- update\n\
       and review the diff.\n%!"
      !failures;
    exit 1
  end

let () =
  match Array.to_list Sys.argv with
  | _ :: "update" :: _ -> update ()
  | [ _ ] -> check ()
  | _ ->
    prerr_endline "usage: test_golden.exe [update]";
    exit 2
