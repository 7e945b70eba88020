(* Live stderr dashboard, fed by Timeline captures.

   On a TTY the previous frame is erased with cursor-up + clear-to-end
   escapes and repainted in place; on a pipe each tick emits one compact
   line instead, so redirected logs stay greppable. It is the only
   heartbeat: the final post-workload capture prints a last line tagged
   "(final)".

   Rendering is generic over whatever metrics the run registered: all
   gauges, the busiest counters by per-interval delta (with rates), and
   sketch quantiles (cumulative p50/p95 plus the window count). Timing-
   class series are marked with a '~' prefix — the same segregation as
   every other export, in one character. *)

let si v =
  let a = Float.abs v in
  if a >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if a >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if a >= 1e3 then Printf.sprintf "%.2fk" (v /. 1e3)
  else if Float.is_integer v then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3g" v

let tag timing name = if timing then "~" ^ name else name

let top_counters ?(k = 4) (p : Timeline.point) =
  p.Timeline.p_counters
  |> List.filter (fun (c : Timeline.csample) -> c.c_value > 0)
  |> List.stable_sort (fun (a : Timeline.csample) b ->
         compare (abs b.c_delta, b.c_value) (abs a.c_delta, a.c_value))
  |> List.filteri (fun i _ -> i < k)

let frame_lines ~jobs (p : Timeline.point) =
  let t_s = Int64.to_float p.Timeline.t_ns /. 1e9 in
  let head =
    Printf.sprintf "[obs] watch tick=%d t=%.1fs jobs=%d%s" p.Timeline.seq t_s
      jobs
      (if p.Timeline.final then " (final)" else "")
  in
  let counters =
    top_counters p
    |> List.map (fun (c : Timeline.csample) ->
           let rate =
             if p.Timeline.dt_ns > 0L then
               float_of_int c.c_delta *. 1e9 /. Int64.to_float p.Timeline.dt_ns
             else 0.
           in
           Printf.sprintf "%s=%s (+%s, %s/s)"
             (tag c.c_timing c.c_name)
             (si (float_of_int c.c_value))
             (si (float_of_int c.c_delta))
             (si rate))
  in
  let gauges =
    p.Timeline.p_gauges
    |> List.map (fun (g : Timeline.gsample) ->
           Printf.sprintf "%s=%s" (tag g.g_timing g.g_name) (si g.g_value))
  in
  let sketches =
    p.Timeline.p_sketches
    |> List.filter (fun (s : Timeline.ssample) -> s.ps_count > 0)
    |> List.map (fun (s : Timeline.ssample) ->
           Printf.sprintf "%s p50=%s p95=%s (n=%s, +%s)"
             (tag s.ps_timing s.ps_name)
             (si s.ps_p50) (si s.ps_p95)
             (si (float_of_int s.ps_count))
             (si (float_of_int s.ps_wcount)))
  in
  let section label = function
    | [] -> []
    | items -> [ "  " ^ label ^ ": " ^ String.concat "  " items ]
  in
  (head :: section "counters" counters)
  @ section "gauges" gauges
  @ section "sketches" sketches

let compact_line ~jobs (p : Timeline.point) =
  let t_s = Int64.to_float p.Timeline.t_ns /. 1e9 in
  let counters =
    top_counters ~k:3 p
    |> List.map (fun (c : Timeline.csample) ->
           Printf.sprintf "%s=%s"
             (tag c.c_timing c.c_name)
             (si (float_of_int c.c_value)))
    |> String.concat " "
  in
  Printf.sprintf "[obs] watch tick=%d t=%.1fs jobs=%d %s%s" p.Timeline.seq t_s
    jobs counters
    (if p.Timeline.final then " (final)" else "")

let subscriber ?tty ~jobs () : Timeline.subscriber =
  let tty =
    match tty with Some b -> b | None -> Unix.isatty Unix.stderr
  in
  let prev_lines = ref 0 in
  fun _values p ->
    if tty then begin
      let lines = frame_lines ~jobs p in
      if !prev_lines > 0 then Printf.eprintf "\027[%dA\027[J" !prev_lines;
      List.iter (fun l -> Printf.eprintf "%s\n" l) lines;
      prev_lines := List.length lines;
      flush stderr
    end
    else begin
      Printf.eprintf "%s\n%!" (compact_line ~jobs p)
    end
