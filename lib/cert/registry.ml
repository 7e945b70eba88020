type row = { entry : Catalog.entry; verdict : Search.outcome }

let verify (e : Catalog.entry) = Search.certify e.model

let verify_all () =
  List.map (fun entry -> { entry; verdict = verify entry }) (Catalog.all ())

let row_ok { entry; verdict } =
  match verdict with
  | Search.Certified _ -> not entry.negative
  | Search.Refuted _ | Search.No_witness _ -> entry.negative

let all_ok rows = List.for_all row_ok rows

let verdict_text { entry; verdict } =
  match verdict with
  | Search.Certified _ ->
    "CERTIFIED  search-derived alignment verified both directions"
  | Search.Refuted c ->
    Format.asprintf "REJECTED   refuted: %a"
      (Search.pp_counterexample ~label:entry.spec.Dp.Finite.out_label)
      c
  | Search.No_witness reason -> Printf.sprintf "REJECTED   %s" reason

let render_table rows =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "machine-checked eps-DP certificates (randomness alignment, exact rationals)\n";
  add "%-28s %-11s %6s %6s  %-11s %s\n" "mechanism" "kind" "e^eps" "atoms"
    "expectation" "verdict";
  List.iter
    (fun ({ entry; _ } as row) ->
      add "%-28s %-11s %6s %6d  %-11s %s%s\n" entry.Catalog.name
        (if entry.negative then "control" else "production")
        (Q.to_string entry.model.Model.bound)
        entry.model.Model.atoms
        (if entry.negative then "reject" else "certify")
        (verdict_text row)
        (if row_ok row then "" else "  [UNEXPECTED]"))
    rows;
  let certified =
    List.length
      (List.filter
         (fun r -> (not r.entry.Catalog.negative) && row_ok r)
         rows)
  in
  let production =
    List.length (List.filter (fun r -> not r.entry.Catalog.negative) rows)
  in
  let rejected =
    List.length
      (List.filter (fun r -> r.entry.Catalog.negative && row_ok r) rows)
  in
  let controls =
    List.length (List.filter (fun r -> r.entry.Catalog.negative) rows)
  in
  add "%d/%d production mechanisms certified; %d/%d negative controls rejected -> %s\n"
    certified production rejected controls
    (if all_ok rows then "OK" else "FAIL");
  Buffer.contents buf

(* --- Tamper suite ---------------------------------------------------- *)

let first_support mass =
  let rec go i = if Q.sign mass.(i) > 0 then i else go (i + 1) in
  go 0

(* A target whose destination output class differs from the source's —
   guaranteed to exist because no model here has a constant output map. *)
let class_mismatch_target (m : Model.t) source =
  let out_src = (Model.out m A).(source) in
  let out_dst = Model.out m B in
  let rec go t =
    if t >= m.atoms then None
    else if out_dst.(t) <> out_src then Some t
    else go (t + 1)
  in
  go 0

let tampers (m : Model.t) (w_ab : Witness.t) =
  let mass = Model.mass m A in
  let i = first_support mass in
  let with_map f =
    let map = Array.copy w_ab.map in
    f map;
    { Witness.direction = Witness.A_to_b; map }
  in
  let shifted =
    match class_mismatch_target m i with
    | Some t -> [ ("shifted-target", with_map (fun map -> map.(i) <- t)) ]
    | None -> []
  in
  let collided =
    (* Collide a second support atom onto the first one's target. *)
    let rec next j =
      if j >= m.atoms then None
      else if j <> i && Q.sign mass.(j) > 0 then Some j
      else next (j + 1)
    in
    match next 0 with
    | Some j ->
      [ ("collided-targets", with_map (fun map -> map.(j) <- w_ab.map.(i))) ]
    | None -> []
  in
  let out_of_range =
    [ ("out-of-range-target", with_map (fun map -> map.(i) <- m.atoms)) ]
  in
  shifted @ collided @ out_of_range

type tamper_result = { entry_name : string; tamper : string; rejected : bool }

let tamper_suite () =
  List.concat_map
    (fun (e : Catalog.entry) ->
      match verify e with
      | Search.Certified (w_ab, _) ->
        List.map
          (fun (tamper, bad) ->
            {
              entry_name = e.name;
              tamper;
              rejected = Result.is_error (Witness.check e.model bad);
            })
          (tampers e.model w_ab)
      | _ -> [])
    (Catalog.production ())
