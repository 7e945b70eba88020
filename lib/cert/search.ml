type counterexample = {
  output : int;
  direction : Witness.direction;
  p_src : Q.t;
  p_dst : Q.t;
}

type outcome =
  | Certified of Witness.t * Witness.t
  | Refuted of counterexample
  | No_witness of string

let refute (m : Model.t) =
  let dist_a = Model.output_dist m A and dist_b = Model.output_dist m B in
  let violation direction p_src p_dst output =
    if Q.lt (Q.mul m.bound p_dst) p_src then
      Some { output; direction; p_src; p_dst }
    else None
  in
  let rec scan o =
    if o >= m.outputs then None
    else
      match violation Witness.A_to_b dist_a.(o) dist_b.(o) o with
      | Some c -> Some c
      | None -> (
        match violation Witness.B_to_a dist_b.(o) dist_a.(o) o with
        | Some c -> Some c
        | None -> scan (o + 1))
  in
  scan 0

let align (m : Model.t) direction =
  let src, dst =
    match direction with
    | Witness.A_to_b -> (Model.A, Model.B)
    | Witness.B_to_a -> (Model.B, Model.A)
  in
  let mass_src = Model.mass m src in
  let out_src = Model.out m src and out_dst = Model.out m dst in
  (* A source may only align to a destination atom of its own output
     class, so each source's candidates are that class's atoms, in
     ascending order; the cap Λ·mass_dst(t) is computed once per atom. *)
  let cap = Array.map (Q.mul m.bound) (Model.mass m dst) in
  let class_atoms = Array.make m.outputs [] in
  for t = m.atoms - 1 downto 0 do
    class_atoms.(out_dst.(t)) <- t :: class_atoms.(out_dst.(t))
  done;
  let class_atoms = Array.map Array.of_list class_atoms in
  let candidates source = class_atoms.(out_src.(source)) in
  let fits source target = Q.leq mass_src.(source) cap.(target) in
  (* matched.(t) is the source currently aligned to destination atom t,
     or -1. A greedy pass gives each support source its first free
     candidate; Kuhn's augmenting paths then place the sources it left
     over. Starting Kuhn from any matching keeps it complete (Berge): if
     a left-over source has no augmenting path, no injective alignment
     of the whole support exists. *)
  let matched = Array.make m.atoms (-1) in
  let visited = Array.make m.atoms false in
  let greedy source =
    match
      Array.find_opt (fun t -> matched.(t) < 0 && fits source t) (candidates source)
    with
    | Some t ->
      matched.(t) <- source;
      true
    | None -> false
  in
  let rec augment source =
    Array.exists
      (fun t ->
        (not visited.(t)) && fits source t
        && begin
          visited.(t) <- true;
          (matched.(t) < 0 || augment matched.(t))
          && begin
            matched.(t) <- source;
            true
          end
        end)
      (candidates source)
  in
  let support = List.filter (fun i -> Q.sign mass_src.(i) > 0) (List.init m.atoms Fun.id) in
  let left_over = List.filter (fun source -> not (greedy source)) support in
  let complete =
    List.for_all
      (fun source ->
        Array.fill visited 0 m.atoms false;
        augment source)
      left_over
  in
  if not complete then None
  else begin
    let map = Array.init m.atoms (fun i -> i) in
    Array.iteri (fun target source -> if source >= 0 then map.(source) <- target) matched;
    Some { Witness.direction; map }
  end

let direction_name = function
  | Witness.A_to_b -> "A against B"
  | Witness.B_to_a -> "B against A"

let certify m =
  match refute m with
  | Some c -> Refuted c
  | None -> (
    match (align m Witness.A_to_b, align m Witness.B_to_a) with
    | Some w_ab, Some w_ba -> (
      (* The matching is untrusted; only the exhaustive checker's verdict
         counts. *)
      match Witness.check_pair m w_ab w_ba with
      | Ok () -> Certified (w_ab, w_ba)
      | Error fs ->
        No_witness
          (Format.asprintf "search produced an invalid witness: %a"
             Witness.pp_failure (List.hd fs)))
    | None, _ -> No_witness ("no injective alignment of " ^ direction_name Witness.A_to_b)
    | _, None -> No_witness ("no injective alignment of " ^ direction_name Witness.B_to_a))

let pp_counterexample ~label fmt c =
  let src, dst =
    match c.direction with A_to_b -> ("A", "B") | B_to_a -> ("B", "A")
  in
  Format.fprintf fmt "Pr[%s -> %s] = %s > bound * Pr[%s -> %s] = bound * %s"
    src (label c.output) (Q.to_string c.p_src) dst (label c.output)
    (Q.to_string c.p_dst)
