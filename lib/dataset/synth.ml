let first_names =
  [| "Ada"; "Alan"; "Barbara"; "Carl"; "Dana"; "Edsger"; "Frances"; "Grace";
     "Hedy"; "Ivan"; "Joan"; "Kurt"; "Lynn"; "Marvin"; "Niklaus"; "Olga";
     "Peter"; "Quinn"; "Radia"; "Shafi"; "Tim"; "Ursula"; "Vint"; "Whitfield";
     "Xiao"; "Yael"; "Zvi"; "Adele"; "Boris"; "Clara"; "Dennis"; "Erna";
     "Fred"; "Gita"; "Haim"; "Ingrid"; "Jack"; "Karen"; "Leslie"; "Miriam" |]

let last_names =
  [| "Lovelace"; "Turing"; "Liskov"; "Sagan"; "Scott"; "Dijkstra"; "Allen";
     "Hopper"; "Lamarr"; "Sutherland"; "Clarke"; "Goedel"; "Conway";
     "Minsky"; "Wirth"; "Taussky"; "Naur"; "Shannon"; "Perlman"; "Goldwasser";
     "Lee"; "Franklin"; "Cerf"; "Diffie"; "Ling"; "Tauman"; "Galil";
     "Goldstine"; "Delone"; "Rockmore"; "Ritchie"; "Hoover"; "Brooks";
     "Rani"; "Kedem"; "Daubechies"; "Kilby"; "Jones"; "Lamport"; "Balaban" |]

let diseases_by_group =
  [
    ("PULM", [ "COVID"; "CF"; "Asthma"; "COPD"; "Pneumonia" ]);
    ("CARD", [ "CAD"; "Arrhythmia"; "Hypertension"; "CHF" ]);
    ("META", [ "Diabetes"; "Obesity"; "Thyroiditis" ]);
    ("ONC", [ "Lymphoma"; "Melanoma"; "Leukemia" ]);
  ]

let disease_taxonomy =
  Hierarchy.Node
    ( "ANY-DX",
      List.map
        (fun (group, names) ->
          Hierarchy.Node
            (group, List.map (fun n -> Hierarchy.Leaf (Value.String n)) names))
        diseases_by_group )

let disease_hierarchy = Hierarchy.categorical ~name:"disease" disease_taxonomy

let demographic_schema =
  Schema.make
    [
      { Schema.name = "id"; kind = Value.Kint; role = Schema.Identifier };
      { Schema.name = "name"; kind = Value.Kstring; role = Schema.Identifier };
      { Schema.name = "zip"; kind = Value.Kstring; role = Schema.Quasi_identifier };
      { Schema.name = "birth_date"; kind = Value.Kdate; role = Schema.Quasi_identifier };
      { Schema.name = "sex"; kind = Value.Kstring; role = Schema.Quasi_identifier };
      { Schema.name = "disease"; kind = Value.Kstring; role = Schema.Sensitive };
    ]

let zip_codes count =
  (* Deterministic, distinct 5-digit codes. *)
  List.init count (fun i -> Printf.sprintf "%05d" (10000 + (i * 137 mod 89000)))

let zip_distribution count =
  let codes = zip_codes count in
  Prob.Distribution.of_weights
    (List.mapi
       (fun i code ->
         (Value.String code, 1. /. Float.pow (float_of_int (i + 1)) 0.8))
       codes)

(* 1930-1999, 12 months, 28 days: 23 520 distinct dates. Built per model,
   not at module initialisation: every process linking this library would
   otherwise pay for it at start-up. *)
let birth_date_distribution () =
  Prob.Distribution.uniform
    (List.concat_map
       (fun y ->
         List.concat_map
           (fun m ->
             List.init 28 (fun d ->
                 Value.make_date ~year:(1930 + y) ~month:(m + 1) ~day:(d + 1)))
           (List.init 12 Fun.id))
       (List.init 70 Fun.id))

let sex_distribution =
  Prob.Distribution.of_weights [ (Value.String "F", 0.51); (Value.String "M", 0.49) ]

let disease_distribution =
  let all = List.concat_map snd diseases_by_group in
  Prob.Distribution.of_weights
    (List.mapi
       (fun i n ->
         (Value.String n, 1. /. Float.pow (float_of_int (i + 1)) 0.5))
       all)

let gic_model ?(zips = 50) () =
  let schema =
    Schema.make
      [
        { Schema.name = "zip"; kind = Value.Kstring; role = Schema.Quasi_identifier };
        { Schema.name = "birth_date"; kind = Value.Kdate; role = Schema.Quasi_identifier };
        { Schema.name = "sex"; kind = Value.Kstring; role = Schema.Quasi_identifier };
        { Schema.name = "disease"; kind = Value.Kstring; role = Schema.Sensitive };
      ]
  in
  Model.make schema
    [
      ("zip", zip_distribution zips);
      ("birth_date", birth_date_distribution ());
      ("sex", sex_distribution);
      ("disease", disease_distribution);
    ]

let population rng ~n ?(zips = 50) () =
  let model = gic_model ~zips () in
  let rows =
    Array.init n (fun i ->
        let qi = Model.sample_row rng model in
        let first = first_names.(Prob.Rng.int rng (Array.length first_names)) in
        let last = last_names.(Prob.Rng.int rng (Array.length last_names)) in
        let name = Printf.sprintf "%s %s #%d" first last i in
        Array.append [| Value.Int i; Value.String name |] qi)
  in
  Table.make demographic_schema rows

let gic_release table =
  let keep =
    Schema.attributes (Table.schema table)
    |> Array.to_list
    |> List.filter (fun a -> a.Schema.role <> Schema.Identifier)
    |> List.map (fun a -> a.Schema.name)
  in
  Table.project table keep

let voter_list rng table ~coverage =
  if coverage < 0. || coverage > 1. then invalid_arg "Synth.voter_list: coverage";
  let projected = Table.project table [ "name"; "zip"; "birth_date"; "sex" ] in
  let kept =
    Array.of_list
      (List.filter
         (fun _ -> Prob.Sampler.bernoulli rng ~p:coverage)
         (List.init (Table.nrows projected) Fun.id))
  in
  Table.select projected kept

let pso_model ~attributes ~values_per_attribute =
  if attributes < 1 then invalid_arg "Synth.pso_model: attributes";
  if values_per_attribute < 2 then invalid_arg "Synth.pso_model: values";
  let attr i =
    let role =
      if i = 0 then Schema.Quasi_identifier
      else if i = attributes - 1 then Schema.Sensitive
      else Schema.Quasi_identifier
    in
    { Schema.name = Printf.sprintf "a%d" i; kind = Value.Kint; role }
  in
  let schema = Schema.make (List.init attributes attr) in
  let dist = Prob.Distribution.uniform (List.init values_per_attribute (fun v -> Value.Int v)) in
  Model.make schema
    (List.init attributes (fun i -> (Printf.sprintf "a%d" i, dist)))

let kanon_pso_model ~qis ~retained ~domain =
  if qis < 1 || retained < 0 then invalid_arg "Synth.kanon_pso_model";
  if domain < 2 then invalid_arg "Synth.kanon_pso_model: domain";
  let attr role prefix i =
    { Schema.name = Printf.sprintf "%s%d" prefix i; kind = Value.Kint; role }
  in
  let attrs =
    List.init qis (attr Schema.Quasi_identifier "q")
    @ List.init retained (fun i ->
          (* The first retained attribute doubles as the sensitive payload so
             l-diversity / t-closeness checks have something to measure. *)
          attr (if i = 0 then Schema.Sensitive else Schema.Insensitive) "r" i)
  in
  let schema = Schema.make attrs in
  let dist = Prob.Distribution.uniform (List.init domain (fun v -> Value.Int v)) in
  Model.make schema
    (List.map (fun a -> (a.Schema.name, dist)) attrs)

type rating = { user : int; movie : int; stars : int; day : int }

let ratings rng ~users ~movies ~ratings_per_user =
  if users <= 0 || movies <= 0 || ratings_per_user <= 0 then
    invalid_arg "Synth.ratings";
  let popularity = Prob.Distribution.zipf movies in
  let base_score = Array.init movies (fun _ -> 1 + Prob.Rng.int rng 5) in
  let out = ref [] in
  for user = 0 to users - 1 do
    let seen = Hashtbl.create ratings_per_user in
    let count = max 1 (ratings_per_user + Prob.Rng.int_in rng (-2) 2) in
    let attempts = ref 0 in
    while Hashtbl.length seen < count && !attempts < count * 20 do
      incr attempts;
      let movie = Prob.Distribution.sample rng popularity in
      if not (Hashtbl.mem seen movie) then begin
        Hashtbl.replace seen movie ();
        let jitter = Prob.Rng.int_in rng (-1) 1 in
        let stars = min 5 (max 1 (base_score.(movie) + jitter)) in
        let day = Prob.Rng.int rng 730 in
        out := { user; movie; stars; day } :: !out
      end
    done
  done;
  Array.of_list (List.rev !out)

let ratings_by_user ratings ~users =
  let buckets = Array.make users [] in
  Array.iter (fun r -> buckets.(r.user) <- r :: buckets.(r.user)) ratings;
  Array.map (fun l -> Array.of_list (List.rev l)) buckets

type census_person = {
  block : int;
  sex : int;
  age : int;
  race : int;
  ethnicity : int;
  person_name : string;
}

let census_race_dist =
  Prob.Distribution.of_weights
    [ (0, 0.60); (1, 0.13); (2, 0.06); (3, 0.09); (4, 0.03); (5, 0.09) ]

let census_block rng ~block ~mean_block_size =
  if block < 0 || mean_block_size <= 0 then invalid_arg "Synth.census_block";
  let size = 1 + Prob.Sampler.geometric rng ~p:(1. /. float_of_int mean_block_size) in
  (* Real census blocks are strongly segregated by race/ethnicity — the
     homogeneity that makes marginal tables nearly determine the joint
     distribution (and reconstruction so sharp). *)
  let dominant_race = Prob.Distribution.sample rng census_race_dist in
  let block_eth_rate = if Prob.Sampler.bernoulli rng ~p:0.2 then 0.6 else 0.05 in
  Array.init size (fun i ->
      let first = first_names.(Prob.Rng.int rng (Array.length first_names)) in
      let last = last_names.(Prob.Rng.int rng (Array.length last_names)) in
      let sex = Prob.Rng.int rng 2 in
      let age = Prob.Rng.int rng 100 in
      let race =
        if Prob.Sampler.bernoulli rng ~p:0.85 then dominant_race
        else Prob.Distribution.sample rng census_race_dist
      in
      let ethnicity =
        if Prob.Sampler.bernoulli rng ~p:block_eth_rate then 1 else 0
      in
      (* Every draw is let-bound above: record-field evaluation order is
         unspecified, so drawing inside the literal would make the people
         depend on the compiler. *)
      {
        block;
        sex;
        age;
        race;
        ethnicity;
        person_name = Printf.sprintf "%s %s #%d-%d" first last block i;
      })

let census_population rng ~blocks ~mean_block_size =
  if blocks <= 0 || mean_block_size <= 0 then invalid_arg "Synth.census_population";
  Array.concat
    (List.init blocks (fun block -> census_block rng ~block ~mean_block_size))

type genotypes = {
  frequencies : float array;
  pool : bool array array;
  reference : bool array array;
  outsiders : bool array array;
}

let genotype_study rng ~people ~snps ?(reference_size = 200) () =
  if people <= 0 || snps <= 0 then invalid_arg "Synth.genotype_study";
  let frequencies =
    Array.init snps (fun _ -> 0.05 +. (0.9 *. Prob.Rng.uniform rng))
  in
  let person () = Array.map (fun f -> Prob.Sampler.bernoulli rng ~p:f) frequencies in
  {
    frequencies;
    pool = Array.init people (fun _ -> person ());
    reference = Array.init reference_size (fun _ -> person ());
    outsiders = Array.init people (fun _ -> person ());
  }
