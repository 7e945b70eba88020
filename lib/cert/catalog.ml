module F = Dp.Finite

type entry = {
  name : string;
  spec : F.spec;
  model : Model.t;
  negative : bool;
  note : string;
}

let entry ?(negative = false) ~note spec =
  { name = spec.F.name; spec; model = Model.of_spec_exn spec; negative; note }

let production () =
  [
    entry ~note:"cyclic geometric alpha 1/2 span 6 (discretized Laplace count)"
      (F.laplace_pair ());
    entry ~note:"cyclic geometric alpha 1/3 span 5" (F.geometric_pair ());
    entry ~note:"two atoms, truth weight 3 vs lie weight 1, opposite true bits"
      (F.randomized_response_spec ());
    entry ~note:"3 cells x cyclic geometric alpha 1/2 span 2; record in cell 0"
      (F.histogram_pair ());
    entry ~note:"2-candidate difference model, cyclic geometric alpha 1/2 span 4"
      (F.noisy_max_pair ());
    entry ~note:"AboveThreshold transcript, 3 queries, threshold-shift alignment"
      (F.sparse_vector_pair ());
    entry ~note:"weights 2^u, sensitivity-1 utilities, identity alignment"
      (F.exponential_spec ());
    entry
      ~note:"q=1/2 subsampling of cyclic geometric alpha 1/2 span 4, keep-bit marginalized"
      (F.subsample_pair ());
  ]

(* Negative controls: the weights realize each defect's ACTUAL privacy
   loss while the entry claims the bound of the advertised eps, so the
   complete search (or the exact refuter) must reject every one. *)
let control_spec (c : Stattest.Controls.spec) =
  match c.kind with
  | Stattest.Controls.Laplace_half_scale ->
    F.counting_pair ~name:c.name ~alpha:(1, 4) ~span:4 ~bound:(2, 1)
      ~epsilon_label:"claims eps = ln 2, delivers 2 ln 2"
  | Stattest.Controls.Geometric_triple_epsilon ->
    F.counting_pair ~name:c.name ~alpha:(1, 8) ~span:3 ~bound:(2, 1)
      ~epsilon_label:"claims eps = ln 2, delivers 3 ln 2"
  | Stattest.Controls.Exponential_missing_half ->
    F.exponential_pair ~name:c.name ~base:4 ~utilities_a:[| 0; 1; 2; 3 |]
      ~utilities_b:[| 1; 0; 1; 2 |] ~bound:(4, 1)
      ~epsilon_label:"claims eps = 2 ln 2, weights use e^eps not e^(eps/2)"
  | Stattest.Controls.Randomized_response_double_epsilon ->
    F.randomized_response_pair ~name:c.name ~lambda:9 ~bound:(3, 1)
      ~epsilon_label:"claims eps = ln 3, delivers 2 ln 3"

let controls () =
  List.map
    (fun (c : Stattest.Controls.spec) ->
      entry ~negative:true ~note:c.summary (control_spec c))
    Stattest.Controls.all

let all () = production () @ controls ()

let find name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun e -> String.lowercase_ascii e.name = name) (all ())
