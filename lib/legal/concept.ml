type t =
  | Singling_out
  | Linkability
  | Inference
  | Identifiability
  | Personal_data
  | Anonymous_data

let name = function
  | Singling_out -> "singling out"
  | Linkability -> "linkability"
  | Inference -> "inference"
  | Identifiability -> "identifiability"
  | Personal_data -> "personal data"
  | Anonymous_data -> "anonymous data"

let enables = function
  | Singling_out -> [ Identifiability ]
  | Linkability -> [ Identifiability ]
  | Inference -> [ Identifiability ]
  | Identifiability -> [ Personal_data ]
  | Personal_data -> []
  | Anonymous_data -> []

let rec enables_transitively a b =
  a = b || List.exists (fun c -> enables_transitively c b) (enables a)

let anonymity_requires_preventing = function
  | Singling_out | Linkability | Inference -> true
  | Identifiability | Personal_data | Anonymous_data -> false
