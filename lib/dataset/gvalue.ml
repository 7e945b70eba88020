type t =
  | Exact of Value.t
  | Int_range of int * int
  | Float_range of float * float
  | Prefix of string * int
  | Category of { label : string; members : Value.t list }
  | Any

let matches g v =
  match (g, v) with
  | Any, _ -> true
  | _, Value.Null -> false
  | Exact x, _ -> Value.equal x v
  | Int_range (lo, hi), Value.Int i -> lo <= i && i <= hi
  | Int_range (lo, hi), Value.Date d ->
    let o = Value.date_ordinal d in
    lo <= o && o <= hi
  | Int_range _, _ -> false
  | Float_range (lo, hi), _ -> (
    match Value.to_float v with Some f -> lo <= f && f < hi | None -> false)
  | Prefix (s, k), Value.String x ->
    String.length x = String.length s
    && k <= String.length x
    && String.sub x 0 k = String.sub s 0 k
  | Prefix _, _ -> false
  | Category { members; _ }, _ -> List.exists (fun m -> Value.equal m v) members

let of_value v = Exact v

let is_suppressed = function Any -> true | _ -> false

let to_string = function
  | Exact v -> Value.to_string v
  | Int_range (lo, hi) -> Printf.sprintf "%d-%d" lo hi
  | Float_range (lo, hi) -> Printf.sprintf "[%.6g,%.6g)" lo hi
  | Prefix (s, k) ->
    let n = String.length s in
    if k >= n then s else String.sub s 0 k ^ String.make (n - k) '*'
  | Category { label; _ } -> label
  | Any -> "*"

let span g ~domain_size =
  if domain_size <= 0. then 0.
  else
    match g with
    | Exact _ -> 0.
    | Any -> 1.
    | Int_range (lo, hi) ->
      Float.min 1. (float_of_int (hi - lo) /. domain_size)
    | Float_range (lo, hi) -> Float.min 1. ((hi -. lo) /. domain_size)
    | Prefix (s, k) ->
      let wild = String.length s - k in
      Float.min 1. (Float.pow 10. (float_of_int wild) /. domain_size)
    | Category { members; _ } ->
      Float.min 1. (float_of_int (List.length members) /. domain_size)

let equal a b =
  match (a, b) with
  | Exact x, Exact y -> Value.equal x y
  | Int_range (a1, a2), Int_range (b1, b2) -> a1 = b1 && a2 = b2
  | Float_range (a1, a2), Float_range (b1, b2) -> a1 = b1 && a2 = b2
  | Prefix (s1, k1), Prefix (s2, k2) ->
    k1 = k2
    && String.length s1 = String.length s2
    && (k1 >= String.length s1 || String.sub s1 0 k1 = String.sub s2 0 k1)
    && (if k1 < String.length s1 then true else s1 = s2)
  | Category { label = l1; _ }, Category { label = l2; _ } -> l1 = l2
  | Any, Any -> true
  | (Exact _ | Int_range _ | Float_range _ | Prefix _ | Category _ | Any), _ ->
    false

(* Agrees with [equal]: exact values hash as [Value.hash]; an integer
   range through [Value.hash_mix], since full-domain ranges share their
   low bits; a prefix by its kept characters (read in place, no
   [String.sub]) and its length, since [equal] ignores the hidden tail; a
   category by its label. Float ranges go through [Hashtbl.hash], which
   hashes [-0.] as [0.]. *)
let hash = function
  | Exact v -> Value.hash v
  | Int_range (lo, hi) -> Value.hash_mix ((lo * 31) + hi)
  | Float_range (lo, hi) -> ((Hashtbl.hash lo * 31) + Hashtbl.hash hi) land max_int
  | Prefix (s, k) ->
    let n = String.length s in
    let h = ref ((n * 31) + k) in
    for i = 0 to min k n - 1 do
      h := (!h * 31) + Char.code (String.unsafe_get s i)
    done;
    !h land max_int
  | Category { label; _ } -> Hashtbl.hash label
  | Any -> 0
