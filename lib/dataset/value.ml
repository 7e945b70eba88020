type date = { year : int; month : int; day : int }

type t =
  | Int of int
  | Float of float
  | String of string
  | Date of date
  | Bool of bool
  | Null

type kind = Kint | Kfloat | Kstring | Kdate | Kbool

let kind_of = function
  | Int _ -> Some Kint
  | Float _ -> Some Kfloat
  | String _ -> Some Kstring
  | Date _ -> Some Kdate
  | Bool _ -> Some Kbool
  | Null -> None

let kind_name = function
  | Kint -> "int"
  | Kfloat -> "float"
  | Kstring -> "string"
  | Kdate -> "date"
  | Kbool -> "bool"

let date_ordinal d = (d.year * 372) + ((d.month - 1) * 31) + (d.day - 1)

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Date _ -> 4
  | String _ -> 5

let compare a b =
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | String x, String y -> String.compare x y
  | Date x, Date y -> Int.compare (date_ordinal x) (date_ordinal y)
  | Bool x, Bool y -> Bool.compare x y
  | Null, Null -> 0
  | (Int _ | Float _ | String _ | Date _ | Bool _ | Null), _ ->
    Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Two rounds of folding the high bits into the low ones and multiplying
   by an odd constant (the shape of MurmurHash3's 64-bit finaliser), so
   every input bit reaches the low bits that hash tables pick buckets by.
   Allocates nothing. *)
let hash_mix h =
  let h = (h lxor (h lsr 32)) * 0x1E3779B97F4A7C15 in
  let h = (h lxor (h lsr 29)) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land max_int

(* Agrees with [equal]: an int hashes through [hash_mix] (no [caml_hash]
   call), dates equal by ordinal hash by it, and [Hashtbl.hash] already
   maps every [nan] to one hash and [-0.] to [0.]'s, as [Float.compare]
   equates them. *)
let hash = function
  | Int i -> hash_mix i
  | Date d -> Hashtbl.hash (date_ordinal d)
  | v -> Hashtbl.hash v

let to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.12g" f
  | String s -> s
  | Date d -> Printf.sprintf "%04d-%02d-%02d" d.year d.month d.day
  | Bool b -> string_of_bool b
  | Null -> ""

let make_date ~year ~month ~day =
  if month < 1 || month > 12 then invalid_arg "Value.make_date: bad month";
  if day < 1 || day > 31 then invalid_arg "Value.make_date: bad day";
  Date { year; month; day }

let of_string kind s =
  if s = "" then Null
  else
    match kind with
    | Kint -> (
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> failwith (Printf.sprintf "Value.of_string: bad int %S" s))
    | Kfloat -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> failwith (Printf.sprintf "Value.of_string: bad float %S" s))
    | Kstring -> String s
    | Kbool -> (
      match bool_of_string_opt s with
      | Some b -> Bool b
      | None -> failwith (Printf.sprintf "Value.of_string: bad bool %S" s))
    | Kdate -> (
      match String.split_on_char '-' s with
      | [ y; m; d ] -> (
        match (int_of_string_opt y, int_of_string_opt m, int_of_string_opt d) with
        | Some year, Some month, Some day -> make_date ~year ~month ~day
        | _ -> failwith (Printf.sprintf "Value.of_string: bad date %S" s))
      | _ -> failwith (Printf.sprintf "Value.of_string: bad date %S" s))

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Date d -> Some (float_of_int (date_ordinal d))
  | Bool b -> Some (if b then 1. else 0.)
  | String _ | Null -> None
