exception Overflow

(* Checked native-integer arithmetic. The checker's verdicts are exact
   statements about integers, so a silent wrap-around would be a soundness
   bug; any overflow raises instead, and callers treat an unverifiable
   certificate as rejected. *)

let add_exn a b =
  let s = a + b in
  if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) then
    raise Overflow
  else s

let mul_exn a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if a = min_int || b = min_int || p / b <> a then raise Overflow else p

let neg_exn a = if a = min_int then raise Overflow else -a

type t = { num : int; den : int }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let make num den =
  if den = 0 then invalid_arg "Q.make: zero denominator";
  let num, den = if den < 0 then (neg_exn num, neg_exn den) else (num, den) in
  if num = 0 then { num = 0; den = 1 }
  else
    let g = gcd (abs num) den in
    { num = num / g; den = den / g }

let zero = { num = 0; den = 1 }
let one = { num = 1; den = 1 }
let of_int n = { num = n; den = 1 }
let num t = t.num

let add a b =
  make (add_exn (mul_exn a.num b.den) (mul_exn b.num a.den)) (mul_exn a.den b.den)

let neg a = { a with num = neg_exn a.num }
let mul a b = make (mul_exn a.num b.num) (mul_exn a.den b.den)

let div a b =
  if b.num = 0 then raise Division_by_zero;
  make (mul_exn a.num b.den) (mul_exn a.den b.num)

let compare a b = Int.compare (mul_exn a.num b.den) (mul_exn b.num a.den)
let equal a b = compare a b = 0
let leq a b = compare a b <= 0
let lt a b = compare a b < 0
let sign a = Int.compare a.num 0

let to_string t =
  if t.den = 1 then string_of_int t.num
  else Printf.sprintf "%d/%d" t.num t.den
