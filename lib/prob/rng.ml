(* The 64-bit state lives in an 8-byte buffer, read and written in place,
   so advancing it boxes nothing; [bits64] is inlined into every draw below,
   so [uniform], [int] and [bool] allocate nothing beyond their own result. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let default_seed = 0x5DEECE66DL

let of_state seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let create ?(seed = default_seed) () = of_state seed

let copy = Bytes.copy

(* SplitMix64 output function: advance by the golden gamma, then mix. *)
let[@inline] bits64 t =
  let open Int64 in
  let z = add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let split t = of_state (bits64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias: accept draws below the largest
     multiple of [bound] that fits in 63 bits. *)
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub Int64.max_int (Int64.rem Int64.max_int bound64) in
  let r = ref (Int64.shift_right_logical (bits64 t) 1) in
  while !r >= limit do
    r := Int64.shift_right_logical (bits64 t) 1
  done;
  Int64.to_int (Int64.rem !r bound64)

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let uniform t =
  (* 53 random bits into [0, 1). *)
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Floyd's algorithm: O(k) expected insertions. *)
  let chosen = Hashtbl.create (2 * k) in
  for j = n - k to n - 1 do
    let r = int t (j + 1) in
    if Hashtbl.mem chosen r then Hashtbl.replace chosen j ()
    else Hashtbl.replace chosen r ()
  done;
  let out = Hashtbl.fold (fun i () acc -> i :: acc) chosen [] in
  let arr = Array.of_list out in
  Array.sort compare arr;
  arr
