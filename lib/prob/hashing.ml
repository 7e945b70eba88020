let fnv_offset = 0xCBF29CE484222325L

let fnv_prime = 0x100000001B3L

(* SplitMix64 finalizer, used to diffuse the salt through the FNV digest. *)
let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* A plain loop over a local accumulator, which the compiler keeps
   unboxed: no allocation per byte. *)
let hash64_prefix ~salt b len =
  if len < 0 || len > Bytes.length b then invalid_arg "Hashing.hash64_prefix: len";
  let h = ref (Int64.logxor fnv_offset salt) in
  for i = 0 to len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)))) fnv_prime
  done;
  mix (Int64.add !h salt)

let hash64 ~salt s = hash64_prefix ~salt (Bytes.unsafe_of_string s) (String.length s)

let bucket ~salt ~buckets s =
  if buckets <= 0 then invalid_arg "Hashing.bucket: buckets must be positive";
  let h = Int64.shift_right_logical (hash64 ~salt s) 1 in
  Int64.to_int (Int64.rem h (Int64.of_int buckets))

let bit ~salt ~index s =
  if index < 0 || index > 63 then invalid_arg "Hashing.bit: index out of range";
  Int64.logand (Int64.shift_right_logical (hash64 ~salt s) index) 1L = 1L
