module Mechanism = Query.Mechanism
module Predicate = Query.Predicate

(* Independent salts for the digest and the pad, derived from the base salt
   via the SplitMix64 finalizer (reused through Hashing.hash64 on tags). *)
let digest_salt salt = Prob.Hashing.hash64 ~salt "pso-pad-digest"

let pad_salt salt = Prob.Hashing.hash64 ~salt "pso-pad-mask"

let digest ~salt row = Predicate.hash_row (Predicate.encoder ()) ~salt:(digest_salt salt) row

let pad ~salt table =
  let e = Predicate.encoder () in
  let salt = pad_salt salt in
  let acc = ref 0L in
  let rows = Dataset.Table.rows table in
  for i = 1 to Array.length rows - 1 do
    acc := Int64.logxor !acc (Predicate.hash_row e ~salt rows.(i))
  done;
  !acc

let digest_predicate ~salt v =
  let salt = digest_salt salt in
  Predicate.conj
    (List.init 64 (fun index ->
         let bit = Int64.logand (Int64.shift_right_logical v index) 1L = 1L in
         let atom = Predicate.Atom (Predicate.Hash_bit { index; salt }) in
         if bit then atom else Predicate.Not atom))

type t = {
  m1 : Query.Mechanism.t;
  m2 : Query.Mechanism.t;
  composed : Query.Mechanism.t;
  joint_attacker : Attacker.t;
  marginal_attacker : Attacker.t;
}

let make ~salt =
  let m1 =
    {
      Mechanism.name = "pad-masked-digest";
      run =
        (fun _rng table ->
          let d = digest ~salt (Dataset.Table.row table 0) in
          Mechanism.Words [| Int64.logxor d (pad ~salt table) |]);
    }
  in
  let m2 =
    {
      Mechanism.name = "pad";
      run = (fun _rng table -> Mechanism.Words [| pad ~salt table |]);
    }
  in
  let joint_attacker =
    {
      Attacker.name = "xor-and-match";
      attack =
        (fun _rng output ->
          match output with
          | Mechanism.Pair (Mechanism.Words a, Mechanism.Words b)
            when Array.length a = 1 && Array.length b = 1 ->
            digest_predicate ~salt (Int64.logxor a.(0) b.(0))
          | _ -> Predicate.False);
    }
  in
  let marginal_attacker =
    {
      Attacker.name = "treat-word-as-digest";
      attack =
        (fun _rng output ->
          match output with
          | Mechanism.Words a when Array.length a = 1 -> digest_predicate ~salt a.(0)
          | _ -> Predicate.False);
    }
  in
  { m1; m2; composed = Mechanism.compose m1 m2; joint_attacker; marginal_attacker }
