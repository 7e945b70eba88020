module Predicate = Query.Predicate

type t = {
  queries : Query.Predicate.t array;
  batch : Query.Mechanism.batch;
  mechanism : Query.Mechanism.t;
  attacker : Attacker.t;
  ell : int;
}

(* The scheme carries one shared batch, so every mechanism derived from
   it (the exact counts here, the DP variant of Theorems.dp_prevents_pso
   and E6) reuses one compilation of the predicate array. *)
let of_queries queries attacker ell =
  let batch = Query.Mechanism.batch queries in
  {
    queries;
    batch;
    mechanism = Query.Mechanism.exact_counts_batch batch;
    attacker;
    ell;
  }

let check ~buckets ~ell =
  if buckets <= 0 then invalid_arg "Composition: buckets";
  if ell <= 0 || ell > 63 then invalid_arg "Composition: ell must be in 1..63"

let bucket_pred ~salt ~buckets bucket =
  Predicate.Atom (Predicate.Hash_bucket { buckets; bucket; salt })

let bit_pred ~salt index = Predicate.Atom (Predicate.Hash_bit { index; salt })

(* Queries for one bucket: its size, then size-restricted-to-each-bit. *)
let bucket_queries ~salt ~buckets ~ell bucket =
  let base = bucket_pred ~salt ~buckets bucket in
  Array.init (1 + ell) (fun i ->
      if i = 0 then base else Predicate.And (base, bit_pred ~salt (i - 1)))

(* Read one bucket's answers: if the size is 1, rebuild the member's digest
   predicate from the bit counts. Counts may be noisy (DP variant): round. *)
let read_bucket ~salt ~buckets ~ell answers offset bucket =
  let near x v = Float.abs (x -. v) < 0.5 in
  if not (near answers.(offset) 1.) then None
  else begin
    let base = bucket_pred ~salt ~buckets bucket in
    let bits =
      List.init ell (fun j ->
          let p = bit_pred ~salt j in
          if near answers.(offset + 1 + j) 1. then p else Predicate.Not p)
    in
    Some (Predicate.conj (base :: bits))
  end

(* The attacker's give-up path (noisy or malformed answers): counted so
   metrics show how often the composition attack degraded to a blind
   bucket guess. *)
let c_fallbacks = Obs.Counter.make "pso.composition_fallbacks"

let fallback ~salt ~buckets =
  Obs.Counter.incr c_fallbacks;
  bucket_pred ~salt ~buckets 0

let single_bucket ~salt ~buckets ~ell =
  check ~buckets ~ell;
  let queries = bucket_queries ~salt ~buckets ~ell 0 in
  let attacker =
    {
      Attacker.name = Printf.sprintf "composition[1 bucket, ell=%d]" ell;
      attack =
        (fun _rng output ->
          match Query.Mechanism.as_vector output with
          | Some answers when Array.length answers = 1 + ell -> (
            match read_bucket ~salt ~buckets ~ell answers 0 0 with
            | Some p -> p
            | None -> fallback ~salt ~buckets)
          | Some _ | None -> fallback ~salt ~buckets);
    }
  in
  of_queries queries attacker ell

let scouted ~salt ~buckets ~ell ~scouts =
  check ~buckets ~ell;
  if scouts <= 0 || scouts > buckets then invalid_arg "Composition.scouted: scouts";
  let queries =
    Array.concat
      (List.init scouts (fun b -> bucket_queries ~salt ~buckets ~ell b))
  in
  let attacker =
    {
      Attacker.name =
        Printf.sprintf "composition[%d buckets, ell=%d]" scouts ell;
      attack =
        (fun _rng output ->
          match Query.Mechanism.as_vector output with
          | Some answers when Array.length answers = scouts * (1 + ell) ->
            let rec scan b =
              if b >= scouts then fallback ~salt ~buckets
              else
                match
                  read_bucket ~salt ~buckets ~ell answers (b * (1 + ell)) b
                with
                | Some p -> p
                | None -> scan (b + 1)
            in
            scan 0
          | Some _ | None -> fallback ~salt ~buckets);
    }
  in
  of_queries queries attacker ell

let weight_of_success ~buckets ~ell =
  Float.pow 0.5 (float_of_int ell) /. float_of_int buckets
