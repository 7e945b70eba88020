module Value = Dataset.Value
module Schema = Dataset.Schema
module Table = Dataset.Table
module Gvalue = Dataset.Gvalue
module Model = Dataset.Model

type atom =
  | Eq of string * Value.t
  | Member of string * Value.t list
  | Range of string * float * float
  | Fits of string * Gvalue.t
  | Hash_bucket of { buckets : int; bucket : int; salt : int64 }
  | Hash_bit of { index : int; salt : int64 }

type t =
  | True
  | False
  | Atom of atom
  | Not of t
  | And of t * t
  | Or of t * t

let conj = function
  | [] -> True
  | p :: rest -> List.fold_left (fun acc q -> And (acc, q)) p rest

let of_grow schema grow =
  let attrs = Schema.attributes schema in
  let cells =
    Array.to_list
      (Array.mapi
         (fun j g ->
           match g with
           | Gvalue.Any -> True
           | _ -> Atom (Fits (attrs.(j).Schema.name, g)))
         grow)
  in
  conj (List.filter (fun p -> p <> True) cells)

(* --- The record digest's bytes --- *)

(* One definition of the bytes the hash atoms read: per value, a one-letter
   kind tag ('n' for [Null]), the decimal length of [Value.to_string]'s
   text, ':', that text and ';'. They are written straight into a reusable
   buffer, integers digit by digit, so hashing a record of integers,
   strings and booleans allocates nothing per value. *)
type encoder = { mutable buf : Bytes.t; mutable len : int }

let encoder () = { buf = Bytes.create 256; len = 0 }

let reserve e k =
  if e.len + k > Bytes.length e.buf then begin
    let buf = Bytes.create (max (2 * Bytes.length e.buf) (e.len + k)) in
    Bytes.blit e.buf 0 buf 0 e.len;
    e.buf <- buf
  end

let add_char e c =
  reserve e 1;
  Bytes.unsafe_set e.buf e.len c;
  e.len <- e.len + 1

let add_string e s =
  let k = String.length s in
  reserve e k;
  Bytes.unsafe_blit_string s 0 e.buf e.len k;
  e.len <- e.len + k

(* The width of [string_of_int i]. Digits are taken from the non-positive
   magnitude, so [min_int] needs no special case. *)
let int_width i =
  let rec digits m k = if m > -10 then k else digits (m / 10) (k + 1) in
  if i < 0 then 1 + digits i 1 else digits (-i) 1

let add_int e i =
  let w = int_width i in
  reserve e w;
  let first_digit = if i < 0 then e.len + 1 else e.len in
  let m = ref (if i < 0 then i else -i) in
  for p = e.len + w - 1 downto first_digit do
    Bytes.unsafe_set e.buf p (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  if i < 0 then Bytes.unsafe_set e.buf e.len '-';
  e.len <- e.len + w

let add_header e tag len =
  add_char e tag;
  add_int e len;
  add_char e ':'

let add_text e tag s =
  add_header e tag (String.length s);
  add_string e s

let add_value e (v : Value.t) =
  (match v with
  | Int i ->
    add_header e 'i' (int_width i);
    add_int e i
  | String s -> add_text e 's' s
  | Bool b -> add_text e 'b' (string_of_bool b)
  | Float _ -> add_text e 'f' (Value.to_string v)
  | Date _ -> add_text e 'd' (Value.to_string v)
  | Null -> add_header e 'n' 0);
  add_char e ';'

let encode_into e row =
  e.len <- 0;
  for j = 0 to Array.length row - 1 do
    add_value e row.(j)
  done

let encode_row row =
  let e = encoder () in
  encode_into e row;
  Bytes.sub_string e.buf 0 e.len

let hash_row e ~salt row =
  encode_into e row;
  Prob.Hashing.hash64_prefix ~salt e.buf e.len

let value_test = function
  | Eq (_, x) -> fun v -> Value.equal v x
  | Member (_, xs) -> fun v -> List.exists (fun x -> Value.equal x v) xs
  | Range (_, lo, hi) -> (
    fun v ->
      match Value.to_float v with Some f -> lo <= f && f < hi | None -> false)
  | Fits (_, g) -> Gvalue.matches g
  | Hash_bucket _ | Hash_bit _ -> assert false

let atom_attr = function
  | Eq (a, _) | Member (a, _) | Range (a, _, _) | Fits (a, _) -> Some a
  | Hash_bucket _ | Hash_bit _ -> None

(* Hash atoms over one record share a digest; predicates like the pad
   construction's conjoin 64 bit-atoms with one salt, so recomputing the
   serialization and hash per atom would dominate. A small keyed cache
   (row physical identity, salt) removes the rework; several slots (not
   one) so multi-salt pad constructions with interleaved salts stop
   thrashing the cache. Domain-local, so trials evaluated on different
   pool workers memoize independently. *)
let digest_slots = 8

type digest_cache = {
  entries : (Table.row * int64 * int64) option array;
  mutable next : int;  (* round-robin replacement cursor *)
  scratch : encoder;
}

let digest_cache : digest_cache Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { entries = Array.make digest_slots None; next = 0; scratch = encoder () })

(* Hit/miss split of a domain-local cache depends on how trials were
   scheduled over domains, hence ~timing (excluded from cross-jobs
   determinism checks). *)
let c_digest_hits = Obs.Counter.make ~timing:true "query.digest_cache_hits"

let c_digest_misses = Obs.Counter.make ~timing:true "query.digest_cache_misses"

let row_digest row salt =
  let c = Domain.DLS.get digest_cache in
  let rec scan i =
    if i >= digest_slots then None
    else
      match c.entries.(i) with
      | Some (r, s, d) when r == row && s = salt -> Some d
      | _ -> scan (i + 1)
  in
  match scan 0 with
  | Some d ->
    Obs.Counter.incr c_digest_hits;
    d
  | None ->
    Obs.Counter.incr c_digest_misses;
    let d = hash_row c.scratch ~salt row in
    c.entries.(c.next) <- Some (row, salt, d);
    c.next <- (c.next + 1) mod digest_slots;
    d

let eval_atom schema atom row =
  match atom with
  | Hash_bucket { buckets; bucket; salt } ->
    let d = Int64.shift_right_logical (row_digest row salt) 1 in
    Int64.to_int (Int64.rem d (Int64.of_int buckets)) = bucket
  | Hash_bit { index; salt } ->
    Int64.logand (Int64.shift_right_logical (row_digest row salt) index) 1L = 1L
  | Eq (a, _) | Member (a, _) | Range (a, _, _) | Fits (a, _) ->
    let i = Schema.index_of schema a in
    value_test atom row.(i)

let rec eval schema t row =
  match t with
  | True -> true
  | False -> false
  | Atom a -> eval_atom schema a row
  | Not p -> not (eval schema p row)
  | And (p, q) -> eval schema p row && eval schema q row
  | Or (p, q) -> eval schema p row || eval schema q row

let rec to_string = function
  | True -> "true"
  | False -> "false"
  | Atom (Eq (a, v)) -> Printf.sprintf "%s = %s" a (Value.to_string v)
  | Atom (Member (a, vs)) ->
    Printf.sprintf "%s in {%s}" a
      (String.concat ", " (List.map Value.to_string vs))
  | Atom (Range (a, lo, hi)) -> Printf.sprintf "%s in [%g, %g)" a lo hi
  | Atom (Fits (a, g)) -> Printf.sprintf "%s ~ %s" a (Gvalue.to_string g)
  | Atom (Hash_bucket { buckets; bucket; _ }) ->
    Printf.sprintf "hash(record) mod %d = %d" buckets bucket
  | Atom (Hash_bit { index; _ }) -> Printf.sprintf "bit_%d(hash(record))" index
  | Not p -> Printf.sprintf "not (%s)" (to_string p)
  | And (p, q) -> Printf.sprintf "(%s && %s)" (to_string p) (to_string q)
  | Or (p, q) -> Printf.sprintf "(%s || %s)" (to_string p) (to_string q)

(* A short stable identifier for audit-ledger query events: the salted
   64-bit hash of the canonical rendering, in hex. *)
let digest p = Printf.sprintf "%016Lx" (Prob.Hashing.hash64 ~salt:0L (to_string p))

(* --- Compiled predicates --- *)

(* Compilation resolves each atom's attribute to its schema index once
   (instead of a string lookup per atom per row) and linearizes the
   connectives into a postfix program over the resolved atoms. Evaluation
   against a table has one implementation, the word machine below: each
   distinct atom materializes a Bitset over its column — per-value tests
   (Eq/Member/Fits) run once per distinct dictionary value, not once per
   row — and the program runs word by word on a scratch stack. A single
   query is a batch of one. *)

type catom =
  | Ceq of int * Value.t
  | Cmember of int * Value.t list
  | Crange of int * float * float
  | Cfits of int * Gvalue.t
  | Chash_bucket of { buckets : int; bucket : int; salt : int64 }
  | Chash_bit of { index : int; salt : int64 }

(* Postfix opcodes: [>= 0] pushes the words of atom [op]; negatives are the
   connectives and constants. *)
let op_true = -1

let op_false = -2

let op_not = -3

let op_and = -4

let op_or = -5

type prog = { code : int array; stack_need : int }

type compiled = {
  c_source : t;
  c_atoms : catom array;  (* local atom id -> atom, postfix order *)
  c_code : int array;  (* postfix over the local atom ids *)
  c_stack_need : int;
}

let compile schema t =
  let catom a =
    match a with
    | Eq (name, v) -> Ceq (Schema.index_of schema name, v)
    | Member (name, vs) -> Cmember (Schema.index_of schema name, vs)
    | Range (name, lo, hi) -> Crange (Schema.index_of schema name, lo, hi)
    | Fits (name, g) -> Cfits (Schema.index_of schema name, g)
    | Hash_bucket { buckets; bucket; salt } -> Chash_bucket { buckets; bucket; salt }
    | Hash_bit { index; salt } -> Chash_bit { index; salt }
  in
  (* Atoms are numbered per occurrence; the batch planner dedups them
     across the whole batch, and a single query's repeats hit the table
     cache. *)
  let rev_atoms = ref [] in
  let natoms = ref 0 in
  let atom_id a =
    rev_atoms := catom a :: !rev_atoms;
    incr natoms;
    !natoms - 1
  in
  let code = ref [] in
  let emit op = code := op :: !code in
  (* Stack need of left-to-right postfix evaluation: the left operand's
     result occupies one slot while the right operand evaluates. *)
  let rec go = function
    | True ->
      emit op_true;
      1
    | False ->
      emit op_false;
      1
    | Atom a ->
      emit (atom_id a);
      1
    | Not p ->
      let d = go p in
      emit op_not;
      d
    | And (p, q) -> binary op_and p q
    | Or (p, q) -> binary op_or p q
  and binary op p q =
    let dp = go p in
    let dq = go q in
    emit op;
    max dp (dq + 1)
  in
  let stack_need = go t in
  {
    c_source = t;
    c_atoms = Array.of_list (List.rev !rev_atoms);
    c_code = Array.of_list (List.rev !code);
    c_stack_need = stack_need;
  }

(* Atom bitsets and per-salt digest columns, memoized per table. The cache
   is domain-local (no locks on the hot path, like the digest cache above)
   and bounded: a handful of tables in MRU order — the PSO game touches one
   fresh table per trial, so stale generations retire immediately — and a
   cap on distinct atoms per table. Atoms are keyed in resolved form (by
   column index, the form [materialize] reads), and tables by Table.id,
   which every derived table refreshes, so stale hits are impossible by
   construction. *)
type table_cache = {
  tbl : int;  (* Table.id *)
  atoms : (catom, Bitset.t) Hashtbl.t;
  digests : (int64, int64 array) Hashtbl.t;  (* salt -> per-row digest *)
}

(* Cache bounds. The atom bound is batch-aware: [plan] grows it (up to
   [atom_capacity_ceiling]) to the number of distinct atoms in the batch
   it is about to evaluate, so a 1k-predicate batch does not thrash a
   512-atom cache by rematerializing the overflow on every call. Growth
   is monotone — capacity never shrinks below the floor, and a later
   small batch cannot evict the headroom a big one established. *)
let max_cached_tables = 4

let atom_capacity_floor = 512

let atom_capacity_ceiling = 65_536

let atom_capacity = Atomic.make atom_capacity_floor

let reserve_atom_capacity n =
  let n = min n atom_capacity_ceiling in
  let rec grow () =
    let cur = Atomic.get atom_capacity in
    if n > cur && not (Atomic.compare_and_set atom_capacity cur n) then grow ()
  in
  grow ()

let bitset_caches : table_cache list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let fresh_table_cache table =
  { tbl = Table.id table; atoms = Hashtbl.create 32; digests = Hashtbl.create 4 }

let table_cache table =
  let caches = Domain.DLS.get bitset_caches in
  let tid = Table.id table in
  match List.find_opt (fun tc -> tc.tbl = tid) !caches with
  | Some tc ->
    if (List.hd !caches).tbl <> tid then
      caches := tc :: List.filter (fun c -> c != tc) !caches;
    tc
  | None ->
    let tc = fresh_table_cache table in
    caches := tc :: List.filteri (fun i _ -> i < max_cached_tables - 1) !caches;
    tc

(* One count per single-query compiled evaluation: a logical event
   (independent of scheduling), unlike the cache hit/miss split below. *)
let c_compiled = Obs.Counter.make "query.compiled_evals"

let c_bitset_hits = Obs.Counter.make ~timing:true "query.bitset_cache_hits"

let c_bitset_misses = Obs.Counter.make ~timing:true "query.bitset_cache_misses"

(* A miss that could not even be admitted: the per-table atom cache was at
   capacity, so the bitset was rebuilt and thrown away. A steadily growing
   value is the eviction-thrash signature the batch-aware capacity above
   exists to prevent. *)
let c_bitset_rejected = Obs.Counter.make ~timing:true "query.bitset_cache_rejected"

let digest_column table tc salt =
  match Hashtbl.find_opt tc.digests salt with
  | Some d -> d
  | None ->
    (* One scratch buffer per column, local to this call: concurrent
       domains never share it. *)
    let e = encoder () in
    let d = Array.map (hash_row e ~salt) (Table.rows table) in
    Hashtbl.add tc.digests salt d;
    d

(* Each atom reads only its own attribute's column (hash atoms read none),
   so a table's columnar view is built one column at a time, as atoms ask
   for them. *)
let materialize table tc ca =
  let n = Table.nrows table in
  match ca with
  | Ceq (j, v) -> (
    let col = Table.column table j in
    match Table.code_of col v with
    | None -> Bitset.create n
    | Some c ->
      let codes = col.Table.codes in
      Bitset.init n (fun i -> Array.unsafe_get codes i = c))
  | Cmember (j, vs) ->
    let col = Table.column table j in
    let marks = Array.make (max 1 (Array.length col.Table.dict)) false in
    List.iter
      (fun v ->
        match Table.code_of col v with
        | Some c -> marks.(c) <- true
        | None -> ())
      vs;
    let codes = col.Table.codes in
    Bitset.init n (fun i -> Array.unsafe_get marks (Array.unsafe_get codes i))
  | Crange (j, lo, hi) ->
    let fs = (Table.column table j).Table.floats in
    Bitset.init n (fun i ->
        let f = Array.unsafe_get fs i in
        lo <= f && f < hi)
  | Cfits (j, g) ->
    let col = Table.column table j in
    (* The per-value test runs once per dictionary entry, not per row. *)
    let marks = Array.map (Gvalue.matches g) col.Table.dict in
    let codes = col.Table.codes in
    Bitset.init n (fun i -> Array.unsafe_get marks (Array.unsafe_get codes i))
  | Chash_bucket { buckets; bucket; salt } ->
    let d = digest_column table tc salt in
    let buckets = Int64.of_int buckets in
    Bitset.init n (fun i ->
        Int64.to_int
          (Int64.rem (Int64.shift_right_logical (Array.unsafe_get d i) 1) buckets)
        = bucket)
  | Chash_bit { index; salt } ->
    let d = digest_column table tc salt in
    Bitset.init n (fun i ->
        Int64.logand (Int64.shift_right_logical (Array.unsafe_get d i) index) 1L
        = 1L)

let atom_bits ~cache table tc ca =
  match Hashtbl.find_opt tc.atoms ca with
  | Some b ->
    Obs.Counter.incr c_bitset_hits;
    b
  | None ->
    Obs.Counter.incr c_bitset_misses;
    let b = materialize table tc ca in
    if cache then begin
      if Hashtbl.length tc.atoms < Atomic.get atom_capacity then
        Hashtbl.add tc.atoms ca b
      else Obs.Counter.incr c_bitset_rejected
    end;
    b

(* --- The word machine --- *)

(* A batch shares everything a query-at-a-time loop would rebuild per
   call: each column the batch reads is built at most once, each
   distinct atom across the whole batch is hash-consed to one id and
   materialized exactly once (through the MRU cache above, with capacity
   reserved for the batch), and every distinct program is evaluated once.
   Evaluation fuses the boolean connectives: each operator is one tight
   loop over the table's 63-bit words into a reusable scratch array, and
   the root operator feeds the popcount directly. *)

(* Logical batch metrics: both depend only on the batch's composition, so
   they are deterministic for a deterministic workload at any --jobs. *)
let c_batch_evals = Obs.Counter.make "query.batch_evals"

let c_batch_dedup = Obs.Counter.make "query.batch_atom_dedup_hits"

(* The operand stack holds borrowed word arrays: an atom push costs one
   pointer store, and each operator runs as a single tight loop over all
   words into the destination slot's dedicated scratch array. The
   invariant is that stack slot [i] holds either a borrowed array (atom
   words, [ones], [zeros]) or [scratch.(i)] itself — so a binary op
   writing [scratch.(sp-2)] can never clobber its right operand, and
   elementwise in-place overlap with the left operand is harmless. *)
type batch_plan = {
  progs : prog array;  (* distinct programs only *)
  index : int array;  (* predicate slot -> distinct program id *)
  atom_words : int array array;  (* atom id -> packed words *)
  nrows : int;
  nw : int;  (* words per row set *)
  tail : int;  (* live mask of the last word *)
  stack : int array array;  (* operand slots, sized to the deepest program *)
  scratch : int array array;  (* per-slot destination arrays *)
  ones : int array;  (* borrowed [True] words (clean tail) *)
  zeros : int array;  (* borrowed [False] words *)
}

(* The table-independent half of a plan: postfix programs over dense atom
   ids, the id -> atom mapping, and the dedup counter's increment. *)
type batch_prep = {
  prep_progs : prog array;  (* distinct programs, first-seen order *)
  prep_index : int array;  (* predicate slot -> distinct program id *)
  prep_atoms : catom array;  (* atom id -> atom, ascending *)
  prep_dedup : int;  (* atom occurrences beyond each atom's first *)
  prep_stack_need : int;
}

(* A single compiled predicate already is a prep: its program is the only
   one, and a repeated atom is a table-cache hit. *)
let prep_one c =
  {
    prep_progs = [| { code = c.c_code; stack_need = c.c_stack_need } |];
    prep_index = [| 0 |];
    prep_atoms = c.c_atoms;
    prep_dedup = 0;
    prep_stack_need = c.c_stack_need;
  }

let prep_batch cs =
  (* Hash-cons atoms across the whole batch by renumbering each
     predicate's local atoms, then hash-cons whole programs: a batch that
     asks the same predicate twice (duplicate queries, blitted workloads,
     symmetric question sets) evaluates it once and fans the answer out.
     Ids are assigned in ascending slot order by explicit loops —
     [Array.map]'s evaluation order is unspecified, and deterministic
     numbering keeps preps reproducible. *)
  let ids : (catom, int) Hashtbl.t = Hashtbl.create 64 in
  let rev_atoms = ref [] in
  let occurrences = ref 0 in
  let n = Array.length cs in
  let prog_ids : (int array, int) Hashtbl.t = Hashtbl.create 64 in
  let rev_progs = ref [] in
  let index = Array.make n 0 in
  for i = 0 to n - 1 do
    let c = cs.(i) in
    let nlocal = Array.length c.c_atoms in
    occurrences := !occurrences + nlocal;
    let renumber = Array.make nlocal 0 in
    for k = 0 to nlocal - 1 do
      let atom = c.c_atoms.(k) in
      renumber.(k) <-
        (match Hashtbl.find_opt ids atom with
        | Some j -> j
        | None ->
          let j = Hashtbl.length ids in
          Hashtbl.add ids atom j;
          rev_atoms := atom :: !rev_atoms;
          j)
    done;
    let code =
      Array.map (fun op -> if op >= 0 then renumber.(op) else op) c.c_code
    in
    match Hashtbl.find_opt prog_ids code with
    | Some j -> index.(i) <- j
    | None ->
      let j = Hashtbl.length prog_ids in
      Hashtbl.add prog_ids code j;
      rev_progs := { code; stack_need = c.c_stack_need } :: !rev_progs;
      index.(i) <- j
  done;
  let progs = Array.of_list (List.rev !rev_progs) in
  {
    prep_progs = progs;
    prep_index = index;
    prep_atoms = Array.of_list (List.rev !rev_atoms);
    prep_dedup = !occurrences - Hashtbl.length ids;
    prep_stack_need =
      Array.fold_left (fun acc p -> max acc p.stack_need) 1 progs;
  }

(* Batched callers replay the same compiled array run after run (the PSO
   game replays one mechanism per trial; attacks reuse one question set),
   so the prep is memoized in a small domain-local MRU keyed by the
   array's physical identity — immutable contents make identity a sound
   key, and a new array at worst re-preps. *)
let max_cached_preps = 8

let prep_cache : (compiled array * batch_prep) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let prep_for cs =
  let cache = Domain.DLS.get prep_cache in
  let rec take acc = function
    | [] -> None
    | ((key, prep) as e) :: rest ->
      if key == cs then Some (prep, List.rev_append acc rest)
      else take (e :: acc) rest
  in
  match take [] !cache with
  | Some (prep, rest) ->
    cache := (cs, prep) :: rest;
    prep
  | None ->
    let prep = prep_batch cs in
    let kept =
      if List.length !cache >= max_cached_preps then
        List.filteri (fun i _ -> i < max_cached_preps - 1) !cache
      else !cache
    in
    cache := (cs, prep) :: kept;
    prep

let plan ~cache table prep =
  if cache then reserve_atom_capacity (Array.length prep.prep_atoms);
  let nrows = Table.nrows table in
  let tc = if cache then table_cache table else fresh_table_cache table in
  let atom_words =
    Array.map
      (fun ca -> Bitset.unsafe_words (atom_bits ~cache table tc ca))
      prep.prep_atoms
  in
  let nw = Bitset.word_count nrows in
  {
    progs = prep.prep_progs;
    index = prep.prep_index;
    atom_words;
    nrows;
    nw;
    tail = Bitset.live_mask nrows;
    stack = Array.make prep.prep_stack_need [||];
    scratch = Array.init prep.prep_stack_need (fun _ -> Array.make nw 0);
    ones = Bitset.unsafe_words (Bitset.ones nrows);
    zeros = Array.make nw 0;
  }

let plan_batch ~cache table cs =
  Obs.Counter.add c_batch_evals (Array.length cs);
  let prep = prep_for cs in
  Obs.Counter.add c_batch_dedup prep.prep_dedup;
  plan ~cache table prep

(* A single query skips the prep MRU: a fresh one-element array could
   never hit it, and would evict batches that do. *)
let plan_one ~cache table c =
  Obs.Counter.incr c_compiled;
  plan ~cache table (prep_one c)

(* Run the first [limit] opcodes, leaving operands in [plan.stack] (the
   caller knows the resulting stack shape statically: a full program
   leaves exactly its root value in slot 0, a program cut before a binary
   root leaves the two operands in slots 0 and 1). Interior [lnot]s may
   set bits beyond the length in the last word; readers mask with
   [plan.tail], which is sound because every opcode is bitwise. *)
let run_ops plan code limit =
  let stack = plan.stack in
  let scratch = plan.scratch in
  let atoms = plan.atom_words in
  let nw = plan.nw in
  let sp = ref 0 in
  for ci = 0 to limit - 1 do
    let op = Array.unsafe_get code ci in
    if op >= 0 then begin
      Array.unsafe_set stack !sp (Array.unsafe_get atoms op);
      incr sp
    end
    else if op = op_and then begin
      let a = Array.unsafe_get stack (!sp - 2) in
      let b = Array.unsafe_get stack (!sp - 1) in
      let dst = Array.unsafe_get scratch (!sp - 2) in
      for w = 0 to nw - 1 do
        Array.unsafe_set dst w
          (Array.unsafe_get a w land Array.unsafe_get b w)
      done;
      Array.unsafe_set stack (!sp - 2) dst;
      decr sp
    end
    else if op = op_or then begin
      let a = Array.unsafe_get stack (!sp - 2) in
      let b = Array.unsafe_get stack (!sp - 1) in
      let dst = Array.unsafe_get scratch (!sp - 2) in
      for w = 0 to nw - 1 do
        Array.unsafe_set dst w
          (Array.unsafe_get a w lor Array.unsafe_get b w)
      done;
      Array.unsafe_set stack (!sp - 2) dst;
      decr sp
    end
    else if op = op_not then begin
      let a = Array.unsafe_get stack (!sp - 1) in
      let dst = Array.unsafe_get scratch (!sp - 1) in
      for w = 0 to nw - 1 do
        Array.unsafe_set dst w (lnot (Array.unsafe_get a w))
      done;
      Array.unsafe_set stack (!sp - 1) dst
    end
    else begin
      Array.unsafe_set stack !sp (if op = op_true then plan.ones else plan.zeros);
      incr sp
    end
  done

(* Popcount of a word array masked to the live bits. *)
let count_words plan words = Bitset.unsafe_count_words words plan.nw plan.tail

(* A count never needs the root's row set, so the root operator fuses with
   the popcount: evaluate everything below the root, then combine and
   count in one pass with no destination write. A postfix program ends
   with its root, so [last >= 0] means the whole predicate is one atom
   (clean tail — plain popcount), and a root [Not] is counted as the
   complement. *)
let count_plan plan pi =
  let code = plan.progs.(pi).code in
  let n = Array.length code in
  let last = Array.unsafe_get code (n - 1) in
  if last >= 0 then
    (* Atom bitsets have clean tails, so no mask is needed. *)
    Bitset.unsafe_count_words (Array.unsafe_get plan.atom_words last) plan.nw (-1)
  else if last = op_and || last = op_or then begin
    run_ops plan code (n - 1);
    let a = Array.unsafe_get plan.stack 0 in
    let b = Array.unsafe_get plan.stack 1 in
    if last = op_and then Bitset.unsafe_count_and a b plan.nw plan.tail
    else Bitset.unsafe_count_or a b plan.nw plan.tail
  end
  else if last = op_not then begin
    run_ops plan code (n - 1);
    plan.nrows - count_words plan (Array.unsafe_get plan.stack 0)
  end
  else if last = op_true then plan.nrows
  else 0

(* The row set of program [pi] as a fresh bitset with a clean tail. *)
let plan_bits plan pi =
  let code = plan.progs.(pi).code in
  run_ops plan code (Array.length code);
  let words = Array.copy (Array.unsafe_get plan.stack 0) in
  if plan.nw > 0 then words.(plan.nw - 1) <- words.(plan.nw - 1) land plan.tail;
  Bitset.unsafe_of_words ~len:plan.nrows words

(* Evaluate each distinct program once, then fan the per-program results
   out to the predicate slots that share it. *)
let per_slot plan f =
  let per_prog = Array.init (Array.length plan.progs) f in
  Array.map (fun j -> per_prog.(j)) plan.index

let count_many ?(cache = true) table cs =
  if Array.length cs = 0 then [||]
  else
    let plan = plan_batch ~cache table cs in
    per_slot plan (count_plan plan)

let isolates_many ?(cache = true) table cs =
  if Array.length cs = 0 then [||]
  else
    let plan = plan_batch ~cache table cs in
    per_slot plan (fun pi -> count_plan plan pi = 1)

(* Duplicate slots share one immutable bitset. *)
let bits_many ?(cache = true) table cs =
  let plan = plan_batch ~cache table cs in
  per_slot plan (plan_bits plan)

let count_compiled ?(cache = true) c table = count_plan (plan_one ~cache table c) 0

let bits ?(cache = true) c table = plan_bits (plan_one ~cache table c) 0

(* One row-evaluation per row scanned: the logical cost of every counting
   query, deterministic for a deterministic workload at any --jobs and
   charged alike by single queries and batches ([Engine.counts]). The
   interpreter is the uncharged reference. *)
let c_evals = Obs.Counter.make "query.predicate_evals"

let count_interpreted schema t table =
  Table.count (fun row -> eval schema t row) table

let count schema t table =
  Obs.Counter.add c_evals (Table.nrows table);
  count_compiled (compile schema t) table

let isolates schema t table = count schema t table = 1

(* --- Weight --- *)

type weight =
  | Exact of float
  | Salted of float
  | Estimated of { value : float; trials : int }

let weight_value = function
  | Exact w | Salted w -> w
  | Estimated { value; _ } -> value

(* A conjunction decomposes into per-attribute constraints, hash factors and
   constants. *)
type conjunct =
  | Cattr of string * (Value.t -> bool)
  | Chash of float
  | Cconst of bool

let conjunct_of_atom ~negated atom =
  match atom with
  | Hash_bucket { buckets; _ } ->
    let p = 1. /. float_of_int buckets in
    Chash (if negated then 1. -. p else p)
  | Hash_bit _ -> Chash 0.5
  | Eq _ | Member _ | Range _ | Fits _ ->
    let test = value_test atom in
    let test = if negated then fun v -> not (test v) else test in
    (match atom_attr atom with
    | Some a -> Cattr (a, test)
    | None -> assert false)

(* Flatten a pure conjunction; [None] if the formula is not a conjunction of
   (possibly negated) atoms. The accumulator keeps flattening linear — the
   naive [cp @ cq] recursion is quadratic on the long left-leaning chains
   [conj] builds (pad constructions conjoin 64 atoms). *)
let conjuncts t =
  let rec go t acc =
    match t with
    | True -> Some (Cconst true :: acc)
    | False -> Some (Cconst false :: acc)
    | Atom a -> Some (conjunct_of_atom ~negated:false a :: acc)
    | Not (Atom a) -> Some (conjunct_of_atom ~negated:true a :: acc)
    | Not True -> Some (Cconst false :: acc)
    | Not False -> Some (Cconst true :: acc)
    | And (p, q) -> Option.bind (go q acc) (fun acc -> go p acc)
    | Not _ | Or _ -> None
  in
  go t []

let analytic_weight model cs =
  if List.exists (function Cconst false -> true | _ -> false) cs then
    Some (Exact 0.)
  else begin
    (* Group attribute constraints; each attribute contributes the marginal
       probability of satisfying all of its tests (exact under the product
       model). *)
    let by_attr : (string, (Value.t -> bool) list) Hashtbl.t = Hashtbl.create 8 in
    let schema = Model.schema model in
    let hash_factor = ref 1. in
    let salted = ref false in
    let ok = ref true in
    List.iter
      (function
        | Cconst _ -> ()
        | Chash p ->
          salted := true;
          hash_factor := !hash_factor *. p
        | Cattr (a, test) ->
          if not (Schema.mem schema a) then ok := false
          else begin
            let prev = Option.value ~default:[] (Hashtbl.find_opt by_attr a) in
            Hashtbl.replace by_attr a (test :: prev)
          end)
      cs;
    if not !ok then None
    else begin
      (* Fold the per-attribute factors in schema attribute order: float
         products are not associative and Hashtbl.iter order is
         implementation-defined, so iterating the table directly would
         leave the low bits of the weight at the mercy of the hash
         function. Schema order pins the product bit-for-bit. *)
      let w = ref !hash_factor in
      Array.iter
        (fun (a : Schema.attribute) ->
          match Hashtbl.find_opt by_attr a.Schema.name with
          | None -> ()
          | Some tests ->
            w :=
              !w
              *. Model.cell_prob model a.Schema.name (fun v ->
                     List.for_all (fun t -> t v) tests))
        (Schema.attributes schema);
      (* cell_prob sums marginal masses, so rounding can push a certain
         event a few ulps past 1; weights are probabilities, clamp. *)
      let w = Float.max 0. (Float.min 1. !w) in
      if !salted then Some (Salted w) else Some (Exact w)
    end
  end

let default_trials = 20_000

let weight ?rng ?(trials = default_trials) model t =
  let analytic = Option.bind (conjuncts t) (analytic_weight model) in
  match analytic with
  | Some w -> w
  | None ->
    let rng =
      match rng with Some r -> r | None -> Prob.Rng.create ~seed:0x5EEDL ()
    in
    let schema = Model.schema model in
    let hits = ref 0 in
    for _ = 1 to trials do
      if eval schema t (Model.sample_row rng model) then incr hits
    done;
    Estimated { value = float_of_int !hits /. float_of_int trials; trials }
