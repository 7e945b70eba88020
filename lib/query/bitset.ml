(* Packed bitsets over native ints, 63 bits per word (every bit of the
   OCaml int, including the one that makes a word print negative — only
   bitwise ops and logical shifts ever touch a word, so the sign is inert).
   Row sets of the compiled predicate engine: one bit per table row; the
   word machine in Predicate combines them word-wise, and counting is a
   popcount loop. *)

type t = { len : int; words : int array }

let bits_per_word = 63

let nwords len = (len + bits_per_word - 1) / bits_per_word

(* Mask of the tail word's live bits. For a full tail ([r = 0] with
   [len > 0]) every bit is live: [-1] is all 63 ones. [1 lsl 62] wraps to
   [min_int], so [(1 lsl r) - 1] is the r-ones mask for every r <= 62. *)
let tail_mask len =
  let r = len mod bits_per_word in
  if r = 0 then -1 else (1 lsl r) - 1

let create len =
  if len < 0 then invalid_arg "Bitset.create: negative length";
  { len; words = Array.make (nwords len) 0 }

let ones len =
  if len < 0 then invalid_arg "Bitset.ones: negative length";
  let w = Array.make (nwords len) (-1) in
  if Array.length w > 0 then w.(Array.length w - 1) <- tail_mask len;
  { len; words = w }

(* Word-chunked fill: no per-bit division, one store per word. *)
let init len f =
  if len < 0 then invalid_arg "Bitset.init: negative length";
  let words = Array.make (nwords len) 0 in
  let i = ref 0 in
  for w = 0 to Array.length words - 1 do
    let hi = min bits_per_word (len - !i) in
    let acc = ref 0 in
    for b = 0 to hi - 1 do
      if f (!i + b) then acc := !acc lor (1 lsl b)
    done;
    words.(w) <- !acc;
    i := !i + hi
  done;
  { len; words }

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitset.get: index out of range";
  (t.words.(i / bits_per_word) lsr (i mod bits_per_word)) land 1 = 1

(* 16-bit popcount table for the reconstruction attack's subset popcounts
   (see Attacks.Reconstruction). *)
let pop16 =
  let t = Bytes.create 65536 in
  Bytes.set t 0 '\000';
  for m = 1 to 65535 do
    Bytes.set t m (Char.chr (Char.code (Bytes.get t (m lsr 1)) + (m land 1)))
  done;
  t

let[@inline always] popcount16 m = Char.code (Bytes.unsafe_get pop16 (m land 0xffff))

(* Whole-array popcounts in C (bitset_stubs.c): counting is the only
   thing a count query does with its row set, so it pays to cross the FFI
   once per array instead of once per word. [tail] masks the final word's
   live bits (pass [-1] when the tail is already clean). The [_and]/[_or]
   variants fuse a root connective into the counting pass. *)
external unsafe_count_words : int array -> int -> int -> int
  = "pso_bitset_count_words"
[@@noalloc]

external unsafe_count_and : int array -> int array -> int -> int -> int
  = "pso_bitset_count_and"
[@@noalloc]

external unsafe_count_or : int array -> int array -> int -> int -> int
  = "pso_bitset_count_or"
[@@noalloc]

let count t = unsafe_count_words t.words (Array.length t.words) (-1)

let indices t =
  let out = Array.make (count t) 0 in
  let k = ref 0 in
  Array.iteri
    (fun wi w ->
      if w <> 0 then begin
        let base = wi * bits_per_word in
        for b = 0 to bits_per_word - 1 do
          if (w lsr b) land 1 = 1 then begin
            out.(!k) <- base + b;
            incr k
          end
        done
      end)
    t.words;
  out

(* Internal surface for the word machine in Predicate: it runs a stack
   machine directly over the packed words of many atom bitsets, so it
   needs the representation — words, the word count for a
   length, and the live-bit mask of the tail word. *)

let unsafe_words t = t.words

let unsafe_of_words ~len words =
  if len < 0 then invalid_arg "Bitset.unsafe_of_words: negative length";
  if Array.length words <> nwords len then
    invalid_arg "Bitset.unsafe_of_words: word count mismatch";
  { len; words }

let word_count = nwords

let live_mask = tail_mask
