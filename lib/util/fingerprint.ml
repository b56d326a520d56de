(* FNV-style multiplicative hash over native ints (unboxed — cache keys
   are built on hot paths, so the combinators must not allocate).  The
   combinators fold structure into the accumulator; collections feed
   their length first so [1; 2] and [1], [2] never collide by
   concatenation.  Multiplication only diffuses upward, so [to_int]
   finishes with xor-shift avalanche rounds before handing the digest to
   a hash table that keys on low bits. *)

type t = int

(* 63-bit truncation of the FNV-1a offset basis / prime pair. *)
let empty = 0x4bf29ce484222325
let prime = 0x100000001b3

let int h v = (h lxor v) * prime

let bool h b = int h (if b then 1 else 0)

let string h s =
  let h = ref (int h (String.length s)) in
  String.iter (fun c -> h := int !h (Char.code c)) s;
  !h

let array f h a = Array.fold_left f (int h (Array.length a)) a

let to_int h =
  let h = h lxor (h lsr 33) in
  let h = h * 0xff51afd7ed558cc in
  let h = h lxor (h lsr 29) in
  h land max_int
