(** Content-hash keys for memoization tables.

    A fingerprint is an FNV-style multiplicative hash folded over a
    canonical feed, computed entirely in unboxed native-int arithmetic
    (the combinators run on hot cache-key paths and must not allocate).
    Cache keys pair a fingerprint (fast hashing into the table) with the
    full structural payload (exact equality on lookup), so a hash
    collision can never alias two distinct keys — it only costs an extra
    comparison.  Collections feed their length before their elements,
    keeping concatenations unambiguous. *)

type t

val empty : t
(** The offset basis; start every key here. *)

val int : t -> int -> t
val bool : t -> bool -> t

val string : t -> string -> t

val array : (t -> 'a -> t) -> t -> 'a array -> t

val to_int : t -> int
(** Non-negative native-int digest (both 64-bit halves folded in);
    suitable as a [Hashtbl] hash. *)
