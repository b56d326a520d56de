(** Bounded blocking FIFO — the daemon's request queue.

    Producers (connection threads) use {!try_push}, which {e never}
    blocks: a full queue returns [false] immediately, and the caller
    answers the client with an [overloaded] reply — backpressure is
    explicit, the daemon never buffers without bound.  Consumers
    (worker domains) block in {!pop} until an item or {!close} arrives;
    after [close] the queue drains — remaining items are still served —
    and then every pop returns [None], which is the workers' signal to
    exit.  Safe across any mix of systhreads and domains (one mutex,
    one condition). *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val try_push : 'a t -> 'a -> bool
(** Non-blocking; [false] when full or closed. *)

val pop : 'a t -> 'a option
(** Blocking; [None] once closed {e and} drained. *)

val close : 'a t -> unit
(** Reject further pushes; wake all blocked consumers.  Idempotent. *)

val length : 'a t -> int

val peak : 'a t -> int
(** The most items the queue has ever held at once (its high-water
    mark, recorded on every successful {!try_push}). *)
