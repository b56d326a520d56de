(** Lock-striped, capacity-bounded LRU cache, safe under Domains.

    Keys are strings (a canonical serialisation of whatever the entry
    is content-addressed by); each key is digested once per operation
    with {!Fingerprint} and the digest picks the shard, hashes within
    the shard's table, and guards equality — lookups compare the full
    key string only when digests match, so a hash collision can never
    alias two entries (the {!Fingerprint} discipline).

    Each shard is an independent LRU: a mutex, a hash table, and an
    intrusive recency list.  The cache keeps no counters: {!add}
    reports each eviction to its caller, which owns the ledger (the
    daemon's [cache_*] counters).  Capacity is partitioned across shards
    at creation (total never exceeds [capacity]), so eviction order is
    LRU per shard — a standard striped approximation of global LRU
    that trades exact recency for uncontended parallel access.

    Values are never mutated by the cache; callers on different
    domains may freely read a value returned by {!find} as long as
    the values themselves are immutable (which cached results are). *)

type 'v t

val create : ?shards:int -> capacity:int -> unit -> 'v t
(** [create ~capacity ()] makes a cache holding at most [capacity]
    entries in total.  [shards] (default 16) is rounded down to a
    power of two and clamped to [capacity] so every shard holds at
    least one entry.  @raise Invalid_argument if [capacity < 1]. *)

val find : 'v t -> string -> 'v option
(** Look up a key; a hit promotes the entry to most-recently-used. *)

val add : 'v t -> string -> 'v -> int
(** Insert (or replace, promoting) an entry.  Returns the number of
    entries evicted to stay within capacity (0 or 1). *)

val mem : 'v t -> string -> bool
(** Presence test: no promotion. *)

val length : 'v t -> int
(** Current number of entries (sums shard sizes; a pure read). *)

val capacity : 'v t -> int
val shards : 'v t -> int
