(* Lock-striped LRU.  See cache.mli for the contract.

   Layout: one shard = mutex + hashtable + intrusive doubly-linked
   recency list.  The table is keyed by (digest, key) with the digest
   as the hash and full string equality as the tie-breaker, so the
   string is compared at most once per probe and collisions cannot
   alias.  The digest's high bits pick the shard (the table masks low
   bits for bucketing, so using low bits for both would cluster every
   shard's keys into a fraction of its buckets). *)

type key = { digest : int; str : string }

module K = struct
  type t = key

  let equal a b = a.digest = b.digest && String.equal a.str b.str
  let hash a = a.digest
end

module H = Hashtbl.Make (K)

type 'v node = {
  n_key : key;
  mutable n_value : 'v;
  mutable n_prev : 'v node option; (* toward most-recently-used *)
  mutable n_next : 'v node option; (* toward least-recently-used *)
}

type 'v shard = {
  m : Mutex.t;
  tbl : 'v node H.t;
  cap : int;
  mutable mru : 'v node option;
  mutable lru : 'v node option;
  mutable size : int;
}

type 'v t = { shards : 'v shard array; total_capacity : int }

let create ?(shards = 16) ~capacity () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  let n =
    let want = max 1 (min shards capacity) in
    (* Round down to a power of two so shard selection is a mask. *)
    let p = ref 1 in
    while !p * 2 <= want do
      p := !p * 2
    done;
    !p
  in
  let base = capacity / n and rem = capacity mod n in
  let shard i =
    {
      m = Mutex.create ();
      tbl = H.create 64;
      cap = base + (if i < rem then 1 else 0);
      mru = None;
      lru = None;
      size = 0;
    }
  in
  { shards = Array.init n shard; total_capacity = capacity }

let digest_of str = Fingerprint.to_int (Fingerprint.string Fingerprint.empty str)

let shard_of t key =
  (t.shards.((key.digest lsr 24) land (Array.length t.shards - 1)), key)

let locate t str =
  let key = { digest = digest_of str; str } in
  shard_of t key

(* ------------------------------------------------- list maintenance *)
(* All list surgery runs with the shard mutex held. *)

let unlink s node =
  (match node.n_prev with
  | Some p -> p.n_next <- node.n_next
  | None -> s.mru <- node.n_next);
  (match node.n_next with
  | Some nx -> nx.n_prev <- node.n_prev
  | None -> s.lru <- node.n_prev);
  node.n_prev <- None;
  node.n_next <- None

let push_front s node =
  node.n_prev <- None;
  node.n_next <- s.mru;
  (match s.mru with Some old -> old.n_prev <- Some node | None -> ());
  s.mru <- Some node;
  match s.lru with None -> s.lru <- Some node | Some _ -> ()

let promote s node =
  match s.mru with
  | Some front when front == node -> ()
  | _ ->
    unlink s node;
    push_front s node

(* ------------------------------------------------------- operations *)

let find t str =
  let s, key = locate t str in
  Mutex.lock s.m;
  let r =
    match H.find_opt s.tbl key with
    | Some node ->
      promote s node;
      Some node.n_value
    | None -> None
  in
  Mutex.unlock s.m;
  r

let add t str v =
  let s, key = locate t str in
  Mutex.lock s.m;
  let evicted =
    match H.find_opt s.tbl key with
    | Some node ->
      node.n_value <- v;
      promote s node;
      0
    | None ->
      let node = { n_key = key; n_value = v; n_prev = None; n_next = None } in
      H.add s.tbl key node;
      push_front s node;
      s.size <- s.size + 1;
      if s.size > s.cap then begin
        (match s.lru with
        | Some victim ->
          unlink s victim;
          H.remove s.tbl victim.n_key;
          s.size <- s.size - 1
        | None -> assert false);
        1
      end
      else 0
  in
  Mutex.unlock s.m;
  evicted

let mem t str =
  let s, key = locate t str in
  Mutex.lock s.m;
  let r = H.mem s.tbl key in
  Mutex.unlock s.m;
  r

let length t =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.m;
      let n = s.size in
      Mutex.unlock s.m;
      acc + n)
    0 t.shards

let capacity t = t.total_capacity
let shards t = Array.length t.shards
