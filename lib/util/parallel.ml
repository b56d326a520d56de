let recommended () = Domain.recommended_domain_count ()

let effective ?(clamp = true) ~domains ~n () =
  let d = max 1 domains in
  let d = if clamp then min d (recommended ()) else d in
  min d (max 1 n)

let bounds ~chunks ~n =
  (* Never emit empty chunks: with fewer items than requested chunks the
     tail chunks would all be [(n, n)] — cap the chunk count at [n] (but
     at least 1, so [n = 0] still yields the single empty range). *)
  let chunks = max 1 (min chunks (max 1 n)) in
  let per = n / chunks and rem = n mod chunks in
  let bound i = (i * per) + min i rem in
  Array.init chunks (fun i -> (bound i, bound (i + 1)))

(* ------------------------------------------------------------- pool *)

module Pool = struct
  (* A persistent crew of worker domains.  The calling domain is worker
     0; [size - 1] spawned domains are workers 1 .. size - 1.  Work
     arrives as whole rounds (a closure every worker runs once),
     announced by bumping [epoch] under the lock; workers park on
     [work] between rounds, the caller parks on [finished] until the
     round's last spawned worker checks out.  One pool serves any
     number of rounds — the per-round cost is a broadcast and a
     condition-variable join, never a [Domain.spawn]. *)

  type t = {
    size : int;
    mutable doms : unit Domain.t array;
    lock : Mutex.t;
    work : Condition.t;
    finished : Condition.t;
    mutable job : (int -> unit) option; (* worker id -> unit *)
    mutable epoch : int;
    mutable busy : int;         (* spawned workers still in this round *)
    mutable stopped : bool;
    mutable failure : exn option; (* first worker exception of the round *)
  }

  let size t = t.size

  let rec worker_loop t ~id my_epoch =
    Mutex.lock t.lock;
    while (not t.stopped) && t.epoch = my_epoch do
      Condition.wait t.work t.lock
    done;
    if t.stopped then Mutex.unlock t.lock
    else begin
      let epoch = t.epoch in
      let job = Option.get t.job in
      Mutex.unlock t.lock;
      let result = try Ok (job id) with exn -> Error exn in
      Mutex.lock t.lock;
      (match result with
      | Ok () -> ()
      | Error exn -> if t.failure = None then t.failure <- Some exn);
      t.busy <- t.busy - 1;
      if t.busy = 0 then Condition.broadcast t.finished;
      Mutex.unlock t.lock;
      worker_loop t ~id epoch
    end

  let create ?clamp ~domains () =
    (* [n] is unknown at pool-creation time, so only the
       recommended-domain clamp applies here; every round's chunking
       re-clamps against its own [n]. *)
    let size = effective ?clamp ~domains ~n:max_int () in
    let t =
      {
        size;
        doms = [||];
        lock = Mutex.create ();
        work = Condition.create ();
        finished = Condition.create ();
        job = None;
        epoch = 0;
        busy = 0;
        stopped = false;
        failure = None;
      }
    in
    (* Worker [w >= 1] lives in [doms.(w - 1)] for the pool's whole
       life, so a caller's per-worker state (say a worker's evaluation
       session) stays on the domain that created it. *)
    t.doms <-
      Array.init (size - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop t ~id:(i + 1) 0));
    t

  let shutdown t =
    Mutex.lock t.lock;
    let was_stopped = t.stopped in
    t.stopped <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    if not was_stopped then begin
      Array.iter Domain.join t.doms;
      t.doms <- [||]
    end

  let with_pool ?clamp ~domains f =
    let t = create ?clamp ~domains () in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

  let run t job =
    if t.size = 1 then job 0
    else begin
      Mutex.lock t.lock;
      if t.stopped then begin
        Mutex.unlock t.lock;
        invalid_arg "Parallel.Pool.run: pool is shut down"
      end;
      t.failure <- None;
      t.job <- Some job;
      t.epoch <- t.epoch + 1;
      t.busy <- t.size - 1;
      Condition.broadcast t.work;
      Mutex.unlock t.lock;
      let caller = try Ok (job 0) with exn -> Error exn in
      Mutex.lock t.lock;
      while t.busy > 0 do
        Condition.wait t.finished t.lock
      done;
      t.job <- None;
      let worker_failure = t.failure in
      t.failure <- None;
      Mutex.unlock t.lock;
      (match caller with Ok () -> () | Error exn -> raise exn);
      match worker_failure with None -> () | Some exn -> raise exn
    end

  (* Deterministic oversubscribed chunking: enough chunks that one slow
     chunk cannot straggle a whole worker's share (up to 8 per worker),
     but each at least [chunk_hint] items so the per-chunk dispatch (an
     atomic fetch-and-add) stays amortised.  A pure function of
     (size, chunk_hint, n) — never of timing. *)
  let chunk_count t ~chunk_hint ~n =
    if t.size = 1 || n <= 1 then min 1 n
    else max 1 (min n (max t.size (min (t.size * 8) (n / max 1 chunk_hint))))

  let map t ?(chunk_hint = 256) ~n f =
    if n < 0 then invalid_arg "Parallel.Pool.map: negative n";
    if n = 0 then []
    else if t.size = 1 then [ f ~worker:0 ~chunk:0 ~lo:0 ~hi:n ]
    else begin
      let parts = bounds ~chunks:(chunk_count t ~chunk_hint ~n) ~n in
      let chunks = Array.length parts in
      let results = Array.make chunks None in
      let next = Atomic.make 0 in
      run t (fun worker ->
          let rec pull () =
            let chunk = Atomic.fetch_and_add next 1 in
            if chunk < chunks then begin
              let lo, hi = parts.(chunk) in
              results.(chunk) <- Some (f ~worker ~chunk ~lo ~hi);
              pull ()
            end
          in
          pull ());
      Array.to_list
        (Array.map
           (function
             | Some v -> v
             | None -> invalid_arg "Parallel.Pool.map: unfinished chunk")
           results)
    end
end

let map_pooled ?pool ?clamp ?chunk_hint ~domains ~n f =
  match pool with
  | Some p -> Pool.map p ?chunk_hint ~n f
  | None ->
    let d = effective ?clamp ~domains ~n () in
    if d = 1 then [ f ~worker:0 ~chunk:0 ~lo:0 ~hi:n ]
    else
      Pool.with_pool ~clamp:false ~domains:d (fun p ->
          Pool.map p ?chunk_hint ~n f)
