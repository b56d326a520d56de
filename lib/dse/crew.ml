(* Per-worker evaluation-session crews.

   A crew runs on a persistent {!Util.Parallel.Pool} (spawn once) and
   gives every pool worker its own session for the crew's life: worker 0
   is the caller's session, the others are fresh siblings made on the
   first parallel round and dropped by [finish].  Chunk-to-worker
   assignment is racy, but each worker's session is a semantically
   invisible cache: as long as the mapped function's output depends only
   on its [(lo, hi)] range the overall result is deterministic, chunk
   results merging in order. *)

let h_chunk = Mccm_obs.Metric.histogram "dse.parallel.chunk_s"
let c_rounds = Mccm_obs.Metric.counter "dse.parallel.rounds"
let c_chunks = Mccm_obs.Metric.counter "dse.parallel.chunks"

let secs t0 t1 = float_of_int (t1 - t0) *. 1e-9

type t = {
  pool : Util.Parallel.Pool.t option; (* None: strictly sequential *)
  owned : bool;                       (* shutdown on finish? *)
  session : Mccm.Eval_session.t;
  mutable sessions : Mccm.Eval_session.t array;
      (* [||] until the first parallel round; then [sessions.(0) ==
         session] and [sessions.(w)] is worker [w]'s sibling *)
}

let create ?pool ?clamp ?(domains = 1) session =
  match pool with
  | Some p -> { pool = Some p; owned = false; session; sessions = [||] }
  | None ->
    let d = Util.Parallel.effective ?clamp ~domains ~n:max_int () in
    if d = 1 then { pool = None; owned = false; session; sessions = [||] }
    else
      {
        pool = Some (Util.Parallel.Pool.create ~clamp:false ~domains:d ());
        owned = true;
        session;
        sessions = [||];
      }

let size t =
  match t.pool with None -> 1 | Some p -> Util.Parallel.Pool.size p

let map t ?chunk_hint ~n f =
  if n = 0 then []
  else
    match t.pool with
    | None -> [ f ~session:t.session ~lo:0 ~hi:n ]
    | Some p when Util.Parallel.Pool.size p = 1 ->
      [ f ~session:t.session ~lo:0 ~hi:n ]
    | Some p ->
      if Array.length t.sessions = 0 then
        t.sessions <-
          Array.init (size t) (fun w ->
              if w = 0 then t.session else Mccm.Eval_session.sibling t.session);
      let sessions = t.sessions in
      let res =
        Util.Parallel.Pool.map p ?chunk_hint ~n
          (fun ~worker ~chunk:_ ~lo ~hi ->
            let c0 = Mccm_obs.Clock.now_ns () in
            let r = f ~session:sessions.(worker) ~lo ~hi in
            Mccm_obs.Metric.observe h_chunk
              (secs c0 (Mccm_obs.Clock.now_ns ()));
            r)
      in
      Mccm_obs.Metric.incr c_rounds;
      Mccm_obs.Metric.add c_chunks (List.length res);
      res

let add_stats (a : Mccm.Eval_session.stats) (b : Mccm.Eval_session.stats) =
  let sum (h, m) (h', m') = (h + h', m + m') in
  {
    Mccm.Eval_session.evaluations = a.evaluations + b.evaluations;
    arch_hits = a.arch_hits + b.arch_hits;
    seg_hits = a.seg_hits + b.seg_hits;
    seg_misses = a.seg_misses + b.seg_misses;
    seg_single = sum a.seg_single b.seg_single;
    seg_pipelined = sum a.seg_pipelined b.seg_pipelined;
    plan_hits = a.plan_hits + b.plan_hits;
    plan_misses = a.plan_misses + b.plan_misses;
  }

let stats t =
  let st = Mccm.Eval_session.stats in
  Array.fold_left
    (fun acc s -> if s == t.session then acc else add_stats acc (st s))
    (st t.session) t.sessions

let finish t =
  t.sessions <- [||];
  if t.owned then
    match t.pool with
    | Some p -> Util.Parallel.Pool.shutdown p
    | None -> ()

let with_crew ?pool ?clamp ?domains session f =
  let c = create ?pool ?clamp ?domains session in
  Fun.protect ~finally:(fun () -> finish c) (fun () -> f c)
