(* The mccm evaluation daemon.  See daemon.mli for the architecture
   overview; the short version:

   - one accept systhread + one reader systhread per connection parse
     and validate frames, answer control ops inline, and push
     evaluation work onto a bounded {!Bqueue} (full queue => immediate
     [overloaded] reply — backpressure is explicit);
   - worker domains dispatched through {!Util.Parallel.Pool.run} pull
     one request at a time and run it, with its coalesced waiters,
     under one error handler on the worker's own warm
     {!Mccm.Eval_session} for the request's (model, board);
   - graceful drain: a stop request (signal, [shutdown] op, or
     {!stop}) flips one atomic; the accept loop stops accepting and
     closes the queue, workers finish everything already queued, and
     [run] then unblocks any idle readers and joins every thread. *)

module Json = Util.Json
module Metric = Mccm_obs.Metric

(* ------------------------------------------------------ obs handles *)

let latency_hist =
  (* One duration histogram per endpoint, pre-registered so the worker
     hot path never touches the registry. *)
  List.map
    (fun op ->
      ( op,
        Metric.histogram
          (Printf.sprintf "serve.%s.latency" (Protocol.op_to_string op)) ))
    Protocol.all_ops

let observe_latency op seconds =
  match List.assoc_opt op latency_hist with
  | Some h -> Metric.observe h seconds
  | None -> ()

(* --------------------------------------------------------- counters *)

type counters = {
  connections_opened : int Atomic.t;
  connections_closed : int Atomic.t;
  frames : int Atomic.t;
  requests : int Atomic.t;
  enqueued : int Atomic.t;
  dispatched : int Atomic.t;
  completed : int Atomic.t;
  replies : int Atomic.t;
  cache_hits : int Atomic.t;
  cache_misses : int Atomic.t;
  cache_coalesced : int Atomic.t;
  cache_evictions : int Atomic.t;
  registry_full : int Atomic.t;
  rejected_parse : int Atomic.t;
  rejected_oversized : int Atomic.t;
  rejected_overloaded : int Atomic.t;
  rejected_deadline : int Atomic.t;
  rejected_shutdown : int Atomic.t;
  errors_bad_params : int Atomic.t;
  errors_internal : int Atomic.t;
  write_failures : int Atomic.t;
}

let new_counters () =
  {
    connections_opened = Atomic.make 0;
    connections_closed = Atomic.make 0;
    frames = Atomic.make 0;
    requests = Atomic.make 0;
    enqueued = Atomic.make 0;
    dispatched = Atomic.make 0;
    completed = Atomic.make 0;
    replies = Atomic.make 0;
    cache_hits = Atomic.make 0;
    cache_misses = Atomic.make 0;
    cache_coalesced = Atomic.make 0;
    cache_evictions = Atomic.make 0;
    registry_full = Atomic.make 0;
    rejected_parse = Atomic.make 0;
    rejected_oversized = Atomic.make 0;
    rejected_overloaded = Atomic.make 0;
    rejected_deadline = Atomic.make 0;
    rejected_shutdown = Atomic.make 0;
    errors_bad_params = Atomic.make 0;
    errors_internal = Atomic.make 0;
    write_failures = Atomic.make 0;
  }

let counters_alist c =
  [
    ("connections_opened", Atomic.get c.connections_opened);
    ("connections_closed", Atomic.get c.connections_closed);
    ("frames", Atomic.get c.frames);
    ("requests", Atomic.get c.requests);
    ("enqueued", Atomic.get c.enqueued);
    ("dispatched", Atomic.get c.dispatched);
    ("completed", Atomic.get c.completed);
    ("replies", Atomic.get c.replies);
    ("cache_hits", Atomic.get c.cache_hits);
    ("cache_misses", Atomic.get c.cache_misses);
    ("cache_coalesced", Atomic.get c.cache_coalesced);
    ("cache_evictions", Atomic.get c.cache_evictions);
    ("registry_full", Atomic.get c.registry_full);
    ("rejected_parse", Atomic.get c.rejected_parse);
    ("rejected_oversized", Atomic.get c.rejected_oversized);
    ("rejected_overloaded", Atomic.get c.rejected_overloaded);
    ("rejected_deadline", Atomic.get c.rejected_deadline);
    ("rejected_shutdown", Atomic.get c.rejected_shutdown);
    ("errors_bad_params", Atomic.get c.errors_bad_params);
    ("errors_internal", Atomic.get c.errors_internal);
    ("write_failures", Atomic.get c.write_failures);
  ]

let incr a = Atomic.incr a

(* ----------------------------------------------------------- config *)

type config = {
  socket_path : string;
  workers : int;
  queue_capacity : int;
  max_frame_bytes : int;
  max_sessions : int;
  cache_capacity : int;
  max_samples : int;
  max_specs_cap : int;
  max_sleep_s : float;
  flight_capacity : int;
  flight_slow_ms : float;
  telemetry_path : string option;
  prom_path : string option;
  telemetry_interval_s : float;
}

let default ~socket_path =
  {
    socket_path;
    workers = max 1 (Util.Parallel.recommended ());
    queue_capacity = 256;
    max_frame_bytes = Protocol.default_max_frame_bytes;
    max_sessions = 64;
    cache_capacity = 4096;
    max_samples = 100_000;
    max_specs_cap = 2_000_000;
    max_sleep_s = 30.0;
    flight_capacity = 512;
    flight_slow_ms = 50.0;
    telemetry_path = None;
    prom_path = None;
    telemetry_interval_s = 2.0;
  }

(* ------------------------------------------------------ connections *)

type conn = {
  fd : Unix.file_descr;
  out_m : Mutex.t;
  mutable alive : bool;
  cid : int;
}

(* ------------------------------------------------------------- work *)

type job =
  | J_eval of Arch.Block.arch
  | J_explore of { samples : int; seed : int64 }
  | J_enumerate of {
      ces : int;
      objective : Dse.Enumerate.objective;
      max_specs : int;
      prune : bool;
    }
  | J_validate of { samples : int; seed : int64 }
  | J_sleep of float

type work = {
  w_id : Json.t;
  w_rid : string; (* telemetry request id: client id rendered, or minted *)
  w_op : Protocol.op;
  w_conn : conn;
  w_key : string; (* session key; "" when the job carries no session *)
  w_ckey : string; (* result-cache key; "" when not cacheable *)
  w_model : Cnn.Model.t option;
  w_board : Platform.Board.t option;
  w_job : job;
  w_enqueued_ns : int;
  w_deadline_ns : int option;
  w_bytes_in : int;
  mutable w_dispatched_ns : int; (* stamped when a worker pops it *)
  mutable w_worker : int; (* worker index; -1 until dispatched *)
}

(* ----------------------------------------------------------- daemon *)

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  queue : work Bqueue.t;
  stop_flag : bool Atomic.t;
  conns : (int, conn) Hashtbl.t;
  conn_threads : (int, Thread.t) Hashtbl.t;
  conns_m : Mutex.t;
  next_cid : int Atomic.t;
  next_rid : int Atomic.t;
  sessions : int Atomic.t; (* sessions held across all workers *)
  (* Content-addressed result cache (rendered result JSON, so a hit's
     reply is byte-identical to the evaluation that populated it) and
     the single-flight waiter table: while a cacheable evaluate sits
     in the queue, identical requests attach to it instead of queuing. *)
  cache : string Util.Cache.t option;
  inflight : (string, work list ref) Hashtbl.t;
  inflight_m : Mutex.t;
  c : counters;
  started_ns : int;
  mutable state : [ `Created | `Running | `Stopped ];
  state_m : Mutex.t;
}

let now_ns () = Mccm_obs.Clock.now_ns ()

let stop t = Atomic.set t.stop_flag true
let stopping t = Atomic.get t.stop_flag
let queue_depth t = Bqueue.length t.queue
let queue_peak t = Bqueue.peak t.queue
let counters t = counters_alist t.c
let config t = t.cfg
let session_count t = Atomic.get t.sessions

(* ------------------------------------------------------------ bind *)

let bind_socket path =
  if String.length path >= 104 then
    failwith (Printf.sprintf "socket path too long (%d bytes): %s"
                (String.length path) path);
  let addr = Unix.ADDR_UNIX path in
  (if Sys.file_exists path then
     (* A stale socket from a crashed daemon is reclaimed; a live one
        (something accepts our connect) is an error. *)
     let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     match Unix.connect probe addr with
     | () ->
       Unix.close probe;
       failwith (Printf.sprintf "%s: a daemon is already serving here" path)
     | exception Unix.Unix_error _ ->
       Unix.close probe;
       (try Unix.unlink path with Unix.Unix_error _ -> ()));
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd addr;
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  fd

let create cfg =
  if cfg.workers < 1 then invalid_arg "Daemon.create: workers must be >= 1";
  if cfg.cache_capacity < 0 then
    invalid_arg "Daemon.create: cache_capacity must be >= 0";
  (* The flight recorder is process-global (like the Metric registry);
     the daemon arms it at creation so `recent` works out of the box. *)
  if cfg.flight_capacity > 0 then begin
    Mccm_obs.Flight.configure ~capacity:cfg.flight_capacity
      ~slow_ms:cfg.flight_slow_ms ();
    Mccm_obs.Flight.enable ()
  end;
  {
    cfg;
    listen_fd = bind_socket cfg.socket_path;
    queue = Bqueue.create ~capacity:cfg.queue_capacity;
    stop_flag = Atomic.make false;
    conns = Hashtbl.create 32;
    conn_threads = Hashtbl.create 32;
    conns_m = Mutex.create ();
    next_cid = Atomic.make 0;
    next_rid = Atomic.make 0;
    sessions = Atomic.make 0;
    cache =
      (if cfg.cache_capacity > 0 then
         Some (Util.Cache.create ~capacity:cfg.cache_capacity ())
       else None);
    inflight = Hashtbl.create 64;
    inflight_m = Mutex.create ();
    c = new_counters ();
    started_ns = now_ns ();
    state = `Created;
    state_m = Mutex.create ();
  }

(* ---------------------------------------------------------- replies *)

let write_line t conn frame =
  Mutex.lock conn.out_m;
  (try
     if conn.alive then begin
       let line = frame ^ "\n" in
       let len = String.length line in
       let bytes = Bytes.unsafe_of_string line in
       let sent = ref 0 in
       while !sent < len do
         sent := !sent + Unix.write conn.fd bytes !sent (len - !sent)
       done;
       incr t.c.replies
     end
   with Unix.Unix_error _ | Sys_error _ ->
     conn.alive <- false;
     incr t.c.write_failures);
  Mutex.unlock conn.out_m

let reply_ok t conn ~id ?rid result =
  write_line t conn (Protocol.ok_frame ~id ?rid result)

let reply_error t conn ~id ?rid code msg =
  write_line t conn (Protocol.error_frame ~id ?rid code msg)

(* Telemetry request id: the client's own id rendered compactly when it
   sent one, a daemon-minted "m<seq>" otherwise.  The same string goes
   into span args, flight records and (on error replies, or ok replies
   to id-less requests) the reply frame, so all three correlate. *)
let mint_rid t (id : Json.t) =
  let s =
    match id with
    | Json.Null -> "m" ^ string_of_int (Atomic.fetch_and_add t.next_rid 1)
    | Json.Str s -> s
    | other -> Json.to_string other
  in
  if String.length s > 64 then String.sub s 0 64 else s

(* ------------------------------------------------------- resolution *)

exception Bad of string

let badf fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let require_int ?default params key =
  match Json.member key params with
  | None -> (
    match default with
    | Some d -> d
    | None -> badf "missing %S" key)
  | Some j -> (
    match Json.int_ j with
    | Some v -> v
    | None -> badf "%S must be an integer" key)

let opt_string params key =
  match Json.member key params with
  | None -> None
  | Some j -> (
    match Json.string_ j with
    | Some s -> Some s
    | None -> badf "%S must be a string" key)

let board_key (b : Platform.Board.t) =
  Printf.sprintf "%s,%d,%d,%h,%h,%d" b.Platform.Board.name
    b.Platform.Board.dsps b.Platform.Board.bram_bytes
    b.Platform.Board.bandwidth_bytes_per_sec b.Platform.Board.clock_hz
    b.Platform.Board.bytes_per_element

let session_key model board =
  (* Content-addressed: a model arriving as inline text and the same
     model from the zoo share one session.  The full serialisation is
     the key — a hash digest alone could alias two models and silently
     serve one's metrics for the other. *)
  board_key board ^ "|" ^ Cnn.Model_io.to_string model

(* (model, board) from params: zoo abbreviation or inline model text,
   board by catalogue name; or a full corpus case block. *)
let resolve_target params =
  match opt_string params "case" with
  | Some text -> (
    match Validate.Case.of_string text with
    | Error msg -> badf "case: %s" msg
    | Ok case ->
      let archi =
        try Validate.Case.materialize case
        with Invalid_argument msg -> badf "case: %s" msg
      in
      (case.Validate.Case.model, case.Validate.Case.board, Some archi))
  | None ->
    let model =
      match (opt_string params "model", opt_string params "model_text") with
      | Some abbrev, None -> (
        match Cnn.Model_zoo.by_abbreviation abbrev with
        | Some m -> m
        | None -> badf "unknown model %S" abbrev)
      | None, Some text -> (
        match Cnn.Model_io.of_string text with
        | Ok m -> m
        | Error msg -> badf "model_text: %s" msg)
      | Some _, Some _ -> badf "give either \"model\" or \"model_text\""
      | None, None -> badf "missing \"model\" (or \"model_text\"/\"case\")"
    in
    let board =
      match opt_string params "board" with
      | None -> badf "missing \"board\""
      | Some name -> (
        match Platform.Board.by_name name with
        | Some b -> b
        | None -> badf "unknown board %S" name)
    in
    let archi =
      match opt_string params "arch" with
      | None -> None
      | Some s -> (
        match Arch.Shorthand.parse model s with
        | Ok a -> Some a
        | Error msg -> badf "arch: %s" msg)
    in
    (model, board, archi)

let resolve_job cfg (req : Protocol.request) =
  let params = req.Protocol.params in
  match req.Protocol.op with
  | Protocol.Evaluate ->
    let model, board, archi = resolve_target params in
    let archi =
      match archi with Some a -> a | None -> badf "missing \"arch\""
    in
    (Some model, Some board, session_key model board, J_eval archi)
  | Protocol.Explore ->
    let model, board, _ = resolve_target params in
    let samples = require_int params "samples" ~default:2000 in
    if samples < 1 then badf "\"samples\" must be >= 1";
    if samples > cfg.max_samples then
      badf "\"samples\" exceeds the server cap (%d)" cfg.max_samples;
    let seed = Int64.of_int (require_int params "seed" ~default:42) in
    (Some model, Some board, session_key model board, J_explore { samples; seed })
  | Protocol.Enumerate ->
    let model, board, _ = resolve_target params in
    let ces = require_int params "ces" ~default:4 in
    if ces < 2 then badf "\"ces\" must be >= 2";
    let max_specs = require_int params "max_specs" ~default:20_000 in
    if max_specs < 1 then badf "\"max_specs\" must be >= 1";
    if max_specs > cfg.max_specs_cap then
      badf "\"max_specs\" exceeds the server cap (%d)" cfg.max_specs_cap;
    let objective =
      match opt_string params "objective" with
      | None | Some "throughput" -> `Throughput
      | Some "latency" -> `Latency
      | Some other -> badf "unknown objective %S" other
    in
    let prune =
      match Json.member "prune" params with
      | None -> true
      | Some j -> (
        match Json.bool_ j with
        | Some b -> b
        | None -> badf "\"prune\" must be a boolean")
    in
    ( Some model,
      Some board,
      session_key model board,
      J_enumerate { ces; objective; max_specs; prune } )
  | Protocol.Validate ->
    let samples = require_int params "samples" ~default:50 in
    if samples < 1 then badf "\"samples\" must be >= 1";
    if samples > cfg.max_samples then
      badf "\"samples\" exceeds the server cap (%d)" cfg.max_samples;
    let seed = Int64.of_int (require_int params "seed" ~default:42) in
    (None, None, "", J_validate { samples; seed })
  | Protocol.Sleep ->
    let seconds =
      match Json.member "seconds" params with
      | None -> badf "missing \"seconds\""
      | Some j -> (
        match Json.number j with
        | Some s when s >= 0.0 && s <= cfg.max_sleep_s -> s
        | Some _ -> badf "\"seconds\" out of range [0, %g]" cfg.max_sleep_s
        | None -> badf "\"seconds\" must be a number")
    in
    (None, None, "", J_sleep seconds)
  | Protocol.Ping | Protocol.Stats | Protocol.Health | Protocol.Recent
  | Protocol.Shutdown ->
    badf "control op cannot be queued"

(* ----------------------------------------------------- result cache *)

(* The result cache is keyed on the raw request payload — the strings
   the client sent, before any resolution — so a hit costs a parse, a
   digest and a table probe, never a model deserialisation or a zoo
   lookup.  Identical payloads resolve identically (resolution is
   pure) and only successful results are published, so a raw key can
   never alias two different answers.  Fields are length-prefixed to
   keep the concatenation unambiguous. *)
let raw_cache_key params =
  let b = Buffer.create 96 in
  let feed k =
    match Json.member k params with
    | None -> Buffer.add_char b '-'
    | Some (Json.Str s) ->
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s
    | Some _ -> raise_notrace Exit (* the slow path reports the error *)
  in
  match List.iter feed [ "case"; "model"; "model_text"; "board"; "arch" ] with
  | () -> Some (Buffer.contents b)
  | exception Exit -> None

(* "" = not cacheable: another op, cache disabled, or client opt-out
   via the optional evaluate param {"cache": false}. *)
let evaluate_cache_key cfg (req : Protocol.request) =
  if cfg.cache_capacity <= 0 || req.Protocol.op <> Protocol.Evaluate then ""
  else
    let params = req.Protocol.params in
    let wanted =
      match Json.member "cache" params with
      | None -> true
      | Some j -> (
        match Json.bool_ j with
        | Some b -> b
        | None -> badf "\"cache\" must be a boolean")
    in
    if not wanted then ""
    else match raw_cache_key params with Some k -> k | None -> ""

(* --------------------------------------------------------- sessions *)

(* Each worker owns its sessions, one per (model, board) content key,
   created on first use and never shared, so no lock guards them.  A
   worker holds at most [max_sessions]; past the cap a new key
   evaluates uncached, and every such job is counted, so the
   misconfiguration shows up in stats/top instead of only as
   mysteriously slow evaluates. *)
let worker_session t sessions w =
  match Hashtbl.find_opt sessions w.w_key with
  | Some s -> Some s
  | None when Hashtbl.length sessions >= t.cfg.max_sessions ->
    incr t.c.registry_full;
    None
  | None ->
    let s =
      Mccm.Eval_session.create (Option.get w.w_model) (Option.get w.w_board)
    in
    Hashtbl.add sessions w.w_key s;
    incr t.sessions;
    Some s

(* ------------------------------------------------------ job running *)

let expired w =
  match w.w_deadline_ns with
  | Some d -> now_ns () > d
  | None -> false

(* Every reply to a work request, from a worker or a reader thread,
   success or error, is accounted here and nowhere else: the flight
   record, the op's latency histogram (successes only), the write and
   [completed] (successes only).  [error] is [None] for a success.  A
   reader-thread reply ([worker = -1]: a cache hit or a rejection at
   the gate) carries no queue or eval time.  Telemetry lands BEFORE
   the frame is written: once a client has read the reply, the
   registry already reflects it, so a quiescent daemon's
   Metric.snapshot matches what any later stats poll reports
   bit-for-bit (a property the test suite pins). *)
let send_reply t conn ~rid ~op ~worker ~enqueued_ns ~dispatched_ns ~bytes_in
    ~error frame =
  let now = now_ns () in
  let dispatched = worker >= 0 in
  if Option.is_none error then
    observe_latency op (float_of_int (now - enqueued_ns) /. 1e9);
  Mccm_obs.Flight.record ~rid ~op:(Protocol.op_to_string op) ~worker
    ~queue_ns:(if dispatched then max 0 (dispatched_ns - enqueued_ns) else 0)
    ~eval_ns:(if dispatched then max 0 (now - dispatched_ns) else 0)
    ~bytes_in
    ~bytes_out:(String.length frame + 1)
    ~outcome:
      (match error with
      | None -> "ok"
      | Some code -> Protocol.error_code_to_string code);
  write_line t conn frame;
  if Option.is_none error then incr t.c.completed

let send_work_reply t w ~error frame =
  send_reply t w.w_conn ~rid:w.w_rid ~op:w.w_op ~worker:w.w_worker
    ~enqueued_ns:w.w_enqueued_ns ~dispatched_ns:w.w_dispatched_ns
    ~bytes_in:w.w_bytes_in ~error frame

let finish_reply t w result =
  let rid = if w.w_id = Json.Null then Some w.w_rid else None in
  send_work_reply t w ~error:None (Protocol.ok_frame ~id:w.w_id ?rid result)

let reply_work_error t w code msg =
  send_work_reply t w ~error:(Some code)
    (Protocol.error_frame ~id:w.w_id ~rid:w.w_rid code msg)

let reject_deadline t w =
  incr t.c.rejected_deadline;
  reply_work_error t w Protocol.Deadline_exceeded
    "deadline expired before evaluation started"

(* Rejection at the gate, from a reader thread, before any work record
   exists: no worker ever saw the request. *)
let reject_at_gate t conn ~id ~rid ~op ~bytes_in code msg =
  send_reply t conn ~rid ~op ~worker:(-1) ~enqueued_ns:0 ~dispatched_ns:0
    ~bytes_in ~error:(Some code) (Protocol.error_frame ~id ~rid code msg)

(* ------------------------------------------- cache and single-flight *)

(* Byte-identical to [Protocol.ok_frame ~id ?rid result] for the
   [result] whose compact rendering is [rendered]: the cache stores
   the result member pre-rendered (rendering is deterministic), so a
   hit's reply frame matches the evaluation that populated the entry
   bit for bit without re-rendering the metrics. *)
let cached_ok_frame ~id ?rid rendered =
  let b = Buffer.create (String.length rendered + 48) in
  Buffer.add_string b "{\"id\":";
  Buffer.add_string b (Json.to_string id);
  Buffer.add_string b ",\"ok\":true,";
  (match rid with
  | Some r ->
    Buffer.add_string b "\"rid\":";
    Buffer.add_string b (Json.to_string (Json.Str r));
    Buffer.add_char b ','
  | None -> ());
  Buffer.add_string b "\"result\":";
  Buffer.add_string b rendered;
  Buffer.add_char b '}';
  Buffer.contents b

(* Reader-path cache consult.  Opt-outs, malformed "cache" members and
   already-expired deadlines all fall through to the slow path, which
   validates and rejects as before; only a clean hit is served here,
   inline on the reader thread: the queue and the worker pool never see
   the request. *)
let serve_cached t conn ~id ~rid ~op ~bytes_in (req : Protocol.request) =
  match t.cache with
  | None -> false
  | Some cache ->
    req.Protocol.op = Protocol.Evaluate
    && (match req.Protocol.deadline_ms with
       | Some ms -> ms > 0.0
       | None -> true)
    && (match Json.member "cache" req.Protocol.params with
       | None | Some (Json.Bool true) -> true
       | Some _ -> false)
    &&
    match raw_cache_key req.Protocol.params with
    | None -> false
    | Some ckey -> (
      match Util.Cache.find cache ckey with
      | None -> false
      | Some rendered ->
        let received_ns = now_ns () in
        let rid_out = if id = Json.Null then Some rid else None in
        incr t.c.cache_hits;
        send_reply t conn ~rid ~op ~worker:(-1) ~enqueued_ns:received_ns
          ~dispatched_ns:received_ns ~bytes_in ~error:None
          (cached_ok_frame ~id ?rid:rid_out rendered);
        true)

(* While a cacheable evaluate (the "leader") sits in the queue, its
   inflight entry collects identical requests; the dispatching worker
   drains the entry and replies to everyone from one evaluation. *)
let drain_waiters t w =
  if w.w_ckey = "" then []
  else begin
    Mutex.lock t.inflight_m;
    let ws =
      match Hashtbl.find_opt t.inflight w.w_ckey with
      | Some waiters ->
        Hashtbl.remove t.inflight w.w_ckey;
        List.rev !waiters
      | None -> []
    in
    Mutex.unlock t.inflight_m;
    ws
  end

let push_work t w =
  if Bqueue.try_push t.queue w then incr t.c.enqueued
  else begin
    (* The leader never made the queue: anyone already attached to it
       must be turned away too, or they would wait forever. *)
    let stranded = w :: drain_waiters t w in
    List.iter
      (fun v ->
        if stopping t then begin
          incr t.c.rejected_shutdown;
          reply_work_error t v Protocol.Shutting_down "daemon is draining"
        end
        else begin
          incr t.c.rejected_overloaded;
          reply_work_error t v Protocol.Overloaded
            (Printf.sprintf "request queue full (%d)" t.cfg.queue_capacity)
        end)
      stranded
  end

(* Coalesce-or-enqueue: the first cacheable request for a key becomes
   the queued leader (and counts the cache miss); identical requests
   arriving before it is dispatched attach as waiters and never touch
   the queue. *)
let enqueue_work t w =
  if w.w_ckey = "" then push_work t w
  else begin
    Mutex.lock t.inflight_m;
    match Hashtbl.find_opt t.inflight w.w_ckey with
    | Some waiters ->
      waiters := w :: !waiters;
      Mutex.unlock t.inflight_m;
      incr t.c.cache_coalesced
    | None ->
      Hashtbl.add t.inflight w.w_ckey (ref []);
      Mutex.unlock t.inflight_m;
      incr t.c.cache_misses;
      push_work t w
  end

(* Publish a finished evaluation under its cache key.  The rendered
   string is what future hits splice into their frames. *)
let publish t w result =
  match t.cache with
  | Some cache when w.w_ckey <> "" ->
    let rendered = Json.to_string result in
    let evicted = Util.Cache.add cache w.w_ckey rendered in
    if evicted > 0 then ignore (Atomic.fetch_and_add t.c.cache_evictions evicted)
  | _ -> ()

let json_of_evaluated model (e : Dse.Explore.evaluated) =
  Json.Obj
    [
      ( "arch",
        Json.Str
          (Arch.Notation.to_string
             (Arch.Custom.arch_of_spec model e.Dse.Explore.spec)) );
      ("metrics", Protocol.json_of_metrics e.Dse.Explore.metrics);
    ]

let run_explore session model board ~samples ~seed =
  let r = Dse.Explore.run ~seed ~samples ?session model board in
  Json.Obj
    [
      ("sampled", Json.Num (float_of_int r.Dse.Explore.sampled));
      ("distinct", Json.Num (float_of_int r.Dse.Explore.distinct));
      ( "feasible",
        Json.Num (float_of_int (List.length r.Dse.Explore.evaluated)) );
      ("elapsed_s", Json.Num r.Dse.Explore.elapsed_s);
      ( "front",
        Json.Arr
          (List.map
             (fun (p : Dse.Explore.evaluated Dse.Pareto.point) ->
               json_of_evaluated model p.Dse.Pareto.item)
             r.Dse.Explore.front) );
    ]

let run_enumerate session model board ~ces ~objective ~max_specs ~prune =
  let winner, stats =
    Dse.Enumerate.exhaustive_best ~max_specs ?session ~prune ~objective ~ces
      model board
  in
  Json.Obj
    [
      ( "winner",
        match winner with
        | None -> Json.Null
        | Some e -> json_of_evaluated model e );
      ("enumerated", Json.Num (float_of_int stats.Dse.Enumerate.enumerated));
      ("evaluated", Json.Num (float_of_int stats.Dse.Enumerate.evaluated));
      ("pruned", Json.Num (float_of_int stats.Dse.Enumerate.pruned));
      ("nodes", Json.Num (float_of_int stats.Dse.Enumerate.nodes));
    ]

let run_validate ~samples ~seed =
  let r = Validate.Sweep.run ~samples ~seed () in
  Json.Obj
    [
      ("ok", Json.Bool (Validate.Sweep.ok r));
      ("corpus_cases", Json.Num (float_of_int r.Validate.Sweep.corpus_cases));
      ( "generated_cases",
        Json.Num (float_of_int r.Validate.Sweep.generated_cases) );
      ( "failures",
        Json.Num (float_of_int (List.length r.Validate.Sweep.failures)) );
      ( "worst",
        Json.Obj
          [
            ("latency", Json.Num r.Validate.Sweep.worst.Validate.Envelope.latency);
            ( "throughput",
              Json.Num r.Validate.Sweep.worst.Validate.Envelope.throughput );
            ( "accesses",
              Json.Num r.Validate.Sweep.worst.Validate.Envelope.accesses );
            ("buffers", Json.Num r.Validate.Sweep.worst.Validate.Envelope.buffers);
          ] );
      ("elapsed_s", Json.Num r.Validate.Sweep.elapsed_s);
    ]

(* Run one request under its own span and error handler, then answer
   each of its recipients (the request and its coalesced waiters): the
   result, or the request's own [bad_params]/[internal] error, counted
   once per reply. *)
let run_unit t w recipients f =
  match
    Mccm_obs.span ~cat:"serve"
      ~args:[ ("rid", w.w_rid) ]
      ("serve." ^ Protocol.op_to_string w.w_op)
      f
  with
  | result -> List.iter (fun v -> finish_reply t v result) recipients
  | exception e ->
    let counter, code, msg =
      match e with
      | Invalid_argument msg | Failure msg ->
        (t.c.errors_bad_params, Protocol.Bad_params, msg)
      | e -> (t.c.errors_internal, Protocol.Internal, Printexc.to_string e)
    in
    List.iter
      (fun v ->
        incr counter;
        reply_work_error t v code msg)
      recipients

let run_job t sessions w =
  match w.w_job with
  | J_eval archi ->
    let m =
      match worker_session t sessions w with
      | Some s -> Mccm.Eval_session.metrics s archi
      | None ->
        Mccm.Evaluate.metrics (Option.get w.w_model) (Option.get w.w_board)
          archi
    in
    let result = Json.Obj [ ("metrics", Protocol.json_of_metrics m) ] in
    publish t w result;
    result
  | J_sleep seconds ->
    Unix.sleepf seconds;
    Json.Obj [ ("slept_s", Json.Num seconds) ]
  | J_explore { samples; seed } ->
    run_explore (worker_session t sessions w) (Option.get w.w_model)
      (Option.get w.w_board) ~samples ~seed
  | J_enumerate { ces; objective; max_specs; prune } ->
    run_enumerate (worker_session t sessions w) (Option.get w.w_model)
      (Option.get w.w_board) ~ces ~objective ~max_specs ~prune
  | J_validate { samples; seed } -> run_validate ~samples ~seed

(* One path for every request: pop it, pick up its coalesced waiters
   (they inherit its dispatch stamp; their own enqueue time still dates
   the queue wait), refuse the recipients whose deadline has passed,
   and run the request once for the rest. *)
let worker_loop t worker =
  let sessions = Hashtbl.create 8 in
  let rec loop () =
    match Bqueue.pop t.queue with
    | None -> ()
    | Some w ->
      incr t.c.dispatched;
      let dispatched_ns = now_ns () in
      let recipients = w :: drain_waiters t w in
      List.iter
        (fun v ->
          v.w_dispatched_ns <- dispatched_ns;
          v.w_worker <- worker)
        recipients;
      let live, dead = List.partition (fun v -> not (expired v)) recipients in
      List.iter (reject_deadline t) dead;
      if live <> [] then run_unit t w live (fun () -> run_job t sessions w);
      loop ()
  in
  try loop () with _ -> ()

(* ------------------------------------------------------ control ops *)

let uptime_s t = float_of_int (now_ns () - t.started_ns) /. 1e9

let stats_json t =
  let counters =
    Json.Obj
      (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) (counters t))
  in
  let snap = Metric.snapshot () in
  let obs =
    if Mccm_obs.Control.stats_on () then begin
      let latencies =
        List.filter_map
          (fun (name, h) ->
            let prefix = "serve." and suffix = ".latency" in
            let n = String.length name in
            let pn = String.length prefix and sn = String.length suffix in
            if
              n > pn + sn
              && String.sub name 0 pn = prefix
              && String.sub name (n - sn) sn = suffix
              && h.Metric.count > 0
            then
              Some
                ( String.sub name pn (n - pn - sn),
                  Json.Obj
                    [
                      ("count", Json.Num (float_of_int h.Metric.count));
                      ("p50", Json.Num (Metric.quantile h ~q:0.5));
                      ("p95", Json.Num (Metric.quantile h ~q:0.95));
                      ("p99", Json.Num (Metric.quantile h ~q:0.99));
                    ] )
            else None)
          snap.Metric.histograms
      in
      Some (Json.Obj [ ("latency", Json.Obj latencies) ])
    end
    else None
  in
  Json.obj
    [
      ("version", Some (Json.Str Protocol.version));
      ("uptime_s", Some (Json.Num (uptime_s t)));
      ("workers", Some (Json.Num (float_of_int t.cfg.workers)));
      ("queue_depth", Some (Json.Num (float_of_int (queue_depth t))));
      ("queue_peak", Some (Json.Num (float_of_int (queue_peak t))));
      ( "queue_capacity",
        Some (Json.Num (float_of_int t.cfg.queue_capacity)) );
      ("draining", Some (Json.Bool (stopping t)));
      ("sessions", Some (Json.Num (float_of_int (session_count t))));
      ( "cache",
        Some
          (Json.Obj
             [
               ("capacity", Json.Num (float_of_int t.cfg.cache_capacity));
               ( "entries",
                 Json.Num
                   (float_of_int
                      (match t.cache with
                      | Some c -> Util.Cache.length c
                      | None -> 0)) );
             ]) );
      ("counters", Some counters);
      (* The full registry, exactly: Metric.of_json on this member
         reconstructs the snapshot bit-for-bit (counters, gauges and
         raw histogram samples, hence quantiles too). *)
      ("metrics", Some (Metric.to_json snap));
      ("obs", obs);
    ]

let health_json t =
  Json.Obj
    [
      ("status", Json.Str (if stopping t then "draining" else "ok"));
      ("version", Json.Str Protocol.version);
      ("uptime_s", Json.Num (uptime_s t));
      ("workers", Json.Num (float_of_int t.cfg.workers));
      ("queue_depth", Json.Num (float_of_int (queue_depth t)));
      ("queue_capacity", Json.Num (float_of_int t.cfg.queue_capacity));
      ("sessions", Json.Num (float_of_int (session_count t)));
      ("completed", Json.Num (float_of_int (Atomic.get t.c.completed)));
      ( "rejected",
        Json.Num
          (float_of_int
             (Atomic.get t.c.rejected_overloaded
             + Atomic.get t.c.rejected_deadline
             + Atomic.get t.c.rejected_shutdown)) );
    ]

let recent_json ~n =
  let newest = List.rev (Mccm_obs.Flight.dump ()) in
  let rec take k = function
    | [] -> []
    | x :: tl -> if k <= 0 then [] else x :: take (k - 1) tl
  in
  Json.Obj
    [
      ("enabled", Json.Bool (Mccm_obs.Flight.enabled ()));
      ("total", Json.Num (float_of_int (Mccm_obs.Flight.total ())));
      ( "records",
        Json.Arr (List.map Mccm_obs.Flight.to_json (take n newest)) );
    ]

(* -------------------------------------------------------- telemetry *)

(* Optional periodic writer (a systhread on the main domain, like the
   readers): one JSONL stats snapshot appended per tick, and/or a
   Prometheus text file replaced atomically (tmp + rename) per tick. *)

let telemetry_tick t =
  (match t.cfg.telemetry_path with
  | None -> ()
  | Some path -> (
    try
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc (Json.to_string (stats_json t));
      output_char oc '\n';
      close_out oc
    with Sys_error _ -> ()));
  match t.cfg.prom_path with
  | None -> ()
  | Some path -> (
    try
      let text =
        Mccm_obs.Prometheus.render
          ~extra_counters:
            (List.map (fun (k, v) -> ("serve_" ^ k, v)) (counters t))
          ~extra_gauges:
            [
              ("serve_queue_depth_now", float_of_int (queue_depth t));
              ("serve_queue_peak", float_of_int (queue_peak t));
              ("serve_uptime_seconds", uptime_s t);
            ]
          (Metric.snapshot ())
      in
      let tmp = path ^ ".tmp" in
      let oc = open_out tmp in
      output_string oc text;
      close_out oc;
      Sys.rename tmp path
    with Sys_error _ -> ())

let telemetry_loop t done_flag =
  let interval = Float.max 0.05 t.cfg.telemetry_interval_s in
  let rec loop () =
    if not (Atomic.get done_flag) then begin
      telemetry_tick t;
      let slept = ref 0.0 in
      while (not (Atomic.get done_flag)) && !slept < interval do
        Thread.delay 0.05;
        slept := !slept +. 0.05
      done;
      loop ()
    end
  in
  loop ();
  (* One final tick so the files reflect the drained state. *)
  telemetry_tick t

(* ----------------------------------------------------- frame intake *)

(* Control ops (ping/stats/health/recent/shutdown) are answered here,
   inline on the reader thread from lock-free snapshots — they are
   never queued, so they keep working while every worker domain is
   saturated or the daemon is draining.  They also deliberately touch
   no Metric counter: a stats poll must not perturb the snapshot it
   reports (the bit-for-bit round-trip test relies on this). *)
let handle_request t conn ~bytes_in (req : Protocol.request) =
  let id = req.Protocol.id in
  let rid = mint_rid t id in
  match req.Protocol.op with
  | Protocol.Ping ->
    reply_ok t conn ~id
      (Json.Obj
         [
           ("pong", Json.Bool true);
           ("version", Json.Str Protocol.version);
           ("uptime_s", Json.Num (uptime_s t));
         ])
  | Protocol.Stats -> reply_ok t conn ~id (stats_json t)
  | Protocol.Health -> reply_ok t conn ~id (health_json t)
  | Protocol.Recent -> (
    match require_int req.Protocol.params "n" ~default:50 with
    | exception Bad msg -> reply_error t conn ~id ~rid Protocol.Bad_params msg
    | n -> reply_ok t conn ~id (recent_json ~n:(min (max 0 n) 10_000)))
  | Protocol.Shutdown ->
    reply_ok t conn ~id (Json.Obj [ ("draining", Json.Bool true) ]);
    stop t
  | _ -> (
    let op = req.Protocol.op in
    if stopping t then begin
      incr t.c.rejected_shutdown;
      reject_at_gate t conn ~id ~rid ~op ~bytes_in Protocol.Shutting_down
        "daemon is draining"
    end
    else if serve_cached t conn ~id ~rid ~op ~bytes_in req then ()
    else
      match
        let resolved = resolve_job t.cfg req in
        (resolved, evaluate_cache_key t.cfg req)
      with
      | exception Bad msg ->
        incr t.c.errors_bad_params;
        reject_at_gate t conn ~id ~rid ~op ~bytes_in Protocol.Bad_params msg
      | (model, board, key, job), ckey -> (
        let enq = now_ns () in
        let deadline_ns =
          Option.map
            (fun ms -> enq + int_of_float (ms *. 1e6))
            req.Protocol.deadline_ms
        in
        match deadline_ns with
        | Some d when d <= enq ->
          (* Already expired: answered at the gate, the queue and the
             worker pool never see it. *)
          incr t.c.rejected_deadline;
          reject_at_gate t conn ~id ~rid ~op ~bytes_in
            Protocol.Deadline_exceeded "deadline expired on arrival"
        | _ ->
          enqueue_work t
            {
              w_id = id;
              w_rid = rid;
              w_op = op;
              w_conn = conn;
              w_key = key;
              w_ckey = ckey;
              w_model = model;
              w_board = board;
              w_job = job;
              w_enqueued_ns = enq;
              w_deadline_ns = deadline_ns;
              w_bytes_in = bytes_in;
              w_dispatched_ns = 0;
              w_worker = -1;
            }))

let handle_frame t conn line =
  incr t.c.frames;
  match Protocol.parse_request line with
  | Error (id, code, msg) ->
    incr t.c.rejected_parse;
    reply_error t conn ~id ~rid:(mint_rid t id) code msg
  | Ok req ->
    incr t.c.requests;
    handle_request t conn ~bytes_in:(String.length line) req

(* -------------------------------------------------- connection loop *)

let conn_loop t conn =
  (* Reads land in one growable buffer whose front [0, !len) holds the
     head of an unfinished frame.  Only the newly read bytes are searched
     for newlines, and each frame is copied out once.  After an
     oversized frame, bytes are dropped up to the next newline, then
     parsing resumes. *)
  let buf = ref (Bytes.create 65536) in
  let len = ref 0 in
  let discard = ref false in
  let oversized () =
    incr t.c.frames;
    incr t.c.rejected_oversized;
    reply_error t conn ~id:Json.Null Protocol.Oversized_frame
      (Printf.sprintf "frame exceeds %d bytes" t.cfg.max_frame_bytes)
  in
  let frame ~first ~last =
    (* Tolerate CRLF clients. *)
    let last =
      if last > first && Bytes.get !buf (last - 1) = '\r' then last - 1
      else last
    in
    let n = last - first in
    if n > t.cfg.max_frame_bytes then oversized ()
    else if n > 0 then handle_frame t conn (Bytes.sub_string !buf first n)
  in
  let process_read n =
    let stop = !len + n in
    let first = ref 0 in
    for i = !len to stop - 1 do
      if Bytes.get !buf i = '\n' then begin
        if !discard then discard := false else frame ~first:!first ~last:i;
        first := i + 1
      end
    done;
    if !discard then len := 0
    else begin
      len := stop - !first;
      if !first > 0 then Bytes.blit !buf !first !buf 0 !len;
      if !len > t.cfg.max_frame_bytes then begin
        oversized ();
        len := 0;
        discard := true
      end
    end
  in
  let rec loop () =
    if !len = Bytes.length !buf then buf := Bytes.extend !buf 0 !len;
    match Unix.read conn.fd !buf !len (Bytes.length !buf - !len) with
    | 0 -> ()
    | n ->
      process_read n;
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()
  in
  loop ();
  conn.alive <- false;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Mutex.lock t.conns_m;
  Hashtbl.remove t.conns conn.cid;
  Mutex.unlock t.conns_m;
  incr t.c.connections_closed

(* ------------------------------------------------------ accept loop *)

let accept_loop t =
  let rec loop () =
    if stopping t then ()
    else begin
      (* select with a timeout so a stop request is observed promptly
         even when no client ever connects. *)
      let ready, _, _ =
        try Unix.select [ t.listen_fd ] [] [] 0.2
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      (if ready <> [] then
         match Unix.accept t.listen_fd with
         | fd, _ ->
           let cid = Atomic.fetch_and_add t.next_cid 1 in
           let conn = { fd; out_m = Mutex.create (); alive = true; cid } in
           incr t.c.connections_opened;
           Mutex.lock t.conns_m;
           Hashtbl.replace t.conns cid conn;
           Hashtbl.replace t.conn_threads cid
             (Thread.create (fun () -> conn_loop t conn) ());
           Mutex.unlock t.conns_m
         | exception Unix.Unix_error _ -> ());
      loop ()
    end
  in
  loop ();
  (* Drain begins: no new work is admitted; everything already queued
     will be served before the workers exit. *)
  Bqueue.close t.queue

(* -------------------------------------------------------------- run *)

let run t =
  Mutex.lock t.state_m;
  (match t.state with
  | `Created -> t.state <- `Running
  | `Running | `Stopped ->
    Mutex.unlock t.state_m;
    invalid_arg "Daemon.run: already run");
  Mutex.unlock t.state_m;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let acceptor = Thread.create (fun () -> accept_loop t) () in
  let telemetry_done = Atomic.make false in
  let telemetry =
    if t.cfg.telemetry_path = None && t.cfg.prom_path = None then None
    else Some (Thread.create (fun () -> telemetry_loop t telemetry_done) ())
  in
  (* Worker domains via the shared persistent pool.  The pool is sized
     workers + 1 and the caller's own slot is a no-op: the main thread
     then idles inside [Pool.run] instead of computing, so the accept
     and reader systhreads (which live on the main domain) keep their
     scheduling latency even under full evaluation load. *)
  Util.Parallel.Pool.with_pool ~clamp:false ~domains:(t.cfg.workers + 1)
    (fun pool ->
      Util.Parallel.Pool.run pool (fun worker ->
          if worker > 0 then worker_loop t (worker - 1)));
  (* Workers are done (queue closed and drained).  Unblock idle
     readers and join every thread. *)
  Thread.join acceptor;
  Atomic.set telemetry_done true;
  Option.iter Thread.join telemetry;
  Mutex.lock t.conns_m;
  let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  let threads = Hashtbl.fold (fun _ th acc -> th :: acc) t.conn_threads [] in
  Hashtbl.reset t.conn_threads;
  Mutex.unlock t.conns_m;
  List.iter
    (fun c ->
      try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  List.iter Thread.join threads;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  Mutex.lock t.state_m;
  t.state <- `Stopped;
  Mutex.unlock t.state_m

(* ------------------------------------------------- test scaffolding *)

type handle = { daemon : t; runner : Thread.t }

let daemon h = h.daemon

let wait_ready ?(timeout_s = 10.0) path =
  (* Poll until a ping round-trips: proves the accept loop is serving,
     not merely that the socket file exists. *)
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec attempt () =
    if Unix.gettimeofday () > deadline then
      failwith ("daemon not ready within timeout: " ^ path)
    else
      let ok =
        match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
        | fd -> (
          match
            Unix.connect fd (Unix.ADDR_UNIX path);
            let frame = "{\"id\":0,\"op\":\"ping\"}\n" in
            ignore (Unix.write_substring fd frame 0 (String.length frame));
            let buf = Bytes.create 4096 in
            let n = Unix.read fd buf 0 4096 in
            n > 0
          with
          | ok ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            ok
          | exception _ ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            false)
        | exception _ -> false
      in
      if ok then ()
      else begin
        Thread.delay 0.02;
        attempt ()
      end
  in
  attempt ()

let spawn cfg =
  let d = create cfg in
  let runner = Thread.create (fun () -> run d) () in
  (try wait_ready cfg.socket_path
   with e ->
     stop d;
     Thread.join runner;
     raise e);
  { daemon = d; runner }

let shutdown h =
  stop h.daemon;
  Thread.join h.runner
