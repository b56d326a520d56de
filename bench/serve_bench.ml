(* Sustained-throughput benchmark for the mccm daemon.

   Starts an in-process daemon and hammers it with concurrent clients
   sending evaluate requests over the real Unix socket.  The wall-clock
   budget is split into four interleaved phases — flight recorder
   disabled / enabled / disabled / enabled — toggled in-process, so the
   same warm daemon serves both arms and drift (cache state, CPU
   frequency) cancels out.  These legacy arms opt out of the result
   cache ({"cache": false}) so they keep measuring the full serve path
   and stay comparable with pre-cache baselines.

   Three result-cache arms follow, replaying a Zipf-skewed mix of
   distinct designs on a deep model through one pipelined connection
   (a bounded send window, so throughput is serve-path-bound rather
   than round-trip-bound): cold (cache opted out), warm (cache on,
   primed — every request is a reader-path hit), and a coalesced
   thundering herd (workers wedged on sleep ops while N identical
   requests pile onto one queued leader — exactly one evaluation, N
   replies, asserted from the daemon's own counters).

   Everything lands in BENCH_serve.json (mccm-bench-serve/3; the /1
   headline fields are kept, computed over the combined flight window).
   check_bench --serve validates the file and gates the flight
   overhead, the warm/cold speedup and the herd's single evaluation.

   Usage: serve.exe [out.json] [--seconds S] [--clients N] [--workers N] *)

module Json = Util.Json

let default_seconds = 5.0

type opts = {
  mutable out : string;
  mutable seconds : float;
  mutable clients : int;
  mutable workers : int;
}

let parse_argv () =
  let o =
    {
      out = "BENCH_serve.json";
      seconds = default_seconds;
      clients = 4;
      workers = Domain.recommended_domain_count ();
    }
  in
  let rec go = function
    | [] -> ()
    | "--seconds" :: v :: rest ->
      o.seconds <- float_of_string v;
      go rest
    | "--clients" :: v :: rest ->
      o.clients <- int_of_string v;
      go rest
    | "--workers" :: v :: rest ->
      o.workers <- int_of_string v;
      go rest
    | path :: rest ->
      o.out <- path;
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  o

(* The request mix rotates a handful of distinct designs on one
   (model, board): sessions keep no whole-arch results, so this
   measures the daemon's steady-state serve path (session reuse), not
   a cache replay of a single architecture. *)
let archs =
  [| "hybrid/2"; "hybrid/3"; "hybrid/4"; "segmented/2"; "segmented/3";
     "segmentedrr/3" |]

type client_tally = {
  mutable replies : int;
  mutable errors : int;
  mutable dropped : int;
  mutable latencies_ms : float list;
}

let client_loop sock stop tally k =
  match Serve.Client.connect sock with
  | Error _ -> tally.dropped <- tally.dropped + 1
  | Ok c ->
    let i = ref k in
    while not (Atomic.get stop) do
      incr i;
      let arch = archs.(!i mod Array.length archs) in
      let t0 = Mccm_obs.Clock.now_ns () in
      match
        Serve.Client.evaluate ~timeout_s:60.0 ~cache:false c ~model:"MobV2"
          ~board:"VCU108" ~arch
      with
      | Ok _ ->
        tally.replies <- tally.replies + 1;
        tally.latencies_ms <-
          (float_of_int (Mccm_obs.Clock.now_ns () - t0) /. 1e6)
          :: tally.latencies_ms
      | Error ("transport", _) ->
        if not (Atomic.get stop) then tally.dropped <- tally.dropped + 1;
        Atomic.set stop true
      | Error _ -> tally.errors <- tally.errors + 1
    done;
    Serve.Client.close c

type phase_result = {
  p_replies : int;
  p_errors : int;
  p_dropped : int;
  p_elapsed : float;
  p_latencies_ms : float list;
}

let run_phase o sock ~seconds =
  let stop = Atomic.make false in
  let tallies =
    Array.init o.clients (fun _ ->
        { replies = 0; errors = 0; dropped = 0; latencies_ms = [] })
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    Array.to_list
      (Array.mapi
         (fun k t -> Thread.create (fun () -> client_loop sock stop t k) ())
         tallies)
  in
  Thread.delay seconds;
  Atomic.set stop true;
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  let total f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  {
    p_replies = total (fun t -> t.replies);
    p_errors = total (fun t -> t.errors);
    p_dropped = total (fun t -> t.dropped);
    p_elapsed = elapsed;
    p_latencies_ms =
      Array.fold_left
        (fun acc t -> List.rev_append t.latencies_ms acc)
        [] tallies;
  }

(* ------------------------------------------------- result-cache arms *)

(* Zipf-skewed design mix on a deep model (the paper's Res152 DSE
   workload): rank r is drawn with weight 1/r through a deterministic
   xorshift64* stream, so every arm replays the same schedule. *)
let zipf_model = "Res152"
let zipf_board = "VCU108"

let zipf_archs =
  Array.of_list
    (List.concat_map
       (fun style ->
         List.map
           (fun n -> Printf.sprintf "%s/%d" style n)
           [ 2; 3; 4; 5; 6; 7; 8 ])
       [ "hybrid"; "segmented"; "segmentedrr" ])

(* Never part of the Zipf mix, so the herd arm starts from a cold key. *)
let herd_arch = "hybrid/10"

let zipf_schedule n =
  let k = Array.length zipf_archs in
  let cum = Array.make k 0.0 in
  let total = ref 0.0 in
  for i = 0 to k - 1 do
    total := !total +. (1.0 /. float_of_int (i + 1));
    cum.(i) <- !total
  done;
  let state = ref 0x2545F4914F6CDD1DL in
  let next () =
    let s = !state in
    let s = Int64.logxor s (Int64.shift_left s 13) in
    let s = Int64.logxor s (Int64.shift_right_logical s 7) in
    let s = Int64.logxor s (Int64.shift_left s 17) in
    state := s;
    Int64.to_float (Int64.shift_right_logical s 11) /. 9007199254740992.0
  in
  Array.init n (fun _ ->
      let u = next () *. !total in
      let rec find i = if i >= k - 1 || cum.(i) >= u then i else find (i + 1) in
      find 0)

let evaluate_frame ~id ~cache arch =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Num (float_of_int id));
         ("op", Json.Str "evaluate");
         ( "params",
           Json.Obj
             ([
                ("model", Json.Str zipf_model);
                ("board", Json.Str zipf_board);
                ("arch", Json.Str arch);
              ]
             @ if cache then [] else [ ("cache", Json.Bool false) ]) );
       ])

(* One connection, at most [window] requests outstanding: enough to
   amortize the per-message round trip (throughput measures the serve
   path, not socket latency) while bounding both sides' buffers. *)
let pipeline sock frames ~window =
  let c = Serve.Client.connect_exn sock in
  let n = Array.length frames in
  let replies = ref [] in
  let recvd = ref 0 in
  let recv () =
    match Serve.Client.recv_line ~timeout_s:120.0 c with
    | Ok line ->
      replies := line :: !replies;
      incr recvd
    | Error msg -> failwith ("bench pipeline: " ^ msg)
  in
  let t0 = Unix.gettimeofday () in
  Array.iteri
    (fun i frame ->
      if i - !recvd >= window then recv ();
      match Serve.Client.send_line c frame with
      | Ok () -> ()
      | Error msg -> failwith ("bench pipeline: " ^ msg))
    frames;
  while !recvd < n do
    recv ()
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Serve.Client.close c;
  (elapsed, List.rev !replies)

let reply_result line =
  match Json.parse line with
  | Error _ -> None
  | Ok j -> Option.map Json.to_string (Json.member "result" j)

let counter d name =
  Option.value ~default:0 (List.assoc_opt name (Serve.Daemon.counters d))

let wait_for ?(timeout_s = 30.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () -. t0 > timeout_s then false
    else begin
      Thread.delay 0.002;
      go ()
    end
  in
  go ()

type herd = {
  h_size : int;
  h_evaluations : int;
  h_coalesced : int;
  h_hits : int;
  h_identical : bool;
  h_wedged : bool;
  h_elapsed : float;
}

(* Thundering herd: wedge every worker on a sleep op, pile [size]
   identical requests onto the wedged queue (one leader + size-1
   coalesced waiters), then let the workers wake.  The daemon's own
   counters prove exactly one evaluation happened. *)
let run_herd d sock ~workers ~size =
  let blocker = Serve.Client.connect_exn sock in
  let dispatched0 = counter d "dispatched" in
  for i = 0 to workers - 1 do
    let frame =
      Json.to_string
        (Json.Obj
           [
             ("id", Json.Num (float_of_int (100_000 + i)));
             ("op", Json.Str "sleep");
             ("params", Json.Obj [ ("seconds", Json.Num 1.0) ]);
           ])
    in
    match Serve.Client.send_line blocker frame with
    | Ok () -> ()
    | Error msg -> failwith ("herd blocker: " ^ msg)
  done;
  let wedged =
    wait_for (fun () -> counter d "dispatched" >= dispatched0 + workers)
  in
  let hits0 = counter d "cache_hits" in
  let misses0 = counter d "cache_misses" in
  let coalesced0 = counter d "cache_coalesced" in
  let frames =
    Array.init size (fun i -> evaluate_frame ~id:i ~cache:true herd_arch)
  in
  let t0 = Unix.gettimeofday () in
  let _, replies = pipeline sock frames ~window:size in
  let elapsed = Unix.gettimeofday () -. t0 in
  (* Drain the blocker's sleep replies before closing. *)
  for _ = 1 to workers do
    ignore (Serve.Client.recv_line ~timeout_s:120.0 blocker)
  done;
  Serve.Client.close blocker;
  let results = List.filter_map reply_result replies in
  let identical =
    match results with
    | [] -> false
    | first :: rest ->
      List.length results = size && List.for_all (String.equal first) rest
  in
  {
    h_size = size;
    h_evaluations = counter d "cache_misses" - misses0;
    h_coalesced = counter d "cache_coalesced" - coalesced0;
    h_hits = counter d "cache_hits" - hits0;
    h_identical = identical;
    h_wedged = wedged;
    h_elapsed = elapsed;
  }

let () =
  let o = parse_argv () in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mccm-bench-%d.sock" (Unix.getpid ()))
  in
  let cfg =
    {
      (Serve.Daemon.default ~socket_path:sock) with
      Serve.Daemon.workers = o.workers;
    }
  in
  let h = Serve.Daemon.spawn cfg in
  (* Warm the session once so every measured phase is steady state. *)
  let warm = Serve.Client.connect_exn sock in
  Array.iter
    (fun arch ->
      match
        Serve.Client.evaluate ~timeout_s:120.0 warm ~model:"MobV2"
          ~board:"VCU108" ~arch
      with
      | Ok _ -> ()
      | Error (code, msg) ->
        Printf.eprintf "warmup %s: %s: %s\n" arch code msg;
        exit 1)
    archs;
  Serve.Client.close warm;
  (* Interleaved A/B: the daemon is in-process, so flipping the flight
     gate flips what its workers consult on the very next request.
     Eight alternating phases, best-of-four per arm: scheduling noise
     on a shared box swings individual windows by several percent, but
     the best window of each arm converges on that arm's true peak, so
     the overhead estimate is stable where a single pair is not. *)
  let phase_s = Float.max 0.4 (o.seconds /. 8.0) in
  let phases =
    List.map
      (fun flight_on ->
        if flight_on then Mccm_obs.Flight.enable ()
        else Mccm_obs.Flight.disable ();
        let r = run_phase o sock ~seconds:phase_s in
        (flight_on, r))
      [ false; true; false; true; false; true; false; true ]
  in
  Mccm_obs.Flight.enable ();
  (* --- result-cache arms: Zipf cold / warm, then the herd --------- *)
  let d = Serve.Daemon.daemon h in
  let n_requests = 4000 and window = 64 in
  let schedule = zipf_schedule n_requests in
  (* Pre-warm the deep model's session (planning memos, segment
     tables) so the cold arm measures the steady uncached serve path,
     not first-contact planning. *)
  ignore
    (pipeline sock
       (Array.mapi (fun i a -> evaluate_frame ~id:i ~cache:false a) zipf_archs)
       ~window:8);
  let mix_frames cache =
    Array.init n_requests (fun i ->
        evaluate_frame ~id:i ~cache zipf_archs.(schedule.(i)))
  in
  let errors_of replies =
    List.fold_left
      (fun acc line ->
        match reply_result line with Some _ -> acc | None -> acc + 1)
      0 replies
  in
  let cold_elapsed, cold_replies = pipeline sock (mix_frames false) ~window in
  (* Prime every design once, then measure pure reader-path hits. *)
  ignore
    (pipeline sock
       (Array.mapi (fun i a -> evaluate_frame ~id:i ~cache:true a) zipf_archs)
       ~window:8);
  let warm_hits0 = counter d "cache_hits" in
  let warm_misses0 = counter d "cache_misses" in
  let warm_elapsed, warm_replies = pipeline sock (mix_frames true) ~window in
  let warm_hits = counter d "cache_hits" - warm_hits0 in
  let warm_misses = counter d "cache_misses" - warm_misses0 in
  let cache_errors = errors_of cold_replies + errors_of warm_replies in
  let cold_rate = float_of_int n_requests /. Float.max 1e-9 cold_elapsed in
  let warm_rate = float_of_int n_requests /. Float.max 1e-9 warm_elapsed in
  let speedup = warm_rate /. Float.max 1e-9 cold_rate in
  let herd = run_herd d sock ~workers:o.workers ~size:64 in
  Serve.Daemon.shutdown h;
  let rate r = float_of_int r.p_replies /. Float.max 1e-9 r.p_elapsed in
  let best on =
    List.fold_left
      (fun acc (o', r) -> if o' = on then Float.max acc (rate r) else acc)
      0.0 phases
  in
  let disabled_rate = best false and enabled_rate = best true in
  let overhead =
    if disabled_rate <= 0.0 then 0.0
    else Float.max 0.0 (1.0 -. (enabled_rate /. disabled_rate))
  in
  (* /1-compatible headline numbers over the combined window *)
  let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 phases in
  let replies = sum (fun r -> r.p_replies) in
  let errors = sum (fun r -> r.p_errors) in
  let dropped = sum (fun r -> r.p_dropped) in
  let elapsed =
    List.fold_left (fun acc (_, r) -> acc +. r.p_elapsed) 0.0 phases
  in
  let lat =
    List.fold_left
      (fun acc (_, r) -> List.rev_append r.p_latencies_ms acc)
      [] phases
  in
  let q p = if lat = [] then 0.0 else Util.Stats.quantile lat ~q:p in
  let evals_per_sec = float_of_int replies /. elapsed in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "mccm-bench-serve/3");
        ("workers", Json.Num (float_of_int o.workers));
        ("clients", Json.Num (float_of_int o.clients));
        ( "recommended_domains",
          Json.Num (float_of_int (Domain.recommended_domain_count ())) );
        ("duration_s", Json.Num elapsed);
        ("total_replies", Json.Num (float_of_int replies));
        ("evals_per_sec", Json.Num evals_per_sec);
        ( "latency_ms",
          Json.Obj
            [
              ("p50", Json.Num (q 0.50));
              ("p95", Json.Num (q 0.95));
              ("p99", Json.Num (q 0.99));
            ] );
        ("errors", Json.Num (float_of_int errors));
        ("dropped", Json.Num (float_of_int dropped));
        ( "flight",
          Json.Obj
            [
              ("disabled_evals_per_sec", Json.Num disabled_rate);
              ("enabled_evals_per_sec", Json.Num enabled_rate);
              ("overhead", Json.Num overhead);
            ] );
        ( "cache",
          Json.Obj
            [
              ("model", Json.Str zipf_model);
              ("board", Json.Str zipf_board);
              ( "distinct_archs",
                Json.Num (float_of_int (Array.length zipf_archs)) );
              ("requests", Json.Num (float_of_int n_requests));
              ("window", Json.Num (float_of_int window));
              ("cold_evals_per_sec", Json.Num cold_rate);
              ("warm_evals_per_sec", Json.Num warm_rate);
              ("speedup", Json.Num speedup);
              ("warm_hits", Json.Num (float_of_int warm_hits));
              ("warm_misses", Json.Num (float_of_int warm_misses));
              ("errors", Json.Num (float_of_int cache_errors));
              ( "herd",
                Json.Obj
                  [
                    ("size", Json.Num (float_of_int herd.h_size));
                    ( "evaluations",
                      Json.Num (float_of_int herd.h_evaluations) );
                    ("coalesced", Json.Num (float_of_int herd.h_coalesced));
                    ("hits", Json.Num (float_of_int herd.h_hits));
                    ("identical_replies", Json.Bool herd.h_identical);
                    ("wedged", Json.Bool herd.h_wedged);
                    ("elapsed_s", Json.Num herd.h_elapsed);
                  ] );
            ] );
      ]
  in
  let oc = open_out o.out in
  output_string oc (Json.to_string_pretty doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf
    "serve bench: %d replies in %.1fs (%.0f evals/s), p50 %.2f ms, p95 %.2f \
     ms, p99 %.2f ms, %d errors, %d dropped\n"
    replies elapsed evals_per_sec (q 0.50) (q 0.95) (q 0.99) errors dropped;
  Printf.printf
    "flight recorder: %.0f evals/s off vs %.0f evals/s on (overhead %.1f%%)\n"
    disabled_rate enabled_rate (100.0 *. overhead);
  Printf.printf
    "result cache: cold %.0f evals/s vs warm %.0f evals/s (%.1fx), %d/%d \
     warm hits, %d errors\n"
    cold_rate warm_rate speedup warm_hits (warm_hits + warm_misses)
    cache_errors;
  Printf.printf
    "herd: %d identical requests -> %d evaluation(s), %d coalesced, %d hits, \
     identical replies %b -> %s\n"
    herd.h_size herd.h_evaluations herd.h_coalesced herd.h_hits
    herd.h_identical o.out
