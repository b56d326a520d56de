(* Soak tests for the mccm daemon.

   Phase 1 hammers one in-process daemon with N concurrent clients for
   a wall-clock budget (MCCM_SOAK_SECONDS, default ~2 s locally; CI
   runs longer) and then checks the daemon's health ledger: zero
   dropped connections, zero transport errors, every internal counter
   monotone non-decreasing throughout, and a flat RSS — sessions never
   keep whole-arch results, so sustained non-repeating load must not
   grow them without bound.

   Phase 2 initiates a graceful drain mid-traffic and requires every
   in-flight client to see only complete replies, structured
   [shutting_down] refusals, or EOF after the drain began — never a
   torn frame.

   A separate case exercises the real binary: spawn
   [mccm_cli.exe serve] as a subprocess, round-trip a request, send
   SIGTERM, and require a clean exit with the socket unlinked. *)

module Json = Util.Json

let soak_seconds =
  match Sys.getenv_opt "MCCM_SOAK_SECONDS" with
  | Some s -> (try float_of_string s with _ -> 2.0)
  | None -> 2.0

let fresh_sock tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "mccm-soak-%s-%d.sock" tag (Unix.getpid ()))

let rss_kb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
      else find ()
    | exception End_of_file -> -1
  in
  let v = find () in
  close_in ic;
  v

(* The request mix: cheap control ops, repeated and non-repeating
   evaluates (distinct (model, board) keys exercise the workers'
   session tables; distinct archs exercise the flat footprint), and
   short sleeps to keep the queue non-trivial. *)
let mix =
  [|
    `Evaluate ("MobV2", "VCU108", "hybrid/4");
    `Evaluate ("MobV2", "VCU108", "segmented/3");
    `Evaluate ("Res50", "ZC706", "hybrid/3");
    `Evaluate ("XCp", "ZCU102", "segmentedrr/4");
    `Ping;
    `Evaluate ("MobV2", "VCU108", "hybrid/2");
    `Stats;
    `Sleep 0.002;
  |]

type tally = {
  mutable ok : int;
  mutable shutting_down : int;
  mutable overloaded : int;
  mutable protocol_errors : int;  (** anything else structured *)
  mutable transport_errors : int; (** dropped connection / torn frame *)
}

let new_tally () =
  { ok = 0; shutting_down = 0; overloaded = 0; protocol_errors = 0;
    transport_errors = 0 }

let client_loop sock ~stop_at ~draining tally seed =
  let c = Serve.Client.connect_exn sock in
  let i = ref seed in
  (try
     while Unix.gettimeofday () < stop_at () do
       incr i;
       let r =
         match mix.(!i mod Array.length mix) with
         | `Ping -> Serve.Client.ping ~timeout_s:60.0 c
         | `Stats -> Serve.Client.stats ~timeout_s:60.0 c
         | `Sleep s -> Serve.Client.sleep ~timeout_s:60.0 c ~seconds:s
         | `Evaluate (m, b, a) ->
           Result.map
             (fun _ -> Json.Null)
             (Serve.Client.evaluate ~timeout_s:60.0 c ~model:m ~board:b
                ~arch:a)
       in
       match r with
       | Ok _ -> tally.ok <- tally.ok + 1
       | Error ("shutting_down", _) ->
         tally.shutting_down <- tally.shutting_down + 1;
         raise Exit
       | Error ("overloaded", _) ->
         tally.overloaded <- tally.overloaded + 1;
         Thread.delay 0.005
       | Error ("transport", _) ->
         if Atomic.get draining then raise Exit
         else begin
           tally.transport_errors <- tally.transport_errors + 1;
           raise Exit
         end
       | Error _ -> tally.protocol_errors <- tally.protocol_errors + 1
     done
   with Exit -> ());
  Serve.Client.close c

(* Watch the counter ledger for monotonicity while traffic runs. *)
let monotone_watcher d ~stop violations =
  let last = Hashtbl.create 32 in
  while not (Atomic.get stop) do
    List.iter
      (fun (k, v) ->
        (match Hashtbl.find_opt last k with
        | Some prev when v < prev -> Atomic.incr violations
        | _ -> ());
        Hashtbl.replace last k v)
      (Serve.Daemon.counters d);
    Thread.delay 0.05
  done

let test_soak () =
  let sock = fresh_sock "hammer" in
  let cfg =
    {
      (Serve.Daemon.default ~socket_path:sock) with
      Serve.Daemon.workers = 2;
      queue_capacity = 64;
      (* Far below the mix's distinct-request count: the result cache
         churns at full capacity the whole soak, so eviction runs under
         the RSS and monotonicity gates too. *)
      cache_capacity = 4;
    }
  in
  let h = Serve.Daemon.spawn cfg in
  let d = Serve.Daemon.daemon h in
  (* Warm up every (model, board) session first so steady-state RSS is
     measured after one-time cache construction. *)
  let warm = Serve.Client.connect_exn sock in
  Array.iter
    (function
      | `Evaluate (m, b, a) ->
        (match Serve.Client.evaluate ~timeout_s:120.0 warm ~model:m ~board:b ~arch:a with
        | Ok _ -> ()
        | Error (code, msg) -> Alcotest.failf "warmup %s/%s/%s: %s: %s" m b a code msg)
      | _ -> ())
    mix;
  Serve.Client.close warm;
  Gc.compact ();
  let rss_before = rss_kb () in
  let stop_wall = Unix.gettimeofday () +. soak_seconds in
  let draining = Atomic.make false in
  let watcher_stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let watcher = Thread.create (fun () -> monotone_watcher d ~stop:watcher_stop violations) () in
  let n_clients = 4 in
  let tallies = List.init n_clients (fun _ -> new_tally ()) in
  let threads =
    List.mapi
      (fun k t ->
        Thread.create
          (fun () -> client_loop sock ~stop_at:(fun () -> stop_wall) ~draining t (k * 3))
          ())
      tallies
  in
  List.iter Thread.join threads;
  Gc.compact ();
  let rss_after = rss_kb () in
  Atomic.set watcher_stop true;
  Thread.join watcher;
  let total f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let replies = total (fun t -> t.ok) in
  Alcotest.(check bool)
    (Printf.sprintf "made progress (%d replies in %.1fs)" replies soak_seconds)
    true (replies > 0);
  Alcotest.(check int) "dropped connections" 0 (total (fun t -> t.transport_errors));
  Alcotest.(check int) "unexpected protocol errors" 0 (total (fun t -> t.protocol_errors));
  Alcotest.(check int) "premature shutting_down" 0 (total (fun t -> t.shutting_down));
  Alcotest.(check int) "counter monotonicity violations" 0 (Atomic.get violations);
  (* Flat RSS: the whole soak may not grow the process by more than a
     fixed allowance (GC noise + socket buffers), independent of how
     many requests ran. *)
  if rss_before > 0 && rss_after > 0 then begin
    let growth_kb = rss_after - rss_before in
    if growth_kb > 65536 then
      Alcotest.failf "RSS grew %d kB over the soak (%d -> %d)" growth_kb
        rss_before rss_after
  end;
  (* The daemon's own ledger agrees that nothing was torn. *)
  let counters = Serve.Daemon.counters d in
  let get k = List.assoc k counters in
  Alcotest.(check int) "write failures" 0 (get "write_failures");
  Alcotest.(check bool) "served requests" true (get "replies" > 0);
  Alcotest.(check bool)
    "cache churned at full capacity" true
    (get "cache_evictions" > 0);
  Serve.Daemon.shutdown h;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock)

let test_drain_mid_traffic () =
  let sock = fresh_sock "drain" in
  let cfg =
    { (Serve.Daemon.default ~socket_path:sock) with Serve.Daemon.workers = 2 }
  in
  let h = Serve.Daemon.spawn cfg in
  let draining = Atomic.make false in
  let far_future () = Unix.gettimeofday () +. 3600.0 in
  let n_clients = 3 in
  let tallies = List.init n_clients (fun _ -> new_tally ()) in
  let threads =
    List.mapi
      (fun k t ->
        Thread.create
          (fun () -> client_loop sock ~stop_at:far_future ~draining t k)
          ())
      tallies
  in
  (* Let traffic flow, then pull the plug mid-flight. *)
  Thread.delay 0.4;
  Atomic.set draining true;
  Serve.Daemon.shutdown h;
  List.iter Thread.join threads;
  let total f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  Alcotest.(check bool) "progress before drain" true (total (fun t -> t.ok) > 0);
  Alcotest.(check int)
    "torn frames before drain" 0
    (total (fun t -> t.transport_errors));
  Alcotest.(check int)
    "unexpected protocol errors" 0
    (total (fun t -> t.protocol_errors));
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock)

(* ------------------------------------------------ subprocess SIGTERM *)

(* Under `dune runtest` the cwd is _build/default/test; under
   `dune exec` it is the workspace root. *)
let cli_path =
  List.find_opt Sys.file_exists
    [
      Filename.concat ".." (Filename.concat "bin" "mccm_cli.exe");
      "_build/default/bin/mccm_cli.exe";
    ]

let test_sigterm_subprocess () =
  match cli_path with
  | None -> Alcotest.skip ()
  | Some cli ->
    let sock = fresh_sock "sigterm" in
    let pid =
      Unix.create_process cli
        [| cli; "serve"; "--socket"; sock; "--workers"; "1" |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    Fun.protect
      ~finally:(fun () ->
        (* Belt and braces: never leave a stray daemon behind. *)
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [ Unix.WNOHANG ] pid) with Unix.Unix_error _ -> ()))
      (fun () ->
        Serve.Daemon.wait_ready ~timeout_s:60.0 sock;
        let c = Serve.Client.connect_exn sock in
        (match
           Serve.Client.evaluate ~timeout_s:120.0 c ~model:"MobV2"
             ~board:"VCU108" ~arch:"hybrid/4"
         with
        | Ok _ -> ()
        | Error (code, msg) ->
          Alcotest.failf "subprocess evaluate: %s: %s" code msg);
        Serve.Client.close c;
        Unix.kill pid Sys.sigterm;
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _, Unix.WEXITED n -> Alcotest.failf "daemon exited %d on SIGTERM" n
        | _, Unix.WSIGNALED s -> Alcotest.failf "daemon killed by signal %d" s
        | _, Unix.WSTOPPED s -> Alcotest.failf "daemon stopped by signal %d" s);
        Alcotest.(check bool)
          "socket unlinked after SIGTERM" false (Sys.file_exists sock))

let () =
  Alcotest.run "serve-soak"
    [
      ( "soak",
        [
          Alcotest.test_case
            (Printf.sprintf "%d clients, %.0fs budget" 4 soak_seconds)
            `Slow test_soak;
          Alcotest.test_case "graceful drain mid-traffic" `Slow
            test_drain_mid_traffic;
        ] );
      ( "subprocess",
        [
          Alcotest.test_case "SIGTERM drains and unlinks socket" `Slow
            test_sigterm_subprocess;
        ] );
    ]
