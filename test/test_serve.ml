(* Tests for the mccm evaluation daemon: endpoint round-trips over a
   real Unix socket, the concurrency bit-exactness property (server
   replies are bit-identical to sequential in-process evaluation, for
   any mix of concurrent and queued requests), deadline and
   backpressure semantics, the worker path and its session cap, and
   graceful drain.

   Every daemon here runs in-process ({!Serve.Daemon.spawn}) on a
   private socket under a fresh temp path, so suites never interfere
   and nothing leaks across test cases. *)

module Json = Util.Json

let corpus_path =
  if Sys.file_exists "corpus/validate.corpus" then "corpus/validate.corpus"
  else "test/corpus/validate.corpus"

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "mccm-t%d-%d.sock" (Unix.getpid ()) !sock_counter)

let with_daemon ?(configure = fun c -> c) f =
  let cfg = configure (Serve.Daemon.default ~socket_path:(fresh_sock ())) in
  let h = Serve.Daemon.spawn cfg in
  Fun.protect
    ~finally:(fun () -> Serve.Daemon.shutdown h)
    (fun () -> f cfg (Serve.Daemon.daemon h))

let with_client cfg f =
  let c = Serve.Client.connect_exn cfg.Serve.Daemon.socket_path in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let ok_exn what = function
  | Ok v -> v
  | Error (code, msg) ->
    Alcotest.failf "%s failed: %s: %s" what code msg

let counter d name =
  match List.assoc_opt name (Serve.Daemon.counters d) with
  | Some v -> v
  | None -> Alcotest.failf "unknown daemon counter %S" name

let wait_until ?(timeout_s = 10.0) pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec loop () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      loop ()
    end
  in
  loop ()

let metrics_equal (a : Mccm.Metrics.t) (b : Mccm.Metrics.t) =
  (* Bit-exact: float fields must be equal as IEEE values, not close. *)
  a.Mccm.Metrics.latency_s = b.Mccm.Metrics.latency_s
  && a.Mccm.Metrics.throughput_ips = b.Mccm.Metrics.throughput_ips
  && a.Mccm.Metrics.buffer_bytes = b.Mccm.Metrics.buffer_bytes
  && a.Mccm.Metrics.accesses = b.Mccm.Metrics.accesses
  && a.Mccm.Metrics.feasible = b.Mccm.Metrics.feasible

let check_metrics what expected actual =
  if not (metrics_equal expected actual) then
    Alcotest.failf "%s: metrics differ from in-process evaluation:@.%a@.vs@.%a"
      what Mccm.Metrics.pp expected Mccm.Metrics.pp actual

let eval_frame ~id ?(cache = true) ~model ~board ~arch () =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Num (float_of_int id));
         ("op", Json.Str "evaluate");
         ( "params",
           Json.Obj
             ([
                ("model", Json.Str model);
                ("board", Json.Str board);
                ("arch", Json.Str arch);
              ]
             @ if cache then [] else [ ("cache", Json.Bool false) ]) );
       ])

let raw_call c frame =
  Result.get_ok (Serve.Client.send_line c frame);
  match Serve.Client.recv_line ~timeout_s:60.0 c with
  | Ok line -> line
  | Error msg -> Alcotest.failf "recv: %s" msg

(* ------------------------------------------------------- round-trips *)

let test_ping () =
  with_daemon (fun cfg _d ->
      with_client cfg (fun c ->
          let r = ok_exn "ping" (Serve.Client.ping ~timeout_s:30.0 c) in
          Alcotest.(check bool)
            "pong" true
            (Json.member "pong" r = Some (Json.Bool true));
          Alcotest.(check bool)
            "version" true
            (Option.bind (Json.member "version" r) Json.string_
            = Some Serve.Protocol.version)))

let round_trip_cases =
  [
    ("MobV2", "VCU108", "hybrid/4");
    ("Res50", "ZC706", "segmented/3");
    ("XCp", "ZCU102", "segmentedrr/5");
    ("Res152", "VCU110", "{L1-L4:CE1, L5-Last:CE2}");
  ]

let test_evaluate_round_trip () =
  with_daemon (fun cfg _d ->
      with_client cfg (fun c ->
          List.iter
            (fun (m, b, a) ->
              let model = Option.get (Cnn.Model_zoo.by_abbreviation m) in
              let board = Option.get (Platform.Board.by_name b) in
              let archi = Result.get_ok (Arch.Shorthand.parse model a) in
              let expected = Mccm.Evaluate.metrics model board archi in
              let got =
                ok_exn "evaluate"
                  (Serve.Client.evaluate ~timeout_s:60.0 c ~model:m ~board:b
                     ~arch:a)
              in
              check_metrics (Printf.sprintf "%s/%s/%s" m b a) expected got)
            round_trip_cases))

let test_explore_round_trip () =
  with_daemon (fun cfg _d ->
      let model = Option.get (Cnn.Model_zoo.by_abbreviation "MobV2") in
      let board = Option.get (Platform.Board.by_name "VCU108") in
      let direct =
        Dse.Explore.run ~seed:7L ~samples:120 model board
      in
      with_client cfg (fun c ->
          let r =
            ok_exn "explore"
              (Serve.Client.call ~timeout_s:120.0 c Serve.Protocol.Explore
                 (Json.Obj
                    [
                      ("model", Json.Str "MobV2");
                      ("board", Json.Str "VCU108");
                      ("samples", Json.Num 120.0);
                      ("seed", Json.Num 7.0);
                    ]))
          in
          Alcotest.(check (option int))
            "sampled" (Some 120)
            (Option.bind (Json.member "sampled" r) Json.int_);
          Alcotest.(check (option int))
            "distinct"
            (Some direct.Dse.Explore.distinct)
            (Option.bind (Json.member "distinct" r) Json.int_);
          Alcotest.(check (option int))
            "feasible"
            (Some (List.length direct.Dse.Explore.evaluated))
            (Option.bind (Json.member "feasible" r) Json.int_);
          let front = Option.get (Option.bind (Json.member "front" r) Json.list_) in
          Alcotest.(check int)
            "front size"
            (List.length direct.Dse.Explore.front)
            (List.length front);
          List.iter2
            (fun (p : Dse.Explore.evaluated Dse.Pareto.point) j ->
              let e = p.Dse.Pareto.item in
              let want_arch =
                Arch.Notation.to_string
                  (Arch.Custom.arch_of_spec model e.Dse.Explore.spec)
              in
              Alcotest.(check (option string))
                "front arch" (Some want_arch)
                (Option.bind (Json.member "arch" j) Json.string_);
              let m =
                Result.get_ok
                  (Serve.Protocol.metrics_of_json
                     (Option.get (Json.member "metrics" j)))
              in
              check_metrics "front metrics" e.Dse.Explore.metrics m)
            direct.Dse.Explore.front front))

let test_enumerate_round_trip () =
  with_daemon (fun cfg _d ->
      let model = Option.get (Cnn.Model_zoo.by_abbreviation "MobV2") in
      let board = Option.get (Platform.Board.by_name "VCU108") in
      let winner, stats =
        Dse.Enumerate.exhaustive_best ~max_specs:2000 ~objective:`Throughput
          ~ces:3 model board
      in
      with_client cfg (fun c ->
          let r =
            ok_exn "enumerate"
              (Serve.Client.call ~timeout_s:120.0 c Serve.Protocol.Enumerate
                 (Json.Obj
                    [
                      ("model", Json.Str "MobV2");
                      ("board", Json.Str "VCU108");
                      ("ces", Json.Num 3.0);
                      ("max_specs", Json.Num 2000.0);
                      ("objective", Json.Str "throughput");
                    ]))
          in
          Alcotest.(check (option int))
            "enumerated"
            (Some stats.Dse.Enumerate.enumerated)
            (Option.bind (Json.member "enumerated" r) Json.int_);
          let e = Option.get winner in
          let j = Option.get (Json.member "winner" r) in
          Alcotest.(check (option string))
            "winner arch"
            (Some
               (Arch.Notation.to_string
                  (Arch.Custom.arch_of_spec model e.Dse.Explore.spec)))
            (Option.bind (Json.member "arch" j) Json.string_);
          let m =
            Result.get_ok
              (Serve.Protocol.metrics_of_json
                 (Option.get (Json.member "metrics" j)))
          in
          check_metrics "winner metrics" e.Dse.Explore.metrics m))

let test_validate_round_trip () =
  with_daemon (fun cfg _d ->
      with_client cfg (fun c ->
          let r =
            ok_exn "validate"
              (Serve.Client.call ~timeout_s:300.0 c Serve.Protocol.Validate
                 (Json.Obj
                    [ ("samples", Json.Num 12.0); ("seed", Json.Num 3.0) ]))
          in
          Alcotest.(check (option bool))
            "ok" (Some true)
            (Option.bind (Json.member "ok" r) Json.bool_);
          Alcotest.(check (option int))
            "generated" (Some 12)
            (Option.bind (Json.member "generated_cases" r) Json.int_)))

(* --------------------------------------- concurrency bit-exactness *)

(* The acceptance property: whatever the interleaving — concurrent
   clients, pipelined frames, two workers — every reply is
   bit-identical to sequential single-process evaluation of the same
   case.  Cases mix the committed corpus (synthetic models, raw
   boards; exact round-trip serialisation) with fresh generated ones. *)
let test_concurrent_bit_exact () =
  let corpus =
    match Validate.Corpus.load corpus_path with
    | Ok cases -> cases
    | Error msg -> Alcotest.failf "corpus: %s" msg
  in
  let generated =
    List.init 10 (fun i ->
        let rng = Util.Prng.create ~seed:(Int64.of_int (1000 + i)) in
        Validate.Gen.case rng ~index:i)
  in
  let cases = corpus @ generated in
  let expected =
    List.map
      (fun (case : Validate.Case.t) ->
        Mccm.Evaluate.metrics case.Validate.Case.model
          case.Validate.Case.board
          (Validate.Case.materialize case))
      cases
  in
  with_daemon
    ~configure:(fun c -> { c with Serve.Daemon.workers = 2 })
    (fun cfg _d ->
      let n_threads = 4 in
      let failures = Atomic.make 0 in
      let errors = Atomic.make 0 in
      let rotate k l =
        let n = List.length l in
        List.init n (fun i -> List.nth l ((i + k) mod n))
      in
      let worker k =
        with_client cfg (fun c ->
            List.iter2
              (fun (case : Validate.Case.t) want ->
                match Serve.Client.evaluate_case ~timeout_s:120.0 c case with
                | Ok got ->
                  if not (metrics_equal want got) then Atomic.incr failures
                | Error _ -> Atomic.incr errors)
              (rotate k cases) (rotate k expected))
      in
      let threads = List.init n_threads (fun k -> Thread.create worker k) in
      List.iter Thread.join threads;
      Alcotest.(check int) "transport errors" 0 (Atomic.get errors);
      Alcotest.(check int) "bit-exactness failures" 0 (Atomic.get failures))

(* ------------------------------------------- deadline / backpressure *)

let test_deadline_expired_at_gate () =
  with_daemon (fun cfg d ->
      with_client cfg (fun c ->
          let before_enq = counter d "enqueued" in
          let before_disp = counter d "dispatched" in
          (match
             Serve.Client.evaluate ~timeout_s:30.0 ~deadline_ms:(-5.0) c
               ~model:"MobV2" ~board:"VCU108" ~arch:"hybrid/4"
           with
          | Error ("deadline_exceeded", _) -> ()
          | Ok _ -> Alcotest.fail "expired deadline was evaluated"
          | Error (code, msg) ->
            Alcotest.failf "wrong error: %s: %s" code msg);
          (* The queue and the pool never saw the request. *)
          Alcotest.(check int) "enqueued" before_enq (counter d "enqueued");
          Alcotest.(check int) "dispatched" before_disp
            (counter d "dispatched");
          Alcotest.(check bool)
            "rejected_deadline incremented" true
            (counter d "rejected_deadline" > 0)))

(* Fire the blocking sleep without waiting for its reply, so the test
   thread is free to queue the doomed request behind it. *)
let test_deadline_expired_at_dispatch () =
  with_daemon
    ~configure:(fun c -> { c with Serve.Daemon.workers = 1 })
    (fun cfg d ->
      with_client cfg (fun blocker ->
          with_client cfg (fun c ->
              Result.get_ok
                (Serve.Client.send_line blocker
                   "{\"id\":\"hold\",\"op\":\"sleep\",\"params\":{\"seconds\":0.5}}");
              Alcotest.(check bool)
                "worker occupied" true
                (wait_until (fun () -> counter d "dispatched" >= 1));
              (match
                 Serve.Client.evaluate ~timeout_s:30.0 ~deadline_ms:50.0 c
                   ~model:"MobV2" ~board:"VCU108" ~arch:"hybrid/4"
               with
              | Error ("deadline_exceeded", _) -> ()
              | Ok _ -> Alcotest.fail "late request was evaluated"
              | Error (code, msg) ->
                Alcotest.failf "wrong error: %s: %s" code msg);
              ignore (Serve.Client.recv_line ~timeout_s:30.0 blocker))))

let test_backpressure_overloaded () =
  with_daemon
    ~configure:(fun c ->
      { c with Serve.Daemon.workers = 1; queue_capacity = 2 })
    (fun cfg d ->
      with_client cfg (fun filler ->
          with_client cfg (fun c ->
              (* One request occupies the worker ... *)
              Result.get_ok
                (Serve.Client.send_line filler
                   "{\"id\":0,\"op\":\"sleep\",\"params\":{\"seconds\":0.6}}");
              Alcotest.(check bool)
                "worker occupied" true
                (wait_until (fun () -> counter d "dispatched" >= 1));
              (* ... two more fill the queue to capacity ... *)
              Result.get_ok
                (Serve.Client.send_line filler
                   "{\"id\":1,\"op\":\"sleep\",\"params\":{\"seconds\":0.05}}");
              Result.get_ok
                (Serve.Client.send_line filler
                   "{\"id\":2,\"op\":\"sleep\",\"params\":{\"seconds\":0.05}}");
              Alcotest.(check bool)
                "queue full" true
                (wait_until (fun () -> Serve.Daemon.queue_depth d >= 2));
              let before = counter d "rejected_overloaded" in
              (* ... and the next is refused immediately. *)
              (match
                 Serve.Client.evaluate ~timeout_s:30.0 c ~model:"MobV2"
                   ~board:"VCU108" ~arch:"hybrid/4"
               with
              | Error ("overloaded", _) -> ()
              | Ok _ -> Alcotest.fail "overloaded daemon accepted work"
              | Error (code, msg) ->
                Alcotest.failf "wrong error: %s: %s" code msg);
              Alcotest.(check int)
                "rejected counter" (before + 1)
                (counter d "rejected_overloaded");
              (* The high-water mark is tracked without --stats. *)
              Alcotest.(check (option int))
                "stats queue_peak" (Some 2)
                (Option.bind
                   (Json.member "queue_peak"
                      (ok_exn "stats" (Serve.Client.stats ~timeout_s:30.0 c)))
                   Json.int_);
              (* The queued work itself still completes. *)
              List.iter
                (fun _ ->
                  match Serve.Client.recv_line ~timeout_s:30.0 filler with
                  | Ok _ -> ()
                  | Error msg -> Alcotest.failf "filler reply: %s" msg)
                [ (); (); () ])))

(* ------------------------------------------------------- worker path *)

let test_pipelined_evaluates () =
  with_daemon
    ~configure:(fun c -> { c with Serve.Daemon.workers = 1 })
    (fun cfg d ->
      let model = Option.get (Cnn.Model_zoo.by_abbreviation "MobV2") in
      let board = Option.get (Platform.Board.by_name "VCU108") in
      let archs = [ "hybrid/2"; "hybrid/3"; "hybrid/4"; "segmented/2"; "segmented/3" ] in
      let expected =
        List.map
          (fun a ->
            Mccm.Evaluate.metrics model board
              (Result.get_ok (Arch.Shorthand.parse model a)))
          archs
      in
      with_client cfg (fun blocker ->
          with_client cfg (fun c ->
              Result.get_ok
                (Serve.Client.send_line blocker
                   "{\"id\":0,\"op\":\"sleep\",\"params\":{\"seconds\":0.5}}");
              Alcotest.(check bool)
                "worker occupied" true
                (wait_until (fun () -> counter d "dispatched" >= 1));
              (* Pipeline the evaluates while the worker sleeps: they
                 queue back-to-back and are each served in turn. *)
              List.iteri
                (fun i a ->
                  Result.get_ok
                    (Serve.Client.send_line c
                       (Json.to_string
                          (Json.Obj
                             [
                               ("id", Json.Num (float_of_int i));
                               ("op", Json.Str "evaluate");
                               ( "params",
                                 Json.Obj
                                   [
                                     ("model", Json.Str "MobV2");
                                     ("board", Json.Str "VCU108");
                                     ("arch", Json.Str a);
                                   ] );
                             ]))))
                archs;
              Alcotest.(check bool)
                "queue filled" true
                (wait_until (fun () ->
                     Serve.Daemon.queue_depth d >= List.length archs));
              (* Collect one reply per request, match by id. *)
              let got = Hashtbl.create 8 in
              List.iter
                (fun _ ->
                  match Serve.Client.recv_line ~timeout_s:60.0 c with
                  | Error msg -> Alcotest.failf "reply: %s" msg
                  | Ok line -> (
                    match Serve.Protocol.parse_reply line with
                    | Error msg -> Alcotest.failf "reply parse: %s" msg
                    | Ok { Serve.Protocol.reply_id; outcome } -> (
                      match (Json.int_ reply_id, outcome) with
                      | Some i, Ok r -> Hashtbl.replace got i r
                      | _, Error (code, msg) ->
                        Alcotest.failf "evaluate error: %s: %s" code msg
                      | None, _ -> Alcotest.fail "reply without integer id")))
                archs;
              List.iteri
                (fun i want ->
                  let r = Hashtbl.find got i in
                  let m =
                    Result.get_ok
                      (Serve.Protocol.metrics_of_json
                         (Option.get (Json.member "metrics" r)))
                  in
                  check_metrics (List.nth archs i) want m)
                expected;
              ignore (Serve.Client.recv_line ~timeout_s:30.0 blocker))))

(* Every request runs under its own handler: one whose evaluation
   fails answers its own recipients (its coalesced twin included) with
   its own error, and the requests queued next to it still get their
   results. *)
let test_failing_request () =
  let over_budget = "{L1-L52:CE1-CE1000, L53-L53:CE1001}" in
  let model = Option.get (Cnn.Model_zoo.by_abbreviation "Res50") in
  let board = Option.get (Platform.Board.by_name "ZC706") in
  let expected =
    Mccm.Evaluate.metrics model board
      (Result.get_ok (Arch.Shorthand.parse model "hybrid/4"))
  in
  with_daemon
    ~configure:(fun c -> { c with Serve.Daemon.workers = 1 })
    (fun cfg d ->
      with_client cfg (fun blocker ->
          with_client cfg (fun c ->
              Result.get_ok
                (Serve.Client.send_line blocker
                   "{\"id\":\"hold\",\"op\":\"sleep\",\"params\":{\"seconds\":0.5}}");
              Alcotest.(check bool)
                "worker occupied" true
                (wait_until (fun () -> counter d "dispatched" >= 1));
              (* good, bad, and bad's twin (coalesced onto bad) *)
              List.iteri
                (fun i arch ->
                  Result.get_ok
                    (Serve.Client.send_line c
                       (eval_frame ~id:i ~model:"Res50" ~board:"ZC706" ~arch ())))
                [ "hybrid/4"; over_budget; over_budget ];
              let got = Hashtbl.create 4 in
              for _ = 1 to 3 do
                match Serve.Client.recv_line ~timeout_s:10.0 c with
                | Error msg ->
                  Alcotest.failf "reply %d of 3: %s" (Hashtbl.length got + 1)
                    msg
                | Ok line -> (
                  match Serve.Protocol.parse_reply line with
                  | Ok { Serve.Protocol.reply_id; outcome } ->
                    Hashtbl.replace got (Json.int_ reply_id) outcome
                  | Error msg -> Alcotest.failf "reply parse: %s" msg)
              done;
              (match Hashtbl.find_opt got (Some 0) with
              | Some (Ok r) ->
                check_metrics "good request" expected
                  (Result.get_ok
                     (Serve.Protocol.metrics_of_json
                        (Option.get (Json.member "metrics" r))))
              | Some (Error (code, msg)) ->
                Alcotest.failf "good request answered %s: %s" code msg
              | None -> Alcotest.fail "good request got no reply");
              List.iter
                (fun i ->
                  match Hashtbl.find_opt got (Some i) with
                  | Some (Error ("bad_params", _)) -> ()
                  | Some (Error (code, _)) ->
                    Alcotest.failf "bad request %d answered %s" i code
                  | Some (Ok _) -> Alcotest.failf "bad request %d evaluated" i
                  | None -> Alcotest.failf "bad request %d got no reply" i)
                [ 1; 2 ];
              Alcotest.(check int) "one coalesced" 1
                (counter d "cache_coalesced");
              Alcotest.(check int) "each error reply counted" 2
                (counter d "errors_bad_params");
              ignore (Serve.Client.recv_line ~timeout_s:30.0 blocker))))

(* One worker holding at most one session: the first (model, board)
   takes the slot, each evaluate on another pair runs uncached and is
   counted, and the first pair's session keeps serving.  Uncached or
   not, every reply is bit-exact. *)
let test_session_cap () =
  with_daemon
    ~configure:(fun c ->
      { c with Serve.Daemon.workers = 1; max_sessions = 1 })
    (fun cfg d ->
      with_client cfg (fun c ->
          List.iter
            (fun (m, b, a) ->
              let model = Option.get (Cnn.Model_zoo.by_abbreviation m) in
              let board = Option.get (Platform.Board.by_name b) in
              let expected =
                Mccm.Evaluate.metrics model board
                  (Result.get_ok (Arch.Shorthand.parse model a))
              in
              let got =
                ok_exn "evaluate"
                  (Serve.Client.evaluate ~timeout_s:60.0 ~cache:false c
                     ~model:m ~board:b ~arch:a)
              in
              check_metrics (Printf.sprintf "%s/%s/%s" m b a) expected got)
            [
              ("MobV2", "VCU108", "hybrid/4");
              ("Res50", "ZC706", "hybrid/3");
              ("Res50", "ZC706", "segmented/2");
              ("MobV2", "VCU108", "segmented/3");
            ];
          Alcotest.(check int) "registry_full" 2 (counter d "registry_full");
          Alcotest.(check int) "session_count" 1 (Serve.Daemon.session_count d);
          List.iter
            (fun (what, reply) ->
              Alcotest.(check (option int))
                (what ^ " sessions") (Some 1)
                (Option.bind (Json.member "sessions" (ok_exn what reply))
                   Json.int_))
            [
              ("stats", Serve.Client.stats ~timeout_s:30.0 c);
              ("health", Serve.Client.health ~timeout_s:30.0 c);
            ]))

(* Sessions are keyed by the (model, board) values themselves: the zoo
   model and the same model sent as text share one session, and a model
   differing in one layer gets a second. *)
let test_session_identity () =
  with_daemon
    ~configure:(fun c -> { c with Serve.Daemon.workers = 1 })
    (fun cfg d ->
      with_client cfg (fun c ->
          let text =
            Cnn.Model_io.to_string
              (Option.get (Cnn.Model_zoo.by_abbreviation "MobV2"))
          in
          let variant =
            String.concat "\n"
              (List.map
                 (fun line ->
                   if line = "pw 1280 name=head" then "pw 1024 name=head"
                   else line)
                 (String.split_on_char '\n' text))
          in
          Alcotest.(check bool) "variant differs" true (variant <> text);
          let evaluate ~id model_param =
            let frame =
              Json.to_string
                (Json.Obj
                   [
                     ("id", Json.Num (float_of_int id));
                     ("op", Json.Str "evaluate");
                     ( "params",
                       Json.Obj
                         [
                           model_param;
                           ("board", Json.Str "VCU108");
                           ("arch", Json.Str "hybrid/4");
                           ("cache", Json.Bool false);
                         ] );
                   ])
            in
            match Serve.Protocol.parse_reply (raw_call c frame) with
            | Ok { Serve.Protocol.outcome = Ok _; _ } -> ()
            | Ok { Serve.Protocol.outcome = Error (code, msg); _ } ->
              Alcotest.failf "evaluate %d: %s: %s" id code msg
            | Error msg -> Alcotest.failf "evaluate %d: %s" id msg
          in
          evaluate ~id:1 ("model", Json.Str "MobV2");
          evaluate ~id:2 ("model_text", Json.Str text);
          Alcotest.(check int)
            "zoo model and its text share a session" 1
            (Serve.Daemon.session_count d);
          evaluate ~id:3 ("model_text", Json.Str variant);
          Alcotest.(check int)
            "a one-layer variant gets its own session" 2
            (Serve.Daemon.session_count d)))

(* ------------------------------------------------------------- drain *)

let test_shutdown_drains () =
  with_daemon
    ~configure:(fun c -> { c with Serve.Daemon.workers = 1 })
    (fun cfg d ->
      with_client cfg (fun c ->
          (* Queue work, then ask for shutdown; everything already
             queued must still be answered. *)
          List.iteri
            (fun i a ->
              Result.get_ok
                (Serve.Client.send_line c
                   (Printf.sprintf
                      "{\"id\":%d,\"op\":\"evaluate\",\"params\":{\"model\":\"MobV2\",\"board\":\"VCU108\",\"arch\":\"%s\"}}"
                      i a)))
            [ "hybrid/2"; "hybrid/3"; "hybrid/4" ];
          Result.get_ok
            (Serve.Client.send_line c "{\"id\":99,\"op\":\"shutdown\"}");
          let oks = ref 0 and draining = ref false in
          List.iter
            (fun _ ->
              match Serve.Client.recv_line ~timeout_s:60.0 c with
              | Error msg -> Alcotest.failf "drain reply: %s" msg
              | Ok line -> (
                match Serve.Protocol.parse_reply line with
                | Ok { Serve.Protocol.outcome = Ok r; _ } ->
                  if Json.member "draining" r <> None then draining := true
                  else incr oks
                | Ok { Serve.Protocol.outcome = Error (code, msg); _ } ->
                  Alcotest.failf "drain error reply: %s: %s" code msg
                | Error msg -> Alcotest.failf "drain parse: %s" msg))
            [ (); (); (); () ];
          Alcotest.(check int) "evaluations answered" 3 !oks;
          Alcotest.(check bool) "shutdown acknowledged" true !draining;
          Alcotest.(check bool)
            "daemon stopping" true
            (wait_until (fun () -> Serve.Daemon.stopping d))))

(* --------------------------------------------------------- telemetry *)

(* Control ops are answered inline by the reader thread, out-of-band of
   the worker pool; they must keep answering while every worker is
   wedged on queued work. *)
let test_stats_under_saturation () =
  with_daemon
    ~configure:(fun c -> { c with Serve.Daemon.workers = 2 })
    (fun cfg d ->
      with_client cfg (fun blocker ->
          Result.get_ok
            (Serve.Client.send_line blocker
               "{\"id\":0,\"op\":\"sleep\",\"params\":{\"seconds\":1.5}}");
          Result.get_ok
            (Serve.Client.send_line blocker
               "{\"id\":1,\"op\":\"sleep\",\"params\":{\"seconds\":1.5}}");
          Alcotest.(check bool)
            "both workers wedged" true
            (wait_until (fun () -> counter d "dispatched" >= 2));
          with_client cfg (fun c ->
              (* each wedged sleep holds its worker for 1.5 s; if any of
                 these were queued behind them, the 1 s timeouts would
                 fire and the elapsed check would fail *)
              let t0 = Unix.gettimeofday () in
              let stats =
                ok_exn "stats" (Serve.Client.stats ~timeout_s:1.0 c)
              in
              let health =
                ok_exn "health" (Serve.Client.health ~timeout_s:1.0 c)
              in
              let recent =
                ok_exn "recent" (Serve.Client.recent ~timeout_s:1.0 ~n:10 c)
              in
              let elapsed = Unix.gettimeofday () -. t0 in
              Alcotest.(check bool)
                "answered while saturated" true (elapsed < 1.0);
              Alcotest.(check bool)
                "stats carries the metrics snapshot" true
                (Json.member "metrics" stats <> None);
              Alcotest.(check bool)
                "health is ok (not draining)" true
                (Option.bind (Json.member "status" health) Json.string_
                = Some "ok");
              Alcotest.(check bool)
                "recent answers" true
                (Json.member "records" recent <> None));
          (* unwedge before the implicit shutdown so the drain is quick *)
          ignore (Serve.Client.recv_line ~timeout_s:30.0 blocker);
          ignore (Serve.Client.recv_line ~timeout_s:30.0 blocker)))

(* Spans observe their latency histograms after the reply frame is
   written, so "no in-flight work" is not quite "quiescent": wait for
   two identical snapshots 50 ms apart. *)
let snapshots_stable () =
  wait_until (fun () ->
      let a = Mccm_obs.Metric.snapshot () in
      Thread.delay 0.05;
      a = Mccm_obs.Metric.snapshot ())

let test_stats_snapshot_bit_exact () =
  Mccm_obs.disable ();
  Mccm_obs.reset ();
  Mccm_obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Mccm_obs.disable ();
      Mccm_obs.reset ())
    (fun () ->
      with_daemon (fun cfg _d ->
          with_client cfg (fun c ->
              List.iter
                (fun (m, b, a) ->
                  ignore
                    (ok_exn "evaluate"
                       (Serve.Client.evaluate ~timeout_s:60.0 c ~model:m
                          ~board:b ~arch:a)))
                [
                  ("MobV2", "VCU108", "hybrid/2");
                  ("MobV2", "VCU108", "hybrid/3");
                  ("Res50", "ZC706", "segmented/2");
                ];
              Alcotest.(check bool)
                "metrics quiesced" true (snapshots_stable ());
              (* The stats op itself must not perturb the snapshot it
                 reports (control ops are obs-neutral), so the decoded
                 wire snapshot has to equal a snapshot taken after the
                 reply — structurally, i.e. bit for bit. *)
              let reply =
                ok_exn "stats" (Serve.Client.stats ~timeout_s:30.0 c)
              in
              let decoded =
                match
                  Option.map Mccm_obs.Metric.of_json
                    (Json.member "metrics" reply)
                with
                | Some (Ok s) -> s
                | Some (Error msg) -> Alcotest.failf "metrics decode: %s" msg
                | None -> Alcotest.fail "stats reply without metrics member"
              in
              let local = Mccm_obs.Metric.snapshot () in
              Alcotest.(check bool)
                "decoded wire snapshot = in-process snapshot" true
                (decoded = local);
              List.iter
                (fun (name, h) ->
                  if h.Mccm_obs.Metric.count > 0 then
                    let h' =
                      List.assoc name decoded.Mccm_obs.Metric.histograms
                    in
                    List.iter
                      (fun q ->
                        Alcotest.(check bool)
                          (Printf.sprintf "%s quantile %.2f" name q)
                          true
                          (Mccm_obs.Metric.quantile h ~q
                          = Mccm_obs.Metric.quantile h' ~q))
                      [ 0.5; 0.95; 0.99 ])
                local.Mccm_obs.Metric.histograms)))

(* rid propagation and the recent op's view of completed work. *)
let test_recent_and_rids () =
  with_daemon (fun cfg _d ->
      with_client cfg (fun c ->
          ignore
            (ok_exn "evaluate"
               (Serve.Client.evaluate ~timeout_s:60.0 c ~model:"MobV2"
                  ~board:"VCU108" ~arch:"hybrid/2"));
          (* an id-less error reply must mint and expose a rid *)
          Result.get_ok (Serve.Client.send_line c "{\"op\":\"nonsense\"}");
          (match Serve.Client.recv_line ~timeout_s:30.0 c with
          | Error msg -> Alcotest.failf "recv: %s" msg
          | Ok line -> (
            match Json.parse line with
            | Error msg -> Alcotest.failf "reply parse: %s" msg
            | Ok frame ->
              Alcotest.(check bool)
                "error reply carries a minted rid" true
                (match Json.member "rid" frame with
                | Some (Json.Str r) -> String.length r > 0
                | _ -> false)));
          let recent =
            ok_exn "recent" (Serve.Client.recent ~timeout_s:30.0 c)
          in
          Alcotest.(check bool)
            "flight recorder armed by the daemon" true
            (Json.member "enabled" recent = Some (Json.Bool true));
          match Json.member "records" recent with
          | Some (Json.Arr records) ->
            Alcotest.(check bool)
              "the evaluate left a flight record" true
              (List.exists
                 (fun r ->
                   Option.bind (Json.member "op" r) Json.string_
                   = Some "evaluate"
                   && Option.bind (Json.member "outcome" r) Json.string_
                      = Some "ok"
                   && Json.member "rid" r <> None)
                 records)
          | _ -> Alcotest.fail "recent reply without records"))

(* One counter system: every family in the Prometheus file is declared
   once and no unlabeled series repeats, with stats off and on.  The
   final tick written during drain reflects one evaluate and one cache
   hit. *)
let test_prometheus_families_once () =
  let dups names =
    List.sort_uniq compare
      (List.filter
         (fun n -> List.length (List.filter (String.equal n) names) > 1)
         names)
  in
  let check_file ~stats =
    let prom = Filename.temp_file "mccm-serve" ".prom" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove prom with Sys_error _ -> ())
      (fun () ->
        with_daemon
          ~configure:(fun c ->
            {
              c with
              Serve.Daemon.prom_path = Some prom;
              telemetry_interval_s = 0.05;
            })
          (fun cfg d ->
            with_client cfg (fun c ->
                let frame =
                  eval_frame ~id:1 ~model:"MobV2" ~board:"VCU108"
                    ~arch:"hybrid/4" ()
                in
                ignore (raw_call c frame);
                ignore (raw_call c frame);
                Alcotest.(check int) "one cache hit" 1 (counter d "cache_hits")));
        let lines =
          In_channel.with_open_text prom In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "")
        in
        let types =
          List.filter_map
            (fun l ->
              match String.split_on_char ' ' l with
              | "#" :: "TYPE" :: name :: _ -> Some name
              | _ -> None)
            lines
        in
        let series =
          List.filter_map
            (fun l ->
              if l.[0] = '#' || String.contains l '{' then None
              else Some (List.hd (String.split_on_char ' ' l)))
            lines
        in
        let what = if stats then "stats on" else "stats off" in
        Alcotest.(check bool)
          (what ^ ": ledger exported") true
          (List.mem "mccm_serve_completed 2" lines
          && List.mem "mccm_serve_cache_hits 1" lines);
        Alcotest.(check (list string))
          (what ^ ": repeated # TYPE names") [] (dups types);
        Alcotest.(check (list string))
          (what ^ ": repeated series") [] (dups series))
  in
  Fun.protect
    ~finally:(fun () ->
      Mccm_obs.disable ();
      Mccm_obs.reset ())
    (fun () ->
      Mccm_obs.disable ();
      check_file ~stats:false;
      Mccm_obs.enable ();
      check_file ~stats:true)

(* ------------------------------------------------------ result cache *)

(* The cache's core contract, pinned at the frame level: the reply
   served from the cache is byte-identical to the reply that came from
   the evaluation which populated it — and to an uncached evaluation
   of the same request. *)
let test_cache_bit_identical () =
  with_daemon (fun cfg d ->
      with_client cfg (fun c ->
          let frame = eval_frame ~id:7 ~model:"Res50" ~board:"ZC706"
              ~arch:"segmented/3" () in
          let cold = raw_call c frame in
          Alcotest.(check int) "one miss" 1 (counter d "cache_misses");
          let warm = raw_call c frame in
          Alcotest.(check int) "one hit" 1 (counter d "cache_hits");
          Alcotest.(check string) "hit byte-identical to miss" cold warm;
          let opted_out =
            raw_call c
              (eval_frame ~id:7 ~cache:false ~model:"Res50" ~board:"ZC706"
                 ~arch:"segmented/3" ())
          in
          Alcotest.(check string) "opt-out byte-identical too" cold opted_out;
          (* stats exposes the cache occupancy *)
          let stats = ok_exn "stats" (Serve.Client.stats ~timeout_s:30.0 c) in
          match Json.member "cache" stats with
          | Some cache ->
            Alcotest.(check bool)
              "stats cache entries > 0" true
              (match Json.member "entries" cache with
              | Some (Json.Num n) -> n >= 1.0
              | _ -> false)
          | None -> Alcotest.fail "stats reply without cache member"))

(* Mixed cache-on/off clients replaying the corpus concurrently: every
   reply, hit or not, decodes to exactly the in-process metrics. *)
let test_cache_mixed_clients () =
  let corpus =
    match Validate.Corpus.load corpus_path with
    | Ok cases -> cases
    | Error msg -> Alcotest.failf "corpus: %s" msg
  in
  let expected =
    List.map
      (fun (case : Validate.Case.t) ->
        Mccm.Evaluate.metrics case.Validate.Case.model case.Validate.Case.board
          (Validate.Case.materialize case))
      corpus
  in
  with_daemon
    ~configure:(fun c -> { c with Serve.Daemon.workers = 2 })
    (fun cfg d ->
      let failures = Atomic.make 0 in
      let errors = Atomic.make 0 in
      let worker use_cache () =
        with_client cfg (fun c ->
            for _ = 1 to 3 do
              List.iter2
                (fun case want ->
                  match
                    Serve.Client.evaluate_case ~timeout_s:120.0
                      ~cache:use_cache c case
                  with
                  | Ok got ->
                    if not (metrics_equal want got) then Atomic.incr failures
                  | Error _ -> Atomic.incr errors)
                corpus expected
            done)
      in
      let threads =
        List.map (fun b -> Thread.create (worker b) ()) [ true; false; true ]
      in
      List.iter Thread.join threads;
      Alcotest.(check int) "transport errors" 0 (Atomic.get errors);
      Alcotest.(check int) "bit-exactness failures" 0 (Atomic.get failures);
      Alcotest.(check bool) "cache hits happened" true
        (counter d "cache_hits" > 0))

(* Single-flight: wedge the only worker, pile identical requests onto
   the queued leader, and read exactly one evaluation off the daemon's
   own counters. *)
let test_cache_coalescing () =
  with_daemon
    ~configure:(fun c -> { c with Serve.Daemon.workers = 1 })
    (fun cfg d ->
      with_client cfg (fun blocker ->
          with_client cfg (fun c ->
              Result.get_ok
                (Serve.Client.send_line blocker
                   "{\"id\":\"hold\",\"op\":\"sleep\",\"params\":{\"seconds\":0.4}}");
              Alcotest.(check bool)
                "worker occupied" true
                (wait_until (fun () -> counter d "dispatched" >= 1));
              let enqueued0 = counter d "enqueued" in
              let herd = 8 in
              let frames =
                List.init herd (fun i ->
                    eval_frame ~id:i ~model:"MobV2" ~board:"VCU108"
                      ~arch:"hybrid/4" ())
              in
              List.iter
                (fun f -> Result.get_ok (Serve.Client.send_line c f))
                frames;
              let replies =
                List.map
                  (fun _ ->
                    match Serve.Client.recv_line ~timeout_s:60.0 c with
                    | Ok line -> line
                    | Error msg -> Alcotest.failf "herd recv: %s" msg)
                  frames
              in
              ignore (Serve.Client.recv_line ~timeout_s:30.0 blocker);
              Alcotest.(check int) "one evaluation (misses)" 1
                (counter d "cache_misses");
              Alcotest.(check int) "rest coalesced" (herd - 1)
                (counter d "cache_coalesced");
              Alcotest.(check int) "one enqueue" (enqueued0 + 1)
                (counter d "enqueued");
              (* Ids differ per frame; results must not. *)
              let results =
                List.map
                  (fun line ->
                    match
                      Option.map Json.to_string
                        (Json.member "result"
                           (Result.get_ok (Json.parse line)))
                    with
                    | Some r -> r
                    | None -> Alcotest.failf "herd reply without result: %s" line)
                  replies
              in
              match results with
              | [] -> Alcotest.fail "no herd replies"
              | first :: rest ->
                Alcotest.(check bool)
                  "coalesced results identical" true
                  (List.for_all (String.equal first) rest))))

(* A tiny cache must evict, stay bounded, and keep replies correct. *)
let test_cache_eviction_bounded () =
  with_daemon
    ~configure:(fun c -> { c with Serve.Daemon.cache_capacity = 2 })
    (fun cfg d ->
      with_client cfg (fun c ->
          let archs = [ "hybrid/2"; "hybrid/3"; "hybrid/4"; "segmented/2" ] in
          for _ = 1 to 3 do
            List.iter
              (fun arch ->
                ignore
                  (ok_exn "evaluate"
                     (Serve.Client.evaluate ~timeout_s:60.0 c ~model:"MobV2"
                        ~board:"VCU108" ~arch)))
              archs
          done;
          Alcotest.(check bool) "evictions happened" true
            (counter d "cache_evictions" > 0);
          let stats = ok_exn "stats" (Serve.Client.stats ~timeout_s:30.0 c) in
          match Json.member "cache" stats with
          | Some cache ->
            Alcotest.(check bool)
              "entries bounded by capacity" true
              (match Json.member "entries" cache with
              | Some (Json.Num n) -> n <= 2.0
              | _ -> false)
          | None -> Alcotest.fail "stats reply without cache member"))

(* cache_capacity = 0 disables the cache entirely; everything still
   works and no cache counter ever moves. *)
let test_cache_disabled () =
  with_daemon
    ~configure:(fun c -> { c with Serve.Daemon.cache_capacity = 0 })
    (fun cfg d ->
      with_client cfg (fun c ->
          for _ = 1 to 3 do
            ignore
              (ok_exn "evaluate"
                 (Serve.Client.evaluate ~timeout_s:60.0 c ~model:"MobV2"
                    ~board:"VCU108" ~arch:"hybrid/4"))
          done;
          Alcotest.(check int) "no hits" 0 (counter d "cache_hits");
          Alcotest.(check int) "no misses" 0 (counter d "cache_misses");
          Alcotest.(check int) "no coalescing" 0
            (counter d "cache_coalesced")))

(* A non-boolean "cache" member is a validation error, not a crash. *)
let test_cache_param_validated () =
  with_daemon (fun cfg _d ->
      with_client cfg (fun c ->
          Result.get_ok
            (Serve.Client.send_line c
               "{\"id\":1,\"op\":\"evaluate\",\"params\":{\"model\":\"MobV2\",\"board\":\"VCU108\",\"arch\":\"hybrid/4\",\"cache\":\"yes\"}}");
          match Serve.Client.recv_line ~timeout_s:30.0 c with
          | Error msg -> Alcotest.failf "recv: %s" msg
          | Ok line ->
            let frame = Result.get_ok (Json.parse line) in
            Alcotest.(check bool)
              "bad_params" true
              (Option.bind (Json.member "error" frame) (Json.member "code")
              = Some (Json.Str "bad_params"))))

(* ---------------------------------------------------------- run all *)

let () =
  Alcotest.run "serve"
    [
      ( "round-trip",
        [
          Alcotest.test_case "ping" `Quick test_ping;
          Alcotest.test_case "evaluate (4 cases)" `Quick
            test_evaluate_round_trip;
          Alcotest.test_case "explore" `Quick test_explore_round_trip;
          Alcotest.test_case "enumerate" `Quick test_enumerate_round_trip;
          Alcotest.test_case "validate" `Slow test_validate_round_trip;
        ] );
      ( "bit-exactness",
        [
          Alcotest.test_case "concurrent corpus + generated replay" `Slow
            test_concurrent_bit_exact;
        ] );
      ( "deadline-backpressure",
        [
          Alcotest.test_case "expired at gate: immediate, pool untouched"
            `Quick test_deadline_expired_at_gate;
          Alcotest.test_case "expired in queue: rejected at dispatch" `Quick
            test_deadline_expired_at_dispatch;
          Alcotest.test_case "full queue: overloaded + counter" `Quick
            test_backpressure_overloaded;
        ] );
      ( "worker path",
        [
          Alcotest.test_case "pipelined evaluates behind a busy worker" `Quick
            test_pipelined_evaluates;
          Alcotest.test_case
            "one failing request answers only its own recipients" `Quick
            test_failing_request;
          Alcotest.test_case "past the session cap evaluates uncached" `Quick
            test_session_cap;
          Alcotest.test_case "sessions keyed by model and board values" `Quick
            test_session_identity;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "stats/health/recent under saturation" `Quick
            test_stats_under_saturation;
          Alcotest.test_case "stats snapshot is bit-exact over the wire"
            `Quick test_stats_snapshot_bit_exact;
          Alcotest.test_case "recent records and rid propagation" `Quick
            test_recent_and_rids;
          Alcotest.test_case "each Prometheus family appears once" `Quick
            test_prometheus_families_once;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit byte-identical to miss and opt-out" `Quick
            test_cache_bit_identical;
          Alcotest.test_case "mixed cache-on/off clients bit-exact" `Slow
            test_cache_mixed_clients;
          Alcotest.test_case "thundering herd coalesces to one evaluation"
            `Quick test_cache_coalescing;
          Alcotest.test_case "tiny cache evicts and stays bounded" `Quick
            test_cache_eviction_bounded;
          Alcotest.test_case "capacity 0 disables" `Quick test_cache_disabled;
          Alcotest.test_case "non-boolean cache param rejected" `Quick
            test_cache_param_validated;
        ] );
      ( "drain",
        [ Alcotest.test_case "shutdown drains queued work" `Quick
            test_shutdown_drains ] );
    ]
