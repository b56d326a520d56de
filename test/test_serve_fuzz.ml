(* Protocol fuzzing for the mccm daemon: malformed JSON, wrong-shape
   frames, truncated writes, oversized frames and interleaved partial
   frames.  The contract under fuzz is narrow and absolute — every
   complete frame gets exactly one structured reply (ok or a protocol
   error), the daemon never crashes, never wedges its worker pool, and
   a well-formed request on the same battered connection still gets a
   correct answer afterwards.

   One daemon instance (small frame cap to make the oversized path
   cheap to hit) is shared by all properties; surviving the whole run
   is itself part of the property. *)

module Json = Util.Json

let sock =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "mccm-fuzz-%d.sock" (Unix.getpid ()))

let max_frame = 4096

let handle =
  lazy
    (Serve.Daemon.spawn
       {
         (Serve.Daemon.default ~socket_path:sock) with
         Serve.Daemon.workers = 1;
         max_frame_bytes = max_frame;
       })

let daemon () = Serve.Daemon.daemon (Lazy.force handle)

let with_client f =
  let c =
    Serve.Client.connect_exn
      (Serve.Daemon.config (daemon ())).Serve.Daemon.socket_path
  in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let known_error_codes =
  [
    "parse_error";
    "invalid_request";
    "unknown_op";
    "bad_params";
    "overloaded";
    "deadline_exceeded";
    "oversized_frame";
    "shutting_down";
    "internal";
  ]

(* Expect exactly one reply for one just-sent frame: it must parse, and
   if it is an error its code must be from the documented set. *)
let expect_structured_reply c what =
  match Serve.Client.recv_line ~timeout_s:30.0 c with
  | Error msg -> QCheck2.Test.fail_reportf "%s: no reply: %s" what msg
  | Ok line -> (
    match Serve.Protocol.parse_reply line with
    | Error msg ->
      QCheck2.Test.fail_reportf "%s: unparsable reply %S: %s" what line msg
    | Ok { Serve.Protocol.outcome = Ok _; _ } -> ()
    | Ok { Serve.Protocol.outcome = Error (code, _); _ } ->
      if not (List.mem code known_error_codes) then
        QCheck2.Test.fail_reportf "%s: unknown error code %S" what code)

(* After any abuse, the same connection must still serve a valid ping. *)
let still_alive c =
  match Serve.Client.ping ~timeout_s:30.0 c with
  | Ok r -> Json.member "pong" r = Some (Json.Bool true)
  | Error (code, msg) ->
    QCheck2.Test.fail_reportf "ping after abuse failed: %s: %s" code msg

(* ------------------------------------------------------- generators *)

(* Printable-ish garbage without LF (so one write = one frame), never
   empty — the daemon deliberately skips blank lines without replying. *)
let gen_garbage_line =
  QCheck2.Gen.(
    string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 1 200))

(* Structurally valid JSON, wrong shape for a request. *)
let gen_wrong_shape =
  QCheck2.Gen.oneofl
    [
      "null";
      "42";
      "\"just a string\"";
      "[1,2,3]";
      "{}";
      "{\"op\":42}";
      "{\"id\":1,\"op\":\"no-such-op\"}";
      "{\"id\":1,\"op\":\"evaluate\"}";
      "{\"id\":1,\"op\":\"evaluate\",\"params\":{\"model\":\"NoSuchNet\",\"board\":\"VCU108\",\"arch\":\"hybrid/4\"}}";
      "{\"id\":1,\"op\":\"evaluate\",\"params\":{\"model\":\"MobV2\",\"board\":\"NoSuchBoard\",\"arch\":\"hybrid/4\"}}";
      "{\"id\":1,\"op\":\"evaluate\",\"params\":{\"model\":\"MobV2\",\"board\":\"VCU108\",\"arch\":\"garbage!!\"}}";
      "{\"id\":1,\"op\":\"sleep\",\"params\":{\"seconds\":1e9}}";
      "{\"id\":1,\"op\":\"explore\",\"params\":{\"model\":\"MobV2\",\"board\":\"VCU108\",\"samples\":-3}}";
      "{\"id\":{\"nested\":[true]},\"op\":\"ping\"}";
      "{\"id\":1,\"op\":\"ping\",\"deadline_ms\":\"soon\"}";
    ]

(* --------------------------------------------------------- properties *)

let prop_garbage_gets_one_error =
  QCheck2.Test.make ~name:"malformed frame -> one structured reply" ~count:60
    QCheck2.Gen.(list_size (int_range 1 8) gen_garbage_line)
    (fun lines ->
      with_client (fun c ->
          List.iter
            (fun line ->
              (match Serve.Client.send_line c line with
              | Ok () -> ()
              | Error msg -> QCheck2.Test.fail_reportf "send: %s" msg);
              expect_structured_reply c "garbage")
            lines;
          still_alive c))

let prop_wrong_shape_gets_error =
  QCheck2.Test.make ~name:"wrong-shape frame -> structured error" ~count:60
    QCheck2.Gen.(list_size (int_range 1 6) gen_wrong_shape)
    (fun frames ->
      with_client (fun c ->
          List.iter
            (fun frame ->
              (match Serve.Client.send_line c frame with
              | Ok () -> ()
              | Error msg -> QCheck2.Test.fail_reportf "send: %s" msg);
              expect_structured_reply c frame)
            frames;
          still_alive c))

let prop_truncated_then_closed =
  QCheck2.Test.make ~name:"truncated frame + close -> daemon survives"
    ~count:40 gen_garbage_line (fun partial ->
      (* Write a frame with no newline and hang up; the daemon must
         drop the connection without leaking or wedging. *)
      with_client (fun c ->
          match Serve.Client.send_bytes c partial with
          | Ok () -> ()
          | Error msg -> QCheck2.Test.fail_reportf "send: %s" msg);
      with_client still_alive)

let prop_oversized_then_resync =
  QCheck2.Test.make ~name:"oversized frame -> error, connection resyncs"
    ~count:20
    QCheck2.Gen.(int_range (max_frame + 1) (4 * max_frame))
    (fun n ->
      with_client (fun c ->
          (match Serve.Client.send_line c (String.make n 'x') with
          | Ok () -> ()
          | Error msg -> QCheck2.Test.fail_reportf "send: %s" msg);
          (match Serve.Client.recv_line ~timeout_s:30.0 c with
          | Error msg -> QCheck2.Test.fail_reportf "no reply: %s" msg
          | Ok line -> (
            match Serve.Protocol.parse_reply line with
            | Ok { Serve.Protocol.outcome = Error ("oversized_frame", _); _ }
              ->
              ()
            | Ok _ -> QCheck2.Test.fail_reportf "expected oversized_frame"
            | Error msg ->
              QCheck2.Test.fail_reportf "unparsable reply: %s" msg));
          (* The discard-to-newline resync must leave the stream framed:
             the next request parses normally. *)
          still_alive c))

let prop_interleaved_partial_writes =
  QCheck2.Test.make ~name:"interleaved partial frames across connections"
    ~count:30
    QCheck2.Gen.(
      graft_corners
        (pair (int_range 0 2) (int_range 1 10))
        [ (2, 2) (* two whole frames plus the head of a third *) ]
        ())
    (fun (lead, cuts) ->
      (* Split one valid ping frame into [cuts] chunks on connection A,
         the first chunk preceded by [lead] whole ping frames in the same
         write, interleaving a full valid frame on connection B between
         every chunk.  Both connections must answer correctly, A's
         frames in order: per-connection buffering may never bleed
         across sockets. *)
      let ping id = Printf.sprintf {|{"id":%d,"op":"ping"}|} id ^ "\n" in
      let frame = ping (lead + 1) in
      let head = String.concat "" (List.init lead (fun i -> ping (i + 1))) in
      let a =
        Serve.Client.connect_exn
          (Serve.Daemon.config (daemon ())).Serve.Daemon.socket_path
      in
      let b =
        Serve.Client.connect_exn
          (Serve.Daemon.config (daemon ())).Serve.Daemon.socket_path
      in
      Fun.protect
        ~finally:(fun () ->
          Serve.Client.close a;
          Serve.Client.close b)
        (fun () ->
          let len = String.length frame in
          let bounds =
            List.init cuts (fun i -> (i * len / cuts, (i + 1) * len / cuts))
          in
          List.iter
            (fun (lo, hi) ->
              if hi > lo then begin
                let chunk = String.sub frame lo (hi - lo) in
                let chunk = if lo = 0 then head ^ chunk else chunk in
                (match Serve.Client.send_bytes a chunk with
                | Ok () -> ()
                | Error msg -> QCheck2.Test.fail_reportf "send a: %s" msg);
                match Serve.Client.ping ~timeout_s:30.0 b with
                | Ok _ -> ()
                | Error (code, msg) ->
                  QCheck2.Test.fail_reportf "b wedged: %s: %s" code msg
              end)
            bounds;
          for id = 1 to lead + 1 do
            match Serve.Client.recv_line ~timeout_s:30.0 a with
            | Error msg ->
              QCheck2.Test.fail_reportf "ping %d: no reply: %s" id msg
            | Ok line -> (
              match Serve.Protocol.parse_reply line with
              | Ok { Serve.Protocol.reply_id; outcome = Ok _ }
                when reply_id = Json.Num (float_of_int id) ->
                ()
              | _ ->
                QCheck2.Test.fail_reportf "ping %d: unexpected reply %S" id
                  line)
          done;
          true))

(* ---------------------------------------- forward compatibility: /2 *)

(* Unknown top-level request fields are ignored, not rejected: newer
   clients may decorate frames (tracing ids, feature hints) and the
   daemon must keep answering.  The recognised fields are exactly
   [id]/[op]/[params]/[deadline_ms]; anything else is opaque. *)

let reserved_fields = [ "id"; "op"; "params"; "deadline_ms" ]

let gen_extra_field =
  QCheck2.Gen.(
    let name =
      map
        (fun s -> "x-" ^ s)
        (string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 1 12))
    in
    let value =
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun n -> Json.Num (float_of_int n)) (int_range (-1000) 1000);
          map (fun s -> Json.Str s) (small_string ~gen:printable);
          map (fun vs -> Json.Arr vs)
            (list_size (int_range 0 3)
               (map (fun n -> Json.Num (float_of_int n)) small_int));
        ]
    in
    pair name value)

let test_unknown_fields_ignored () =
  with_client (fun c ->
      let frames =
        [
          "{\"id\":1,\"op\":\"ping\",\"trace\":\"abc123\"}";
          "{\"id\":2,\"op\":\"ping\",\"x-priority\":7,\"hints\":{\"retry\":false}}";
          "{\"id\":3,\"op\":\"evaluate\",\"ext\":[1,2],\"params\":{\"model\":\"MobV2\",\"board\":\"VCU108\",\"arch\":\"hybrid/4\"}}";
        ]
      in
      List.iter
        (fun frame ->
          (match Serve.Client.send_line c frame with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "send: %s" msg);
          match Serve.Client.recv_line ~timeout_s:60.0 c with
          | Error msg -> Alcotest.failf "recv: %s" msg
          | Ok line -> (
            match Serve.Protocol.parse_reply line with
            | Ok { Serve.Protocol.outcome = Ok _; _ } -> ()
            | Ok { Serve.Protocol.outcome = Error (code, msg); _ } ->
              Alcotest.failf "frame %s rejected: %s: %s" frame code msg
            | Error msg -> Alcotest.failf "unparsable reply: %s" msg))
        frames)

let prop_unknown_fields_ignored =
  QCheck2.Test.make ~name:"unknown top-level fields -> ok reply" ~count:60
    QCheck2.Gen.(list_size (int_range 1 5) gen_extra_field)
    (fun extras ->
      let extras =
        List.filter (fun (k, _) -> not (List.mem k reserved_fields)) extras
      in
      let frame =
        Json.to_string
          (Json.Obj
             ([ ("id", Json.Num 9.0); ("op", Json.Str "ping") ] @ extras))
      in
      with_client (fun c ->
          (match Serve.Client.send_line c frame with
          | Ok () -> ()
          | Error msg -> QCheck2.Test.fail_reportf "send: %s" msg);
          (match Serve.Client.recv_line ~timeout_s:30.0 c with
          | Error msg -> QCheck2.Test.fail_reportf "no reply: %s" msg
          | Ok line -> (
            match Serve.Protocol.parse_reply line with
            | Ok { Serve.Protocol.outcome = Ok _; _ } -> ()
            | Ok { Serve.Protocol.outcome = Error (code, msg); _ } ->
              QCheck2.Test.fail_reportf
                "decorated ping rejected (%s): %s: %s" frame code msg
            | Error msg ->
              QCheck2.Test.fail_reportf "unparsable reply: %s" msg));
          still_alive c))

(* ------------------------------------------------- final health gate *)

(* Runs last: after every property above hammered the daemon, the pool
   must still evaluate for real and the connection ledger must balance
   (every opened connection was eventually closed). *)
let test_aftermath () =
  with_client (fun c ->
      match
        Serve.Client.evaluate ~timeout_s:120.0 c ~model:"MobV2"
          ~board:"VCU108" ~arch:"hybrid/4"
      with
      | Ok m ->
        let model = Option.get (Cnn.Model_zoo.by_abbreviation "MobV2") in
        let board = Option.get (Platform.Board.by_name "VCU108") in
        let archi = Result.get_ok (Arch.Shorthand.parse model "hybrid/4") in
        let want = Mccm.Evaluate.metrics model board archi in
        Alcotest.(check bool)
          "post-fuzz evaluation bit-exact" true
          (want.Mccm.Metrics.latency_s = m.Mccm.Metrics.latency_s
          && want.Mccm.Metrics.feasible = m.Mccm.Metrics.feasible)
      | Error (code, msg) ->
        Alcotest.failf "pool wedged after fuzz: %s: %s" code msg);
  let counters = Serve.Daemon.counters (daemon ()) in
  let get name = List.assoc name counters in
  let opened = get "connections_opened" and closed = get "connections_closed" in
  (* Our clients are all closed; give the daemon a beat to notice. *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec settle () =
    let closed = List.assoc "connections_closed" (Serve.Daemon.counters (daemon ())) in
    if closed >= opened then closed
    else if Unix.gettimeofday () > deadline then closed
    else (Thread.delay 0.02; settle ())
  in
  let closed = max closed (settle ()) in
  Alcotest.(check int) "connection ledger balances" opened closed;
  Serve.Daemon.shutdown (Lazy.force handle)

let () =
  Alcotest.run "serve-fuzz"
    [
      ( "protocol-fuzz",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_garbage_gets_one_error;
            prop_wrong_shape_gets_error;
            prop_truncated_then_closed;
            prop_oversized_then_resync;
            prop_interleaved_partial_writes;
          ] );
      ( "forward-compat",
        Alcotest.test_case "unknown top-level fields ignored" `Quick
          test_unknown_fields_ignored
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_unknown_fields_ignored ] );
      ("aftermath", [ Alcotest.test_case "pool alive, ledger balanced" `Quick test_aftermath ]);
    ]
