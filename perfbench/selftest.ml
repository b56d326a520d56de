(* Tests of the benchmark's own pieces: the percentile rule, open-loop
   accounting, the calibration ratio, and that a corrupted daemon reply
   is counted as a failed operation without aborting the run. *)

open Perfbench

let check_float msg want got = Alcotest.(check (float 1e-9)) msg want got

(* ------------------------------------------------------ percentiles *)

let test_highest_percentile () =
  let samples n = Array.init n (fun i -> float_of_int (i + 1)) in
  let pm n = Option.map fst (Pstats.highest_percentile (samples n)) in
  Alcotest.(check (option int)) "19 samples: not even p50" None (pm 19);
  Alcotest.(check (option int)) "20 samples: p50" (Some 5000) (pm 20);
  Alcotest.(check (option int)) "100 samples: p90" (Some 9000) (pm 100);
  Alcotest.(check (option int)) "999 samples: p90" (Some 9000) (pm 999);
  Alcotest.(check (option int)) "1000 samples: p99" (Some 9900) (pm 1000);
  Alcotest.(check (option int)) "10000 samples: p99.9" (Some 9990) (pm 10000);
  Alcotest.(check int) "p99 of 1000 leaves 10 beyond" 10 (Pstats.beyond ~n:1000 ~pm:9900);
  check_float "nearest-rank p90 of 1..100" 90.0 (Pstats.percentile (samples 100) ~p:90.0);
  check_float "nearest-rank p99 of 1..1000" 990.0 (Pstats.percentile (samples 1000) ~p:99.0);
  check_float "median, even count" 2.5 (Pstats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.(check string) "label" "p99.9" (Pstats.label_of_pm 9990)

(* ------------------------------------------------------- open loop *)

let ms = 1_000_000

let test_due_and_lateness () =
  let t = Openloop.create ~start_ns:0 ~rate:1000.0 in
  Alcotest.(check int) "request 7 is due at 7 ms" (7 * ms) (Openloop.due t 7);
  (* The generator stalls from 4 ms to 8 ms: requests 5-7 go out at
     8 ms; every reply takes 1 ms after sending. *)
  let sent i = if i >= 5 && i <= 7 then 8 * ms else Openloop.due t i in
  let outcomes =
    List.init 10 (fun i ->
        { Openloop.index = i; sent_ns = sent i; reply_ns = (if i = 9 then None else Some (sent i + ms)) })
  in
  let s = Openloop.summarise t outcomes in
  Alcotest.(check int) "sent" 10 s.Openloop.sent;
  Alcotest.(check int) "missing" 1 s.Openloop.missing;
  check_float "on-time request: latency 1 ms" 1.0 s.Openloop.latencies_ms.(0);
  check_float "stalled request 5: latency from its due time" 4.0 s.Openloop.latencies_ms.(5);
  check_float "stalled request 7: latency from its due time" 2.0 s.Openloop.latencies_ms.(7);
  check_float "request 5 ran 3 ms late" 3.0 s.Openloop.lateness_ms.(5);
  check_float "request 8 on time" 0.0 s.Openloop.lateness_ms.(8);
  Alcotest.(check bool)
    "a missing request sits above every answered one" true
    (Openloop.latency_percentile s ~pm:9900 = infinity);
  check_float "median still answered" 1.0 (Openloop.latency_percentile s ~pm:5000)

(* ----------------------------------------------------- calibration *)

let test_calibration () =
  check_float "box at half speed" 0.5 (Calib.factor ~reference:0.06 ~measured:0.12);
  check_float "slow box: time scaled down" 1.0 (Calib.time_ 0.5 2.0);
  check_float "slow box: rate scaled up" 200.0 (Calib.rate 0.5 100.0);
  let f = Calib.factor ~reference:Calib.reference_unit_s ~measured:(2.0 *. Calib.reference_unit_s) in
  check_float "run factor is reference over median unit" f
    (Calib.run_factor
       (Array.map (fun k -> k *. Calib.reference_unit_s) [| 3.0; 2.0; 1.5; 2.0; 9.0 |]));
  Alcotest.(check int) "kernel is deterministic" (Calib.unit ()) (Calib.unit ());
  Alcotest.(check int) "one time per unit" 3 (Array.length (Calib.time_units 3))

(* ------------------------------------------- corrupted daemon reply *)

(* A stand-in daemon: answers every request on its connection, but only
   every third one correctly; the others get a reply whose metrics are
   garbage, or a line that is not JSON at all. *)
let fake_daemon socket models =
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Sys.remove socket with Sys_error _ -> ());
  Unix.bind srv (Unix.ADDR_UNIX socket);
  Unix.listen srv 8;
  let serve fd =
    let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
    try
      while true do
        let line = input_line ic in
        let req = Result.get_ok (Serve.Protocol.parse_request line) in
        let id = match req.Serve.Protocol.id with Util.Json.Num f -> int_of_float f | _ -> 0 in
        let param k =
          Option.get (Option.bind (Util.Json.member k req.Serve.Protocol.params) Util.Json.string_)
        in
        let reply =
          match id mod 3 with
          | 0 ->
            let pair = if param "model" = "MobV2" then 0 else 1 in
            let model = models.(pair) in
            let arch = Result.get_ok (Arch.Shorthand.parse model (param "arch")) in
            let m = Mccm.Evaluate.metrics model Platform.Board.vcu108 arch in
            Serve.Protocol.ok_frame ~id:req.Serve.Protocol.id
              (Util.Json.Obj [ ("metrics", Serve.Protocol.json_of_metrics m) ])
          | 1 ->
            Serve.Protocol.ok_frame ~id:req.Serve.Protocol.id
              (Util.Json.Obj [ ("metrics", Util.Json.Obj [ ("latency_s", Util.Json.Str "fast") ]) ])
          | _ -> "}} not a reply"
        in
        output_string oc (reply ^ "\n");
        flush oc
      done
    with _ -> ( try Unix.close fd with _ -> ())
  in
  let accepted = ref [] in
  let acceptor =
    Thread.create
      (fun () ->
        try
          while true do
            let fd, _ = Unix.accept srv in
            accepted := Thread.create serve fd :: !accepted
          done
        with _ -> ())
      ()
  in
  (srv, acceptor)

let test_corrupted_reply () =
  let models = Array.map (fun (m, _) -> Option.get (Cnn.Model_zoo.by_abbreviation m)) Serve_mix.pairs in
  let socket = Printf.sprintf "selftest-%d.sock" (Unix.getpid ()) in
  let srv, _ = fake_daemon socket models in
  let conns = Array.init 2 (fun _ -> Serve.Client.connect_exn socket) in
  let g = Serve_mix.make_gen ~seed:7 models in
  let _, recs = Serve_mix.open_window g conns ~rate:200.0 ~duration:0.3 in
  let report = Report.create "selftest" in
  Serve_mix.verify report ~refs:(Serve_mix.reference models) ~models recs;
  Array.iter Serve.Client.close conns;
  (try Unix.shutdown srv Unix.SHUTDOWN_ALL with _ -> ());
  Unix.close srv;
  (try Sys.remove socket with Sys_error _ -> ());
  let n = Array.length recs in
  let good = Array.fold_left (fun acc r -> if r.Serve_mix.req.Serve_mix.idx mod 3 = 0 then acc + 1 else acc) 0 recs in
  Alcotest.(check int) "every request attempted" n report.Report.attempted;
  Alcotest.(check int) "every corrupted reply is a failed operation" (n - good) report.Report.failed;
  Alcotest.(check bool) "some replies were correct" true (good > 0)

let () =
  Alcotest.run "perfbench"
    [
      ("percentiles", [ Alcotest.test_case "highest percentile rule" `Quick test_highest_percentile ]);
      ("open loop", [ Alcotest.test_case "due time and lateness" `Quick test_due_and_lateness ]);
      ("calibration", [ Alcotest.test_case "ratio" `Quick test_calibration ]);
      ("serve-mix", [ Alcotest.test_case "corrupted reply counted" `Quick test_corrupted_reply ]);
    ]
