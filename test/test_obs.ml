(* Unit and property tests for the Mccm_obs observability library:
   disabled hooks are no-ops, counters are exact under parallel
   increments from several domains, snapshot merging is
   order-insensitive, span nesting is well-formed, the Chrome-trace
   export matches a golden document, and the evaluator's obs counters
   agree with Eval_session's own statistics. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* Instrumentation state is process-global: every test starts and ends
   from a clean, disabled registry. *)
let reset_off () =
  Mccm_obs.disable ();
  Mccm_obs.reset ()

let counter_value name =
  let s = Mccm_obs.Metric.snapshot () in
  Option.value ~default:0 (List.assoc_opt name s.Mccm_obs.Metric.counters)

(* --------------------------------------------------------- disabled *)

let test_disabled_noop () =
  reset_off ();
  let c = Mccm_obs.Metric.counter "obs.test.disabled" in
  Mccm_obs.Metric.incr c;
  Mccm_obs.Metric.add c 41;
  let r = Mccm_obs.span "obs.test.span" (fun () -> 42) in
  check "span returns its thunk's value" 42 r;
  check "counter untouched while disabled" 0
    (Mccm_obs.Metric.value c);
  check "no events recorded while disabled" 0
    (List.length (Mccm_obs.Span.events ()));
  let s = Mccm_obs.Metric.snapshot () in
  checkb "no span histogram while disabled" true
    (List.assoc_opt "span.obs.test.span" s.Mccm_obs.Metric.histograms = None)

(* --------------------------------------------------- counters exact *)

let prop_parallel_counters =
  QCheck2.Test.make ~count:20
    ~name:"counters exact under parallel increments"
    QCheck2.Gen.(pair (int_range 1 4) (int_range 0 2000))
    (fun (domains, n) ->
      reset_off ();
      Mccm_obs.enable ();
      let c = Mccm_obs.Metric.counter "obs.test.parallel" in
      let spawned =
        List.init domains (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to n do
                  Mccm_obs.Metric.incr c
                done))
      in
      List.iter Domain.join spawned;
      Mccm_obs.disable ();
      let total = Mccm_obs.Metric.value c in
      reset_off ();
      total = domains * n)

(* ---------------------------------------------------- merge algebra *)

(* Snapshots built directly from sorted assoc lists over a fixed name
   pool; histogram fields derive from the sample list.  [gen_snapshot]
   uses small integers so sums stay exact and associativity can be
   checked with structural equality; [gen_wide_snapshot] uses values
   spread over the whole finite double range to exercise the %.17g
   serialization. *)
let gen_snapshot_with value =
  let open QCheck2.Gen in
  let assoc_of pool gen_v =
    flatten_l
      (List.map
         (fun name ->
           let* keep = bool in
           if keep then map (fun v -> Some (name, v)) gen_v
           else return None)
         pool)
    |> map (List.filter_map Fun.id)
  in
  let gen_hist =
    let* samples = list_size (int_range 0 6) value in
    let sorted = List.sort compare samples in
    return
      {
        Mccm_obs.Metric.count = List.length samples;
        sum = List.fold_left ( +. ) 0.0 samples;
        min = (match sorted with [] -> infinity | x :: _ -> x);
        max =
          (match List.rev sorted with [] -> neg_infinity | x :: _ -> x);
        samples = Array.of_list sorted;
      }
  in
  let* counters = assoc_of [ "a"; "b"; "c"; "d" ] (int_range 0 100) in
  let* gauges = assoc_of [ "g1"; "g2"; "g3" ] value in
  let* histograms = assoc_of [ "h1"; "h2"; "h3" ] gen_hist in
  return { Mccm_obs.Metric.counters; gauges; histograms }

let gen_snapshot =
  gen_snapshot_with QCheck2.Gen.(map float_of_int (int_range 0 20))

let gen_wide_snapshot =
  (* finite but spanning ~600 orders of magnitude, either sign *)
  gen_snapshot_with
    QCheck2.Gen.(
      map
        (fun (m, e) -> Float.ldexp m e)
        (pair (float_range (-1.0) 1.0) (int_range (-300) 300)))

let prop_merge_commutative =
  QCheck2.Test.make ~name:"snapshot merge is commutative"
    QCheck2.Gen.(pair gen_snapshot gen_snapshot)
    (fun (a, b) -> Mccm_obs.Metric.merge a b = Mccm_obs.Metric.merge b a)

let prop_merge_associative =
  QCheck2.Test.make ~name:"snapshot merge is associative"
    QCheck2.Gen.(triple gen_snapshot gen_snapshot gen_snapshot)
    (fun (a, b, c) ->
      Mccm_obs.Metric.(merge (merge a b) c = merge a (merge b c)))

(* ----------------------------------------------- snapshot round trip *)

(* The stats protocol op ships Metric.to_json over the wire and clients
   decode with of_json; bit-for-bit equality end to end needs the codec
   to be an exact inverse, including through the string layer. *)
let prop_json_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"snapshot JSON round-trips exactly"
    gen_wide_snapshot
    (fun s ->
      let j = Mccm_obs.Metric.to_json s in
      Mccm_obs.Metric.of_json j = Ok s
      &&
      match Util.Json.parse (Util.Json.to_string j) with
      | Ok j' -> Mccm_obs.Metric.of_json j' = Ok s
      | Error _ -> false)

let prop_delta_merge_inverse =
  (* For a monotone pair (later = merge earlier growth), delta is the
     exact inverse of merge — what lets a poller turn two absolute
     stats replies into an interval snapshot.  Small integer values so
     the sum arithmetic is float-exact. *)
  QCheck2.Test.make ~count:500 ~name:"merge earlier (delta later earlier) = later"
    QCheck2.Gen.(pair gen_snapshot gen_snapshot)
    (fun (earlier, growth) ->
      let later = Mccm_obs.Metric.merge earlier growth in
      Mccm_obs.Metric.merge earlier (Mccm_obs.Metric.delta later earlier)
      = later)

(* ------------------------------------------------------ span nesting *)

type tree = T of tree list

let gen_tree =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then return (T [])
           else
             let* width = int_range 0 3 in
             let* kids = list_size (return width) (self (n / 4)) in
             return (T kids)))

let rec nodes (T kids) = 1 + List.fold_left (fun a t -> a + nodes t) 0 kids

let prop_span_nesting =
  QCheck2.Test.make ~count:50 ~name:"span events are properly nested"
    gen_tree
    (fun tree ->
      reset_off ();
      Mccm_obs.enable ~tracing:true ();
      let rec walk depth (T kids) =
        Mccm_obs.span ~cat:"test"
          (Printf.sprintf "obs.test.n%d" depth)
          (fun () -> List.iter (walk (depth + 1)) kids)
      in
      walk 0 tree;
      let events = Mccm_obs.Span.events () in
      Mccm_obs.disable ();
      let well_nested =
        List.for_all
          (fun (a : Mccm_obs.Span.event) ->
            List.for_all
              (fun (b : Mccm_obs.Span.event) ->
                a == b
                ||
                let s1 = a.Mccm_obs.Span.ts_ns
                and e1 = a.Mccm_obs.Span.ts_ns + a.Mccm_obs.Span.dur_ns in
                let s2 = b.Mccm_obs.Span.ts_ns
                and e2 = b.Mccm_obs.Span.ts_ns + b.Mccm_obs.Span.dur_ns in
                e1 <= s2 || e2 <= s1
                || (s1 <= s2 && e2 <= e1)
                || (s2 <= s1 && e1 <= e2))
              events)
          events
      in
      let ok =
        List.length events = nodes tree
        && well_nested
        && List.exists (fun e -> e.Mccm_obs.Span.depth = 0) events
      in
      reset_off ();
      ok)

(* ---------------------------------------------------- histogram/gauge *)

let test_histogram_snapshot () =
  reset_off ();
  Mccm_obs.enable ();
  let h = Mccm_obs.Metric.histogram "obs.test.hist" in
  List.iter
    (fun v -> Mccm_obs.Metric.observe h v)
    [ 3.0; 1.0; 4.0; 2.0; 5.0 ];
  let s = Mccm_obs.Metric.snapshot () in
  Mccm_obs.disable ();
  let hs = List.assoc "obs.test.hist" s.Mccm_obs.Metric.histograms in
  check "count" 5 hs.Mccm_obs.Metric.count;
  checkf "sum" 15.0 hs.Mccm_obs.Metric.sum;
  checkf "min" 1.0 hs.Mccm_obs.Metric.min;
  checkf "max" 5.0 hs.Mccm_obs.Metric.max;
  checkb "samples sorted" true
    (hs.Mccm_obs.Metric.samples = [| 1.0; 2.0; 3.0; 4.0; 5.0 |]);
  checkf "median" 3.0 (Mccm_obs.Metric.quantile hs ~q:0.5);
  reset_off ()

let test_gauge_update_max () =
  reset_off ();
  Mccm_obs.enable ();
  let g = Mccm_obs.Metric.gauge "obs.test.gauge" in
  Mccm_obs.Metric.update_max g 2.0;
  Mccm_obs.Metric.update_max g 1.0;
  Mccm_obs.Metric.update_max g 5.0;
  let s = Mccm_obs.Metric.snapshot () in
  Mccm_obs.disable ();
  checkf "best-so-far" 5.0 (List.assoc "obs.test.gauge" s.Mccm_obs.Metric.gauges);
  reset_off ()

(* --------------------------------------------------- flight recorder *)

let test_flight_only_gating () =
  reset_off ();
  Mccm_obs.Flight.configure ();
  Mccm_obs.Flight.enable ();
  checkb "flight armed" true (Mccm_obs.Flight.enabled ());
  (* arming the recorder must not wake metrics or spans up *)
  let c = Mccm_obs.Metric.counter "obs.test.flightgate" in
  Mccm_obs.Metric.incr c;
  check "metrics still off" 0 (Mccm_obs.Metric.value c);
  ignore (Mccm_obs.span "obs.test.flightspan" (fun () -> 0));
  check "no span events" 0 (List.length (Mccm_obs.Span.events ()));
  Mccm_obs.Flight.record ~rid:"r" ~op:"ping" ~worker:(-1) ~queue_ns:0
    ~eval_ns:0 ~bytes_in:0 ~bytes_out:0 ~outcome:"ok";
  check "recorded" 1 (List.length (Mccm_obs.Flight.dump ()));
  (* enable preserves the flight bit; disable clears every facet *)
  Mccm_obs.enable ();
  checkb "stats enable keeps flight armed" true (Mccm_obs.Flight.enabled ());
  Mccm_obs.disable ();
  checkb "disable clears flight" false (Mccm_obs.Flight.enabled ());
  Mccm_obs.Flight.configure ();
  reset_off ()

let test_flight_concurrent_exact () =
  reset_off ();
  Mccm_obs.Flight.configure ~capacity:64 ~slow_ms:1e12 ~slow_keep:4 ();
  Mccm_obs.Flight.enable ();
  let domains = 4 and per = 32 in
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              Mccm_obs.Flight.record
                ~rid:(Printf.sprintf "d%d-%d" d i)
                ~op:"evaluate" ~worker:d ~queue_ns:0 ~eval_ns:i ~bytes_in:1
                ~bytes_out:1 ~outcome:"ok"
            done))
  in
  List.iter Domain.join spawned;
  let dump = Mccm_obs.Flight.dump () in
  Mccm_obs.Flight.disable ();
  (* per-domain rings are private, so a quiescent dump is exact *)
  check "every record present" (domains * per) (List.length dump);
  check "lifetime total" (domains * per) (Mccm_obs.Flight.total ());
  let rec mono = function
    | (a : Mccm_obs.Flight.record) :: (b :: _ as tl) ->
      a.Mccm_obs.Flight.t_ns <= b.Mccm_obs.Flight.t_ns && mono tl
    | _ -> true
  in
  checkb "sorted by completion time" true (mono dump);
  Mccm_obs.Flight.configure ();
  reset_off ()

let test_flight_slow_retention () =
  reset_off ();
  Mccm_obs.Flight.configure ~capacity:4 ~slow_ms:30.0 ~slow_keep:8 ();
  Mccm_obs.Flight.enable ();
  for i = 1 to 50 do
    Mccm_obs.Flight.record ~rid:(string_of_int i) ~op:"sleep" ~worker:0
      ~queue_ns:0 ~eval_ns:(i * 1_000_000) ~bytes_in:0 ~bytes_out:0
      ~outcome:"ok"
  done;
  let dump = Mccm_obs.Flight.dump () in
  Mccm_obs.Flight.disable ();
  (* the ring has wrapped down to 47..50, but the slow buffer (>= 30 ms)
     retained the 8 worst eval times by replace-min: 43..50 survive,
     deduplicated against the ring *)
  check "ring + slow, deduplicated" 8 (List.length dump);
  let rids =
    List.sort compare
      (List.map (fun r -> int_of_string r.Mccm_obs.Flight.rid) dump)
  in
  checkb "worst offenders retained" true
    (rids = [ 43; 44; 45; 46; 47; 48; 49; 50 ]);
  check "lifetime total counts dropped records" 50 (Mccm_obs.Flight.total ());
  Mccm_obs.Flight.configure ();
  reset_off ()

(* ------------------------------------------------- summary rendering *)

(* pp sorts every block by name before rendering, so the summary is one
   deterministic string no matter how the snapshot was assembled; this
   golden pins both the sorting and the exact layout. *)
let test_golden_summary () =
  let hist samples =
    let sorted = List.sort compare samples in
    {
      Mccm_obs.Metric.count = List.length samples;
      sum = List.fold_left ( +. ) 0.0 samples;
      min = List.hd sorted;
      max = List.nth sorted (List.length sorted - 1);
      samples = Array.of_list sorted;
    }
  in
  let s =
    {
      (* deliberately unsorted input *)
      Mccm_obs.Metric.counters = [ ("z.second", 2); ("a.first", 40) ];
      gauges = [ ("g.late", 7.5); ("g.early", 1.25) ];
      histograms =
        [ ("h.tail", hist [ 0.004; 0.002 ]); ("h.head", hist [ 0.5 ]) ];
    }
  in
  let expected =
    "counters & gauges\n\
     +----------+-------+\n\
     |  metric  | value |\n\
     +----------+-------+\n\
     | a.first  |    40 |\n\
     | z.second |     2 |\n\
     | g.early  |  1.25 |\n\
     | g.late   |   7.5 |\n\
     +----------+-------+\n\
     span durations\n\
     +--------+-------+------------+------------+------------+------------+------------+\n\
     |  span  | count |   total    |    p50     |    p95     |    p99     |    max     |\n\
     +--------+-------+------------+------------+------------+------------+------------+\n\
     | h.head |     1 | 500.000 ms | 500.000 ms | 500.000 ms | 500.000 ms | 500.000 ms |\n\
     | h.tail |     2 |   6.000 ms |   3.000 ms |   3.900 ms |   3.980 ms |   4.000 ms |\n\
     +--------+-------+------------+------------+------------+------------+------------+"
  in
  Alcotest.(check string)
    "deterministic sorted summary" expected
    (Format.asprintf "%a" Mccm_obs.Metric.pp s)

(* ------------------------------------------------------- Prometheus *)

let test_prometheus_render () =
  let s =
    {
      Mccm_obs.Metric.counters = [ ("serve.requests", 5) ];
      gauges = [ ("serve.queue.depth", 3.0) ];
      histograms =
        [
          ( "serve.evaluate.latency",
            {
              Mccm_obs.Metric.count = 2;
              sum = 0.75;
              min = 0.25;
              max = 0.5;
              samples = [| 0.25; 0.5 |];
            } );
        ];
    }
  in
  let text =
    Mccm_obs.Prometheus.render ~extra_counters:[ ("completed", 7) ]
      ~extra_gauges:[ ("uptime_seconds", 12.5) ]
      s
  in
  let has line = List.mem line (String.split_on_char '\n' text) in
  checkb "counter typed" true (has "# TYPE mccm_serve_requests counter");
  checkb "counter value" true (has "mccm_serve_requests 5");
  checkb "extra counter" true (has "mccm_completed 7");
  checkb "gauge" true (has "mccm_serve_queue_depth 3");
  checkb "extra gauge" true (has "mccm_uptime_seconds 12.5");
  checkb "summary type" true
    (has "# TYPE mccm_serve_evaluate_latency summary");
  (* 0.375 = (0.25 + 0.5) / 2 is exactly representable, so the value
     prints cleanly; the label must be the literal "0.5", not a %.17g
     rendering of the float *)
  checkb "quantile label is literal" true
    (has "mccm_serve_evaluate_latency{quantile=\"0.5\"} 0.375");
  checkb "sum" true (has "mccm_serve_evaluate_latency_sum 0.75");
  checkb "count" true (has "mccm_serve_evaluate_latency_count 2");
  checkb "ends with newline" true
    (String.length text > 0 && text.[String.length text - 1] = '\n')

(* ------------------------------------------------------ Chrome trace *)

let test_golden_chrome_trace () =
  let events =
    [
      {
        Mccm_obs.Span.name = "explore";
        cat = "cli";
        ts_ns = 1_000;
        dur_ns = 5_500;
        tid = 0;
        depth = 0;
        args = [];
      };
      {
        Mccm_obs.Span.name = "eval";
        cat = "mccm";
        ts_ns = 2_500;
        dur_ns = 1_250;
        tid = 0;
        depth = 1;
        args = [ ("designs", "3") ];
      };
    ]
  in
  let expected =
    "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n\
     {\"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": 1.000, \"dur\": \
     5.500, \"name\": \"explore\", \"cat\": \"cli\"},\n\
     {\"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": 2.500, \"dur\": \
     1.250, \"name\": \"eval\", \"cat\": \"mccm\", \"args\": \
     {\"designs\": \"3\"}}\n\
     ]}\n"
  in
  Alcotest.(check string)
    "golden trace document" expected
    (Mccm_obs.Chrome_trace.to_string events)

(* ------------------------------------------- evaluator counter cross *)

let test_session_counters_match () =
  reset_off ();
  Mccm_obs.enable ();
  let model = Cnn.Model_zoo.mobilenet_v2 () in
  let board = Platform.Board.vcu108 in
  let session = Mccm.Eval_session.create model board in
  let archs =
    [
      Arch.Baselines.segmented ~ces:2 model;
      Arch.Baselines.segmented ~ces:3 model;
      Arch.Baselines.hybrid ~ces:4 model;
      Arch.Baselines.segmented ~ces:2 model (* repeat: segment-table hits *);
    ]
  in
  List.iter (fun a -> ignore (Mccm.Eval_session.metrics session a)) archs;
  let st = Mccm.Eval_session.stats session in
  Mccm_obs.disable ();
  check "evaluations" st.Mccm.Eval_session.evaluations
    (counter_value "session.evaluations");
  let sh, sm = st.Mccm.Eval_session.seg_single in
  check "single-CE segment hits" sh (counter_value "seg.single.hit");
  check "single-CE segment misses" sm (counter_value "seg.single.miss");
  let ph, pm = st.Mccm.Eval_session.seg_pipelined in
  check "pipelined segment hits" ph (counter_value "seg.pipelined.hit");
  check "pipelined segment misses" pm (counter_value "seg.pipelined.miss");
  check "planning-floor hits" st.Mccm.Eval_session.plan_hits
    (counter_value "plan.floor.hit");
  check "planning-floor misses" st.Mccm.Eval_session.plan_misses
    (counter_value "plan.floor.miss");
  reset_off ()

(* ------------------------------------------------------------ suite *)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_parallel_counters; prop_merge_commutative; prop_merge_associative;
      prop_json_roundtrip; prop_delta_merge_inverse; prop_span_nesting;
    ]

let () =
  Alcotest.run "obs"
    [
      ( "control",
        [ Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop ]
      );
      ( "metric",
        [
          Alcotest.test_case "histogram snapshot" `Quick
            test_histogram_snapshot;
          Alcotest.test_case "gauge update_max" `Quick test_gauge_update_max;
          Alcotest.test_case "golden summary rendering" `Quick
            test_golden_summary;
        ] );
      ( "flight",
        [
          Alcotest.test_case "flight-only gating" `Quick
            test_flight_only_gating;
          Alcotest.test_case "concurrent recording is exact" `Quick
            test_flight_concurrent_exact;
          Alcotest.test_case "slow-request retention" `Quick
            test_flight_slow_retention;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "text-format rendering" `Quick
            test_prometheus_render;
        ] );
      ( "trace",
        [
          Alcotest.test_case "golden Chrome trace" `Quick
            test_golden_chrome_trace;
        ] );
      ( "integration",
        [
          Alcotest.test_case "session counters match stats" `Quick
            test_session_counters_match;
        ] );
      ("properties", properties);
    ]
