(* search-res152: fixed-CE-count search queries on ResNet152.

   Closed loop, one caller, one domain.  A query runs
   [Dse.Enumerate.exhaustive_best] with the default strategy (best-first
   on one domain, what [mccm enumerate] runs) over the first
   [max_specs] specs of a CE count, then [Dse.Enumerate.local_search]
   from the winner.  Before timing, one untimed scan per (board, CE
   count) fills the process-global builder memos, which no session owns
   and which a cold process would spend most of a small query filling;
   each query is then forked from that state with its own cold session,
   so its time is the search and its session's memo traffic.

   Queries cycle through eight classes in a seeded order: one
   throughput query on each board, four latency queries on VCU108 and
   two on ZCU102.  VCU108 is where the bounds prune on the throughput
   objective, ZCU102 where they barely prune.  A latency query climbs
   7-9 local-search steps and a throughput query 1-3, so the two
   objectives form separate clusters of query time; with this mix the
   median falls in the middle of the VCU108 latency cluster instead of
   in a gap between clusters. *)

let classes =
  [|
    (Platform.Board.vcu108, `Throughput);
    (Platform.Board.zcu102, `Throughput);
    (Platform.Board.vcu108, `Latency);
    (Platform.Board.vcu108, `Latency);
    (Platform.Board.vcu108, `Latency);
    (Platform.Board.vcu108, `Latency);
    (Platform.Board.zcu102, `Latency);
    (Platform.Board.zcu102, `Latency);
  |]

let boards = [ Platform.Board.vcu108; Platform.Board.zcu102 ]
let ce_range = (8, 10)
let specs_range = (120, 160)

type query = {
  board : Platform.Board.t;
  objective : Dse.Enumerate.objective;
  ces : int;
  max_specs : int;
}

let query ~seed i =
  let cycle = i / Array.length classes in
  let order = Array.init (Array.length classes) Fun.id in
  Util.Prng.shuffle_in_place
    (Util.Prng.create ~seed:(Int64.of_int ((seed * 7919) + cycle)))
    order;
  let board, objective = classes.(order.(i mod Array.length classes)) in
  let rng = Util.Prng.create ~seed:(Int64.of_int ((seed * 1_000_003) + i)) in
  let ces = Util.Prng.int_in_range rng ~lo:(fst ce_range) ~hi:(snd ce_range) in
  let max_specs = Util.Prng.int_in_range rng ~lo:(fst specs_range) ~hi:(snd specs_range) in
  { board; objective; ces; max_specs }

let describe q =
  Printf.sprintf "%s %s ces=%d specs=%d" q.board.Platform.Board.name
    (match q.objective with `Throughput -> "throughput" | `Latency -> "latency")
    q.ces q.max_specs

let score objective (m : Mccm.Metrics.t) =
  if not m.Mccm.Metrics.feasible then neg_infinity
  else
    match objective with
    | `Throughput -> m.Mccm.Metrics.throughput_ips
    | `Latency -> -.m.Mccm.Metrics.latency_s

type setup = {
  model : Cnn.Model.t;
  sessions : (string * Mccm.Eval_session.t) list;
  bounds : (string * Dse.Bounds.t) list;
}

let setup () =
  let model = Cnn.Model_zoo.resnet152 () in
  let sessions =
    List.map (fun b -> (b.Platform.Board.name, Mccm.Eval_session.create model b)) boards
  in
  let bounds =
    List.map
      (fun (name, s) ->
        let table = Option.get (Mccm.Eval_session.table s) in
        let b = Dse.Bounds.create table (Mccm.Eval_session.board s) in
        for ces = fst ce_range to snd ce_range do
          ignore (Dse.Bounds.context b ~ces)
        done;
        (name, b))
      sessions
  in
  { model; sessions; bounds }

let session st q = List.assoc q.board.Platform.Board.name st.sessions

let warm_up st =
  List.iter
    (fun board ->
      for ces = fst ce_range to snd ce_range do
        ignore
          (Dse.Enumerate.exhaustive_best ~max_specs:(snd specs_range)
             ~session:(Mccm.Eval_session.create st.model board)
             ~strategy:`Scan ~prune:false ~objective:`Throughput ~ces st.model board)
      done)
    boards

type window = {
  q : query;
  answer_s : float;
  exhaustive_s : float;
  local_search_s : float;
  stats : Dse.Enumerate.search_stats;
  winner : Arch.Custom.spec option;
  ok : bool;
  hwm_mb : float;
  gc : Forkrun.gc;
  session_stats : Mccm.Eval_session.stats;
}

let now_s = Windows.now_s

let same_winner a b =
  match (a, b) with
  | Some (a : Dse.Explore.evaluated), Some (b : Dse.Explore.evaluated) ->
    a.Dse.Explore.spec = b.Dse.Explore.spec && compare a.Dse.Explore.metrics b.Dse.Explore.metrics = 0
  | None, None -> true
  | _ -> false

type wrap = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }

(* One query; [wrap] times the two calls (a no-op when untraced).  The
   reference scan runs after the timed part. *)
let answer ?(wrap = untraced) st q =
  let span = wrap.span in
  let session = session st q in
  let g0 = Gc.quick_stat () in
  let t0 = now_s () in
  let best, stats =
    span "dse.exhaustive_best" (fun () ->
        Dse.Enumerate.exhaustive_best ~max_specs:q.max_specs ~session ~objective:q.objective
          ~ces:q.ces st.model q.board)
  in
  let t1 = now_s () in
  ignore
    (span "dse.local_search" (fun () ->
         match best with
         | Some b ->
           Dse.Enumerate.local_search ~objective:(score q.objective) ~session st.model q.board
             b.Dse.Explore.spec
         | None -> []));
  let t2 = now_s () in
  let gc = Forkrun.gc_delta g0 (Gc.quick_stat ()) in
  let hwm_mb = Forkrun.vm_hwm_mb () in
  let session_stats = Mccm.Eval_session.stats session in
  let reference, _ =
    Dse.Enumerate.exhaustive_best ~max_specs:q.max_specs ~session ~strategy:`Scan ~prune:false
      ~objective:q.objective ~ces:q.ces st.model q.board
  in
  {
    q;
    answer_s = t2 -. t0;
    exhaustive_s = t1 -. t0;
    local_search_s = t2 -. t1;
    stats;
    winner = Option.map (fun (b : Dse.Explore.evaluated) -> b.Dse.Explore.spec) best;
    ok = same_winner best reference;
    hwm_mb;
    gc;
    session_stats;
  }

let probe ~trace =
  let t0 = now_s () in
  let model = Cnn.Model_zoo.resnet152 () in
  let t1 = now_s () in
  let table_s =
    if trace then begin
      let t = now_s () in
      ignore (Sys.opaque_identity (Cnn.Table.of_model model));
      now_s () -. t
    end
    else 0.0
  in
  List.iter
    (fun b ->
      let s = Mccm.Eval_session.create model b in
      let bounds = Dse.Bounds.create (Option.get (Mccm.Eval_session.table s)) b in
      for ces = fst ce_range to snd ce_range do
        ignore (Sys.opaque_identity (Dse.Bounds.context bounds ~ces))
      done)
    boards;
  Printf.printf "ready %.9f %.9f\n%!" (t1 -. t0) table_s

let account report ws errors =
  List.iter (fun w -> Report.attempt report ~failed:(if w.ok then 0 else 1) 1) ws;
  List.iter
    (fun e ->
      Report.note report "query failed: %s" e;
      Report.attempt report ~failed:1 1)
    errors

let run_untraced report ~seed ~seconds =
  let probes = Windows.setup_probes ~k:5 [ "--setup-probe"; "search-res152" ] in
  let st = setup () in
  warm_up st;
  let o =
    Windows.alternate ~seconds ~min_windows:6 ~timed:(fun w -> w.answer_s) (fun i ->
        answer st (query ~seed i))
  in
  let ws = Windows.ok o in
  account report ws (Windows.errors o);
  List.iter (fun w -> Printf.printf "query: %s  answer_s=%.4f\n" (describe w.q) w.answer_s) ws;
  let f = Calib.run_factor o.Windows.unit_times in
  let times = Array.of_list (List.map (fun w -> w.answer_s) ws) in
  let raw = Pstats.median times in
  Report.note report "calibration factor %.4f from %d units" f (Array.length o.Windows.unit_times);
  Report.add report ~raw ~samples:(Array.length times) "answer_s_p50" "s" (Calib.time_ f raw);
  (* A query answers for every spec of its slice. *)
  let rates = Array.of_list (List.map (fun w -> float_of_int w.q.max_specs /. w.answer_s) ws) in
  let raw = Pstats.median rates in
  Report.add report ~raw ~samples:(Array.length rates) "designs_per_s" "1/s" (Calib.rate f raw);
  Windows.setup_metric report ~f probes;
  Report.add report ~samples:(List.length ws) "peak_rss_mb" "MiB"
    (Pstats.median (Array.of_list (List.map (fun w -> w.hwm_mb) ws)))

(* ---------------------------------------------------------- traced *)

(* Mean time of one partial bound call, over a sweep of prefixes. *)
let bound_us st q =
  let b = List.assoc q.board.Platform.Board.name st.bounds in
  let ctx = Dse.Bounds.context b ~ces:q.ces in
  let n = Cnn.Model.num_layers st.model in
  let calls = ref 0 and acc = ref 0.0 in
  let t0 = now_s () in
  for rep = 1 to 20 do
    for first = 1 to n - 1 do
      let segments = 1 + ((first + rep) mod 4) in
      acc :=
        !acc
        +. Dse.Bounds.partial_throughput_bound ctx ~worst_cycles:0.0 ~first ~segments
        +. Dse.Bounds.partial_latency_bound ctx ~latency_cycles:0.0 ~sum_sqrt_macs:0.0 ~first;
      calls := !calls + 2
    done
  done;
  ignore (Sys.opaque_identity !acc);
  (now_s () -. t0) *. 1e6 /. float_of_int !calls

type traced = { w : window; spans : Spans.span list; bound : float }

let traced_answer st q =
  let spans = Spans.create () in
  let w =
    Spans.with_ spans "dse.query" (fun () ->
        answer ~wrap:{ span = (fun name f -> Spans.with_ spans name f) } st q)
  in
  { w; spans = Spans.spans spans; bound = bound_us st q }

(* The query's slice through the layers' public functions, one call at
   a time, on caches the benchmark owns. *)
let layer_replay st q =
  let spans = Spans.create () in
  let table = Option.get (Mccm.Eval_session.table (session st q)) in
  let cache = Builder.Build.create_cache () and seg = Mccm.Seg_cache.create () in
  List.iter
    (fun spec ->
      let arch = Spans.with_ spans "arch.decode" (fun () -> Arch.Custom.arch_of_spec st.model spec) in
      let built =
        Spans.with_ spans "builder.build" (fun () -> Builder.Build.build ~cache ~table st.model q.board arch)
      in
      ignore (Spans.with_ spans "mccm.model" (fun () -> Mccm.Evaluate.run ~cache:seg ~table built)))
    (Dse.Enumerate.enumerate_specs ~num_layers:(Cnn.Model.num_layers st.model) ~ces:q.ces
       ~max_specs:q.max_specs);
  Spans.spans spans

(* The same slice under [`Scan], from the same starting state. *)
let scan st q =
  let session = session st q in
  let t0 = now_s () in
  let best, _ =
    Dse.Enumerate.exhaustive_best ~max_specs:q.max_specs ~session ~strategy:`Scan
      ~objective:q.objective ~ces:q.ces st.model q.board
  in
  (now_s () -. t0, Option.map (fun (b : Dse.Explore.evaluated) -> b.Dse.Explore.spec) best)

let run_traced report ~seed ~seconds ~trace_dir =
  let probes =
    Windows.setup_probes ~k:3 [ "--setup-probe"; "search-res152"; "--trace"; "1" ]
  in
  let st = setup () in
  warm_up st;
  let recorder = Spans.create () in
  let deadline = now_s () +. seconds in
  let rec loop i acc =
    if i >= 3 && now_s () >= deadline then List.rev acc
    else
      let q = query ~seed i in
      let u = Forkrun.run (fun () -> answer st q) in
      let t = Forkrun.run (fun () -> traced_answer st q) in
      let c = Forkrun.run (fun () -> scan st q) in
      let l = Forkrun.run (fun () -> layer_replay st q) in
      loop (i + 1) ((i, q, u, t, c, l) :: acc)
  in
  let rounds = loop 0 [] in
  let ex = ref [] and ls = ref [] and sc = ref [] and bd = ref [] and ov = ref [] in
  let dec = ref [] and build = ref [] and model = ref [] in
  let enumerated = ref 0 and evaluated = ref 0 and pruned = ref 0 and nodes = ref 0 in
  let seg_h = ref 0 and seg_m = ref 0 and plan_h = ref 0 and plan_m = ref 0 in
  let arch_h = ref 0 and evals = ref 0 and gcs = ref [] in
  List.iter
    (fun (i, q, u, t, c, l) ->
      match (u, t, c, l) with
      | Ok u, Ok t, Ok (scan_s, scan_winner), Ok l ->
        let w = t.w in
        let ok = u.ok && w.ok && u.winner = w.winner && scan_winner = w.winner in
        Report.attempt report ~failed:(if ok then 0 else 1) 1;
        Printf.printf
          "query %d: %s  dse.exhaustive_s=%.4f  dse.scan_s=%.4f  dse.local_search_s=%.4f  \
           evaluated=%d pruned=%d nodes=%d\n"
          i (describe q) w.exhaustive_s scan_s w.local_search_s w.stats.Dse.Enumerate.evaluated
          w.stats.Dse.Enumerate.pruned w.stats.Dse.Enumerate.nodes;
        ex := w.exhaustive_s :: !ex;
        ls := w.local_search_s :: !ls;
        sc := scan_s :: !sc;
        bd := t.bound :: !bd;
        ov := (w.answer_s /. u.answer_s) :: !ov;
        gcs := (u.gc, 1) :: !gcs;
        let s = w.stats in
        enumerated := !enumerated + s.Dse.Enumerate.enumerated;
        evaluated := !evaluated + s.Dse.Enumerate.evaluated;
        pruned := !pruned + s.Dse.Enumerate.pruned;
        nodes := !nodes + s.Dse.Enumerate.nodes;
        let ss = w.session_stats in
        seg_h := !seg_h + ss.Mccm.Eval_session.seg_hits;
        seg_m := !seg_m + ss.Mccm.Eval_session.seg_misses;
        plan_h := !plan_h + ss.Mccm.Eval_session.plan_hits;
        plan_m := !plan_m + ss.Mccm.Eval_session.plan_misses;
        arch_h := !arch_h + ss.Mccm.Eval_session.arch_hits;
        evals := !evals + ss.Mccm.Eval_session.evaluations;
        Spans.import recorder t.spans;
        let durations name =
          List.filter_map
            (fun s -> if s.Spans.name = name then Some (float_of_int (Spans.duration_ns s) /. 1e3) else None)
            l
        in
        dec := durations "arch.decode" @ !dec;
        build := durations "builder.build" @ !build;
        model := durations "mccm.model" @ !model;
        Spans.import recorder l
      | _ ->
        List.iter
          (function Error e -> Report.note report "query %d failed: %s" i e | Ok () -> ())
          [ Result.map ignore u; Result.map ignore t; Result.map ignore c; Result.map ignore l ];
        Report.attempt report ~failed:1 1)
    rounds;
  let arr l = Array.of_list l in
  let n = List.length !ex in
  let ratio h m = if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m) in
  Windows.cnn_metrics report probes;
  let dec = arr !dec and build = arr !build and model = arr !model in
  let p50 a = Pstats.percentile a ~p:50.0 and p99 a = Pstats.percentile a ~p:99.0 in
  Report.add report ~samples:(Array.length dec) "arch.decode_us" "us" (p50 dec);
  Report.add report ~samples:(Array.length build) "builder.build_us_p50" "us" (p50 build);
  Report.add report ~samples:(Array.length build) "builder.build_us_p99" "us" (p99 build);
  Report.add report ~samples:(Array.length model) "mccm.model_us_p50" "us" (p50 model);
  Report.add report ~samples:(Array.length model) "mccm.model_us_p99" "us" (p99 model);
  Report.add report ~samples:(!plan_h + !plan_m) "builder.plan_hit_ratio" "ratio" (ratio !plan_h !plan_m);
  Report.add report ~samples:(!seg_h + !seg_m) "mccm.seg_hit_ratio" "ratio" (ratio !seg_h !seg_m);
  Report.add report ~samples:!evals "mccm.arch_hit_ratio" "ratio" (ratio !arch_h (!evals - !arch_h));
  Report.add report ~samples:1 "mccm.evaluations" "count" (float_of_int !evals);
  Report.add report ~samples:n "dse.exhaustive_s" "s" (Pstats.median (arr !ex));
  Report.add report ~samples:n "dse.local_search_s" "s" (Pstats.median (arr !ls));
  Report.add report ~samples:n "dse.scan_s" "s" (Pstats.median (arr !sc));
  Report.add report ~samples:1 "dse.enumerated" "count" (float_of_int !enumerated);
  Report.add report ~samples:1 "dse.evaluated" "count" (float_of_int !evaluated);
  Report.add report ~samples:1 "dse.pruned" "count" (float_of_int !pruned);
  Report.add report ~samples:1 "dse.nodes" "count" (float_of_int !nodes);
  Report.add report ~samples:!enumerated "dse.prune_ratio" "ratio" (ratio !pruned (!enumerated - !pruned));
  Report.add report ~samples:n "dse.bound_us" "us" (Pstats.median (arr !bd));
  Report.add report ~samples:n "obs.trace_overhead" "ratio" (Pstats.median (arr !ov) -. 1.0);
  Windows.gc_metrics report !gcs;
  let spans = Spans.spans recorder in
  Spans.write (Filename.concat trace_dir "search-res152.spans.jsonl") spans;
  spans
