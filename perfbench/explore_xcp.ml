(* explore-xcp: the paper's Fig. 10 sweep on Xception / VCU110.

   Closed loop, one caller, one domain.  A window is one consecutive
   [Dse.Explore.run] call per CE count of the paper's sweep (2-11), each
   drawing [samples] random custom designs, all sharing one
   [Eval_session].  Every window holds the same number of designs of
   each CE count, so windows differ in which designs they draw, not in
   how hard they are on average.  Every window is forked from the state
   set-up left, so each starts as cold as the first: most of its time
   is memo misses in the builder's plan and parallelism search and in
   the block models. *)

let board = Platform.Board.vcu110
let ce_counts = Arch.Baselines.default_ce_counts
let calls = List.length ce_counts
let samples = 4

type setup = {
  model : Cnn.Model.t;
  session : Mccm.Eval_session.t;
  table : Cnn.Table.t;  (* the benchmark's own, for the traced layer calls *)
}

let setup () =
  let model = Cnn.Model_zoo.xception () in
  let session = Mccm.Eval_session.create model board in
  { model; session; table = Cnn.Table.of_model model }

(* Window [i]'s calls: (seed, CE count) per call. *)
let plan ~seed i = List.combine (Windows.seeds ~seed i calls) ce_counts

(* The designs [Dse.Explore.run ~seed ~ce_counts:[ces] ~samples] draws,
   in draw order. *)
let draws model (seed, ces) =
  let rng = Util.Prng.create ~seed in
  let num_layers = Cnn.Model.num_layers model in
  Array.init samples (fun _ -> Dse.Space.random_spec rng ~num_layers ~ce_counts:[ ces ])

let distinct model plan =
  let seen = Hashtbl.create 64 in
  List.iter (fun c -> Array.iter (fun d -> Hashtbl.replace seen d ()) (draws model c)) plan;
  Hashtbl.length seen

type window = {
  elapsed_s : float;
  call_s : float array;  (* each [Dse.Explore.run] call, in plan order *)
  distinct : int;
  mismatches : int;
  hwm_mb : float;
  gc : Forkrun.gc;
  results : (Arch.Custom.spec * Mccm.Metrics.t) list;  (* feasible, distinct *)
}

let now_s = Windows.now_s

(* One untraced window; the check against an unmemoized evaluation
   runs after the timed part. *)
let window st ~seed i =
  let plan = plan ~seed i in
  let g0 = Gc.quick_stat () in
  let t0 = now_s () in
  let timed =
    List.map
      (fun (s, ces) ->
        let c0 = now_s () in
        let r = Dse.Explore.run ~seed:s ~ce_counts:[ ces ] ~session:st.session ~samples st.model board in
        (r, now_s () -. c0))
      plan
  in
  let elapsed_s = now_s () -. t0 in
  let rs = List.map fst timed in
  let gc = Forkrun.gc_delta g0 (Gc.quick_stat ()) in
  let hwm_mb = Forkrun.vm_hwm_mb () in
  let results =
    List.concat_map
      (fun r ->
        List.map
          (fun (e : Dse.Explore.evaluated) -> (e.Dse.Explore.spec, e.Dse.Explore.metrics))
          r.Dse.Explore.evaluated)
      rs
  in
  let mismatches =
    List.length
      (List.filter
         (fun (spec, m) ->
           let reference =
             Mccm.Evaluate.metrics st.model board (Arch.Custom.arch_of_spec st.model spec)
           in
           compare reference m <> 0)
         results)
  in
  {
    elapsed_s;
    call_s = Array.of_list (List.map snd timed);
    distinct = distinct st.model plan;
    mismatches;
    hwm_mb;
    gc;
    results;
  }

let probe ~trace =
  let t0 = now_s () in
  let model = Cnn.Model_zoo.xception () in
  let t1 = now_s () in
  let table_s =
    if trace then begin
      let t = now_s () in
      ignore (Sys.opaque_identity (Cnn.Table.of_model model));
      now_s () -. t
    end
    else 0.0
  in
  ignore (Sys.opaque_identity (Mccm.Eval_session.create model board));
  Printf.printf "ready %.9f %.9f\n%!" (t1 -. t0) table_s

let account report o =
  let ws = Windows.ok o in
  List.iter (fun w -> Report.attempt report ~failed:w.mismatches w.distinct) ws;
  List.iter
    (fun e ->
      Report.note report "window failed: %s" e;
      Report.attempt report ~failed:(calls * samples) (calls * samples))
    (Windows.errors o)

let run_untraced report ~seed ~seconds =
  let probes = Windows.setup_probes ~k:15 [ "--setup-probe"; "explore-xcp" ] in
  let st = setup () in
  let o =
    Windows.alternate ~seconds ~min_windows:5 ~timed:(fun w -> w.elapsed_s) (fun i ->
        (* The checked designs stay in the child: kept here, they grew
           this process's heap with every window, and with it the RSS of
           every later child, so [peak_rss_mb] rose on a faster box. *)
        { (window st ~seed i) with results = [] })
  in
  account report o;
  let ws = Windows.ok o in
  let f = Calib.run_factor o.Windows.unit_times in
  let rates = Array.of_list (List.map (fun w -> float_of_int w.distinct /. w.elapsed_s) ws) in
  let raw = Pstats.median rates in
  Report.note report "calibration factor %.4f from %d units" f (Array.length o.Windows.unit_times);
  Report.add report ~raw ~samples:(Array.length rates) "designs_per_s" "1/s" (Calib.rate f raw);
  (* An answer here is one [Dse.Explore.run] call: [samples] designs of
     one CE count.  Every window makes the same calls, one per CE count. *)
  let calls = Array.concat (List.map (fun w -> w.call_s) ws) in
  let raw = Pstats.median calls in
  Report.add report ~raw ~samples:(Array.length calls) "answer_s_p50" "s" (Calib.time_ f raw);
  Windows.setup_metric report ~f probes;
  Report.add report ~samples:(List.length ws) "peak_rss_mb" "MiB"
    (Pstats.median (Array.of_list (List.map (fun w -> w.hwm_mb) ws)))

(* ---------------------------------------------------------- traced *)

type layer_window = {
  l_spans : Spans.span list;
  l_metrics : Mccm.Metrics.t array;  (* per draw *)
  l_plan : int * int;                (* planning-floor hits, misses *)
  l_seg : int * int;
}

(* The sweep replayed through the layers' public functions, one call at
   a time, on caches the benchmark owns. *)
let layer_window st ~seed i =
  let spans = Spans.create () in
  let cache = Builder.Build.create_cache () and seg = Mccm.Seg_cache.create () in
  let ms =
    Spans.with_ spans "dse.window" (fun () ->
        List.concat_map
          (fun s ->
            Array.to_list
              (Array.map
                 (fun spec ->
                   let arch =
                     Spans.with_ spans "arch.decode" (fun () -> Arch.Custom.arch_of_spec st.model spec)
                   in
                   let built =
                     Spans.with_ spans "builder.build" (fun () ->
                         Builder.Build.build ~cache ~table:st.table st.model board arch)
                   in
                   let ev =
                     Spans.with_ spans "mccm.model" (fun () ->
                         Mccm.Evaluate.run ~cache:seg ~table:st.table built)
                   in
                   ev.Mccm.Evaluate.metrics)
                 (draws st.model s)))
          (plan ~seed i))
  in
  let pc = Builder.Build.plan_cache cache in
  {
    l_spans = Spans.spans spans;
    l_metrics = Array.of_list ms;
    l_plan = (Builder.Buffer_alloc.cache_hits pc, Builder.Buffer_alloc.cache_misses pc);
    l_seg = (Mccm.Seg_cache.hits seg, Mccm.Seg_cache.misses seg);
  }

type session_window = {
  s_spans : Spans.span list;
  s_metrics : Mccm.Metrics.t array;
  s_stats : Mccm.Eval_session.stats;
  s_wall : float;
}

(* The same draws through the set-up session, one [metrics] call each. *)
let session_window st ~seed i =
  let spans = Spans.create () in
  let t0 = now_s () in
  let ms =
    Spans.with_ spans "dse.window" (fun () ->
        List.concat_map
          (fun s ->
            Array.to_list
              (Array.map
                 (fun spec ->
                   let arch =
                     Spans.with_ spans "arch.decode" (fun () -> Arch.Custom.arch_of_spec st.model spec)
                   in
                   Spans.with_ spans "mccm.session" (fun () ->
                       Mccm.Eval_session.metrics st.session arch))
                 (draws st.model s)))
          (plan ~seed i))
  in
  {
    s_spans = Spans.spans spans;
    s_metrics = Array.of_list ms;
    s_stats = Mccm.Eval_session.stats st.session;
    s_wall = now_s () -. t0;
  }

let durations_us name spans =
  Array.of_list
    (List.filter_map
       (fun s -> if s.Spans.name = name then Some (float_of_int (Spans.duration_ns s) /. 1e3) else None)
       spans)

let run_traced report ~seed ~seconds ~trace_dir =
  let probes = Windows.setup_probes ~k:3 [ "--setup-probe"; "explore-xcp"; "--trace"; "1" ] in
  let st = setup () in
  let recorder = Spans.create () in
  let deadline = now_s () +. seconds in
  let rec loop i acc =
    if i >= 3 && now_s () >= deadline then List.rev acc
    else
      let u = Forkrun.run (fun () -> window st ~seed i) in
      let s = Forkrun.run (fun () -> session_window st ~seed i) in
      let l = Forkrun.run (fun () -> layer_window st ~seed i) in
      loop (i + 1) ((i, u, s, l) :: acc)
  in
  let rounds = loop 0 [] in
  let ok =
    List.filter_map
      (function
        | i, Ok u, Ok s, Ok l -> Some (i, u, s, l)
        | _, u, s, l ->
          List.iter
            (function Error e -> Report.note report "window failed: %s" e | Ok _ -> ())
            [ Result.map ignore u; Result.map ignore s; Result.map ignore l ];
          Report.attempt report ~failed:(calls * samples) (calls * samples);
          None)
      rounds
  in
  let dec = ref [] and build = ref [] and model = ref [] and sess = ref [] and self = ref [] in
  let plan_h = ref 0 and plan_m = ref 0 and builds = ref 0 in
  let seg_h = ref 0 and seg_m = ref 0 and arch_h = ref 0 and evals = ref 0 in
  let overhead = ref [] and sampled = ref 0 and dist = ref 0 in
  List.iter
    (fun (i, u, s, l) ->
      let b = durations_us "builder.build" l.l_spans and m = durations_us "mccm.model" l.l_spans in
      let se = durations_us "mccm.session" s.s_spans in
      dec := durations_us "arch.decode" l.l_spans :: !dec;
      build := b :: !build;
      model := m :: !model;
      sess := se :: !sess;
      self := Array.mapi (fun k t -> t -. b.(k) -. m.(k)) se :: !self;
      builds := !builds + Array.length b;
      plan_h := !plan_h + fst l.l_plan;
      plan_m := !plan_m + snd l.l_plan;
      let ss = s.s_stats in
      seg_h := !seg_h + ss.Mccm.Eval_session.seg_hits;
      seg_m := !seg_m + ss.Mccm.Eval_session.seg_misses;
      arch_h := !arch_h + ss.Mccm.Eval_session.arch_hits;
      evals := !evals + ss.Mccm.Eval_session.evaluations;
      sampled := !sampled + Array.length s.s_metrics;
      dist := !dist + u.distinct;
      overhead := (s.s_wall /. u.elapsed_s) :: !overhead;
      (* Bit-identity: layer calls = session calls per draw, and the
         untraced run's feasible designs = the layer calls' results. *)
      let by_spec = Hashtbl.create 64 in
      let k = ref 0 in
      List.iter
        (fun sd ->
          Array.iter
            (fun spec ->
              Hashtbl.replace by_spec spec l.l_metrics.(!k);
              incr k)
            (draws st.model sd))
        (plan ~seed i);
      let differs a b = if compare a b <> 0 then 1 else 0 in
      let mism =
        Array.fold_left ( + ) 0 (Array.mapi (fun k m -> differs m s.s_metrics.(k)) l.l_metrics)
        + List.fold_left
            (fun acc (spec, m) ->
              acc + match Hashtbl.find_opt by_spec spec with Some m' -> differs m m' | None -> 1)
            0 u.results
      in
      Report.attempt report ~failed:(min u.distinct (mism + u.mismatches)) u.distinct;
      Spans.import recorder l.l_spans;
      Spans.import recorder s.s_spans)
    ok;
  let cat l = Array.concat l in
  let p50 a = Pstats.percentile a ~p:50.0 and p99 a = Pstats.percentile a ~p:99.0 in
  let ratio h m = if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m) in
  Windows.cnn_metrics report probes;
  let dec = cat !dec and build = cat !build and model = cat !model in
  let sess = cat !sess and self = cat !self in
  Report.add report ~samples:(Array.length dec) "arch.decode_us" "us" (p50 dec);
  Report.add report ~samples:(Array.length build) "builder.build_us_p50" "us" (p50 build);
  Report.add report ~samples:(Array.length build) "builder.build_us_p99" "us" (p99 build);
  Report.add report ~samples:1 "builder.builds" "count" (float_of_int !builds);
  Report.add report ~samples:(!plan_h + !plan_m) "builder.plan_hit_ratio" "ratio" (ratio !plan_h !plan_m);
  Report.add report ~samples:(Array.length model) "mccm.model_us_p50" "us" (p50 model);
  Report.add report ~samples:(Array.length model) "mccm.model_us_p99" "us" (p99 model);
  Report.add report ~samples:(Array.length sess) "mccm.session_us_p50" "us" (p50 sess);
  Report.add report ~samples:(Array.length self) "mccm.session_self_us" "us" (p50 self);
  Report.add report ~samples:(!seg_h + !seg_m) "mccm.seg_hit_ratio" "ratio" (ratio !seg_h !seg_m);
  Report.add report ~samples:!evals "mccm.arch_hit_ratio" "ratio" (ratio !arch_h (!evals - !arch_h));
  Report.add report ~samples:1 "mccm.evaluations" "count" (float_of_int !evals);
  Report.add report ~samples:!sampled "dse.dedup_ratio" "ratio"
    (1.0 -. (float_of_int !dist /. float_of_int (max 1 !sampled)));
  let ov = Array.of_list !overhead in
  Report.add report ~samples:(Array.length ov) "obs.trace_overhead" "ratio" (Pstats.median ov -. 1.0);
  Windows.gc_metrics report (List.map (fun (_, u, _, _) -> (u.gc, u.distinct)) ok);
  let spans = Spans.spans recorder in
  Spans.write (Filename.concat trace_dir "explore-xcp.spans.jsonl") spans;
  spans
