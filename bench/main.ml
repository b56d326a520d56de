(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section and times the regeneration of each artifact with
   Bechamel (one Test.make per artifact), plus the headline
   evaluations-per-second measurement behind the paper's 100000x claim.

   Every run also benchmarks the DSE evaluation-session cache (cached
   vs. uncached evals/sec on local-search, exhaustive and random-sweep
   workloads, with a bit-exactness cross-check) and writes the numbers,
   together with per-artifact regeneration times, to a machine-readable
   BENCH_dse.json — the perf trajectory this and future PRs gate on
   (see check_bench.ml).

   Usage:
     dune exec bench/main.exe                 # all artifacts + timings
     dune exec bench/main.exe -- table4 fig5  # selected artifacts
     dune exec bench/main.exe -- --full       # Fig. 10 with 100000 samples
     dune exec bench/main.exe -- --no-bench   # skip the Bechamel timings
     dune exec bench/main.exe -- --fig10-samples 200   # shrink fig10
     dune exec bench/main.exe -- --json out.json       # BENCH_dse target *)

(* (artifact name, wall-clock seconds), in execution order. *)
let artifact_times : (string * float) list ref = ref []

let section name f =
  Format.printf "@.===================== %s =====================@.@." name;
  let t0 = Unix.gettimeofday () in
  f ();
  artifact_times := !artifact_times @ [ (name, Unix.gettimeofday () -. t0) ];
  Format.printf "@."

let fig10_samples = ref 5000

let artifacts =
  [
    ("table1", fun () -> Experiments.Table1.print (Experiments.Table1.run ()));
    ("table2", Experiments.Setup_tables.print_table2);
    ("table3", Experiments.Setup_tables.print_table3);
    ("table4", fun () -> Experiments.Table4.print (Experiments.Table4.run ()));
    ("table5", fun () -> Experiments.Table5.print (Experiments.Table5.run ()));
    ("fig5", fun () -> Experiments.Tradeoff.print (Experiments.Tradeoff.fig5 ()));
    ("fig6", fun () -> Experiments.Fig6.print (Experiments.Fig6.run ()));
    ("fig7", fun () -> Experiments.Fig7.print (Experiments.Fig7.run ()));
    ("fig8", fun () -> Experiments.Tradeoff.print (Experiments.Tradeoff.fig8 ()));
    ("fig9", fun () -> Experiments.Fig9.print (Experiments.Fig9.run ()));
    ( "fig10",
      fun () ->
        Experiments.Fig10.print
          (Experiments.Fig10.run ~samples:!fig10_samples ()) );
    ( "ablations",
      fun () -> Experiments.Ablations.print (Experiments.Ablations.run ()) );
    ( "sensitivity",
      fun () ->
        Experiments.Sensitivity.print (Experiments.Sensitivity.run ()) );
    ( "extremes",
      fun () -> Experiments.Extremes.print (Experiments.Extremes.run ()) );
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel timings: one Test.make per artifact (how long regenerating
   it takes) and the per-design evaluation speed (the quantity behind
   the paper's 100000x-faster-than-synthesis claim). *)

let speed_tests () =
  let open Bechamel in
  let xcp = Cnn.Model_zoo.xception () in
  let res50 = Cnn.Model_zoo.resnet50 () in
  let per_design =
    [
      Test.make ~name:"evaluate/Segmented4-XCp-VCU110"
        (Staged.stage (fun () ->
             Mccm.Evaluate.metrics xcp Platform.Board.vcu110
               (Arch.Baselines.segmented ~ces:4 xcp)));
      Test.make ~name:"evaluate/Hybrid7-XCp-VCU110"
        (Staged.stage (fun () ->
             Mccm.Evaluate.metrics xcp Platform.Board.vcu110
               (Arch.Baselines.hybrid ~ces:7 xcp)));
      Test.make ~name:"evaluate/SegmentedRR2-Res50-ZC706"
        (Staged.stage (fun () ->
             Mccm.Evaluate.metrics res50 Platform.Board.zc706
               (Arch.Baselines.segmented_rr ~ces:2 res50)));
      Test.make ~name:"surrogate/Hybrid7-XCp-VCU110"
        (Staged.stage (fun () ->
             Sim.Simulate.evaluate xcp Platform.Board.vcu110
               (Arch.Baselines.hybrid ~ces:7 xcp)));
    ]
  in
  let artifact_tests =
    [
      Test.make ~name:"artifact/table1"
        (Staged.stage (fun () -> ignore (Experiments.Table1.run ())));
      Test.make ~name:"artifact/fig5"
        (Staged.stage (fun () -> ignore (Experiments.Tradeoff.fig5 ())));
      Test.make ~name:"artifact/fig6"
        (Staged.stage (fun () -> ignore (Experiments.Fig6.run ())));
      Test.make ~name:"artifact/fig7"
        (Staged.stage (fun () -> ignore (Experiments.Fig7.run ())));
      Test.make ~name:"artifact/fig8"
        (Staged.stage (fun () -> ignore (Experiments.Tradeoff.fig8 ())));
      Test.make ~name:"artifact/fig9"
        (Staged.stage (fun () -> ignore (Experiments.Fig9.run ())));
      Test.make ~name:"artifact/fig10-100designs"
        (Staged.stage (fun () ->
             ignore (Experiments.Fig10.run ~samples:100 ())));
    ]
  in
  Test.make_grouped ~name:"mccm" (per_design @ artifact_tests)

let run_bechamel () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) () in
  let raw =
    Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] (speed_tests ())
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> t
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  let table =
    Util.Table.create ~title:"Bechamel timings (monotonic clock)"
      ~columns:[ ("benchmark", Util.Table.Left); ("time/run", Util.Table.Right) ]
      ()
  in
  List.iter
    (fun (name, ns) ->
      Util.Table.add_row table
        [ name; Format.asprintf "%a" Util.Units.pp_seconds (ns *. 1e-9) ])
    rows;
  Util.Table.print table;
  (* The paper's speed claim: ~6.3 ms per design vs ~1 hour of synthesis. *)
  match List.assoc_opt "mccm/evaluate/Hybrid7-XCp-VCU110" rows with
  | Some ns when not (Float.is_nan ns) ->
    let per_design_s = ns *. 1e-9 in
    Format.printf
      "@.One MCCM evaluation takes %a; against the paper's ~1 h synthesis \
       per design that is a %.0fx speedup (paper: ~100000x at 6.3 ms per \
       design).@."
      Util.Units.pp_seconds per_design_s
      (3600.0 /. per_design_s)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* DSE evaluation-session benchmark: the same workload run through an
   uncached session (every request recomputed) and a memoized one, with
   the results compared bit for bit.  The cached/uncached evals-per-sec
   pair per workload is the number BENCH_dse.json records and CI gates
   on. *)

type dse_row = {
  workload : string;
  evals : int;          (* evaluation requests per arm (identical) *)
  uncached_s : float;
  cached_s : float;
  traced_s : float;     (* cached arm re-run with Mccm_obs fully on *)
  seg_hit_rate : float;
  plan_hit_rate : float;
  phases : (string * float) list;
      (* instrumented phase -> total seconds inside it (traced arm) *)
}

let evals_per_sec n s = float_of_int n /. Float.max 1e-9 s
let speedup_of r = r.uncached_s /. Float.max 1e-9 r.cached_s
let trace_overhead_of r = (r.traced_s /. Float.max 1e-9 r.cached_s) -. 1.0

let bench_dse () =
  let model = Cnn.Model_zoo.mobilenet_v2 () in
  let board = Platform.Board.vcu108 in
  let num_layers = Cnn.Model.num_layers model in
  let objective (m : Mccm.Metrics.t) = m.Mccm.Metrics.throughput_ips in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Each workload takes the session to evaluate through and returns a
     comparable payload; both arms must agree exactly. *)
  let arm run memoize =
    (* Every arm starts from a compacted heap: the traced arm retains
       its span events, so garbage left by the arm before it would
       otherwise swing the traced/cached ratio the gate reads. *)
    Gc.compact ();
    let session = Mccm.Eval_session.create ~memoize model board in
    let payload, seconds = time (fun () -> run session) in
    ((Mccm.Eval_session.stats session).Mccm.Eval_session.evaluations,
     payload, seconds)
  in
  (* [evals] overrides the row's request count when not every request
     reaches the session: [Dse.Explore.run] evaluates each distinct draw
     once, and its row counts all draws, as its baseline does. *)
  let workload ?evals name run =
    (* Untimed warm-up pass: the parallelism solver's memo is
       process-wide, so it is equally warm for both arms and only
       session caching is measured. *)
    ignore (arm run false);
    let un_evals, un_payload, un_s = arm run false in
    (* The traced-vs-cached ratio below is a gate, so both arms take
       the best of three interleaved runs: a single wall-clock sample
       of a sub-second arm jitters (GC slices, scheduling) by more than
       the overhead being measured, and minima are stable estimators of
       the true cost.  The traced arm is the same cached workload with
       spans and metrics fully on; its metric snapshot supplies the
       cache hit rates and per-phase time breakdown recorded in the
       JSON. *)
    let ca_evals, ca_payload, ca_s = ref 0, ref un_payload, ref infinity in
    let tr_evals, tr_payload, tr_s = ref 0, ref un_payload, ref infinity in
    let snap = ref (Mccm_obs.Metric.snapshot ()) in
    for _ = 1 to 3 do
      let e, p, s = arm run true in
      ca_evals := e;
      ca_payload := p;
      ca_s := Float.min !ca_s s;
      Mccm_obs.enable ~tracing:true ();
      Mccm_obs.reset ();
      let e, p, s = arm run true in
      tr_evals := e;
      tr_payload := p;
      tr_s := Float.min !tr_s s;
      snap := Mccm_obs.Metric.snapshot ();
      Mccm_obs.disable ();
      Mccm_obs.reset ()
    done;
    let ca_evals, ca_payload, ca_s = (!ca_evals, !ca_payload, !ca_s) in
    let tr_evals, tr_payload, tr_s = (!tr_evals, !tr_payload, !tr_s) in
    let snap = !snap in
    if un_evals <> ca_evals || un_evals <> tr_evals then
      failwith (name ^ ": arms issued different evaluation counts");
    if un_payload <> ca_payload then
      failwith (name ^ ": cached results are not bit-identical to uncached");
    if un_payload <> tr_payload then
      failwith (name ^ ": traced results are not bit-identical to uncached");
    let c n =
      Option.value ~default:0
        (List.assoc_opt n snap.Mccm_obs.Metric.counters)
    in
    let hist_total n =
      match List.assoc_opt n snap.Mccm_obs.Metric.histograms with
      | Some h -> h.Mccm_obs.Metric.sum
      | None -> 0.0
    in
    let rate hit miss =
      let total = hit + miss in
      if total = 0 then 0.0 else float_of_int hit /. float_of_int total
    in
    {
      workload = name;
      evals = Option.value evals ~default:un_evals;
      uncached_s = un_s;
      cached_s = ca_s;
      traced_s = tr_s;
      seg_hit_rate =
        rate
          (c "seg.single.hit" + c "seg.pipelined.hit")
          (c "seg.single.miss" + c "seg.pipelined.miss");
      plan_hit_rate = rate (c "plan.floor.hit") (c "plan.floor.miss");
      phases =
        List.map
          (fun (label, span) -> (label, hist_total span))
          [
            ("eval_single_ce", "span.eval.single_ce");
            ("eval_pipelined", "span.eval.pipelined");
            ("build_plan", "span.build.plan");
            ("build_parallelism_select", "span.build.parallelism_select");
          ];
    }
  in
  (* Multi-start refinement: the standard DSE flow this cache targets —
     many short hill climbs whose trajectories overlap heavily in the
     segments (and often the architectures) they evaluate. *)
  let seeds =
    let rng = Util.Prng.create ~seed:7L in
    List.concat_map
      (fun ces ->
        List.init 24 (fun _ ->
            Dse.Space.random_spec rng ~num_layers ~ce_counts:[ ces ]))
      [ 4; 5; 6 ]
  in
  let rows =
    [
      workload "local_search" (fun session ->
          List.concat_map
            (fun seed ->
              Dse.Enumerate.local_search ~objective ~session model board seed)
            seeds);
      workload "exhaustive" (fun session ->
          Dse.Enumerate.exhaustive ~session ~ces:5 model board);
      (let samples = 10000 in
       workload ~evals:samples "explore_random" (fun session ->
           (Dse.Explore.run ~seed:11L ~session ~samples model board)
             .Dse.Explore.evaluated));
    ]
  in
  let table =
    Util.Table.create ~title:"DSE session cache (MobileNetV2 / VCU108)"
      ~columns:
        [ ("workload", Util.Table.Left); ("evals", Util.Table.Right);
          ("uncached evals/s", Util.Table.Right);
          ("cached evals/s", Util.Table.Right);
          ("cache speedup", Util.Table.Right);
          ("trace overhead", Util.Table.Right);
          ("seg hits", Util.Table.Right) ]
      ()
  in
  List.iter
    (fun r ->
      Util.Table.add_row table
        [ r.workload; string_of_int r.evals;
          Format.sprintf "%.0f" (evals_per_sec r.evals r.uncached_s);
          Format.sprintf "%.0f" (evals_per_sec r.evals r.cached_s);
          Format.sprintf "%.1fx" (speedup_of r);
          Format.sprintf "%+.1f%%" (100.0 *. trace_overhead_of r);
          Format.sprintf "%.0f%%" (100.0 *. r.seg_hit_rate) ])
    rows;
  Util.Table.print table;
  rows

(* ------------------------------------------------------------------ *)
(* Domains-parallel exhaustive scan: the same bound-pruned argmax scan
   at domain counts 1/2/4 on unmemoized sessions (raw model evaluation
   is what must scale; caching would blur it).  Each domain count is
   timed twice: against a caller-owned warm pool (domains spawned once,
   outside the timed region — the steady-state DSE loop) and cold (the
   call spawns and retires its own crew, so pool amortisation shows up
   as the cold/warm gap).  A traced 4-domain pooled run supplies the
   per-phase breakdown (chunk seconds, rounds, chunks) the JSON
   records.  CI gates 4-domain vs 1-domain warm throughput — but
   only when the recording machine actually had >= 4 cores, so the JSON
   also records the runner's recommended domain count — plus a
   winners-identical matrix over {1,2,4} domains x {pruned, unpruned}. *)

type par_point = {
  pd_domains : int;
  pd_seconds : float;       (* warm caller-owned pool *)
  pd_cold_seconds : float;  (* crew spawned and retired inside the call *)
}

type par_phases = {
  ph_chunk_s : float;
  ph_rounds : int;
  ph_chunks : int;
}

type par_bench = {
  par_ces : int;
  par_max_specs : int;
  par_enumerated : int;
  par_prune_ratio : float;
  par_points : par_point list;
  par_phases : par_phases;
  par_winners_identical : bool;
}

let bench_parallel () =
  let model = Cnn.Model_zoo.mobilenet_v2 () in
  let board = Platform.Board.vcu108 in
  let ces = 5 and max_specs = 6000 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let run ?pool domains =
    let session = Mccm.Eval_session.create ~memoize:false model board in
    time (fun () ->
        Dse.Enumerate.exhaustive_best ~max_specs ~session ~domains ?pool
          ~clamp:false ~objective:`Throughput ~ces model board)
  in
  let (ref_best, ref_stats), _ = run 1 in
  let points =
    List.map
      (fun domains ->
        (* Best of two samples per arm; every configuration must return
           the very same winning design (the scan is deterministic by
           construction). *)
        let pool = Util.Parallel.Pool.create ~clamp:false ~domains () in
        let warm =
          Fun.protect
            ~finally:(fun () -> Util.Parallel.Pool.shutdown pool)
            (fun () ->
              ignore (run ~pool domains) (* spend the one-off domain spawns *);
              let (best, _), w1 = run ~pool domains in
              let _, w2 = run ~pool domains in
              if best <> ref_best then
                failwith
                  (Printf.sprintf
                     "exhaustive_parallel: %d-domain pooled scan disagrees \
                      with 1-domain"
                     domains);
              Float.min w1 w2)
        in
        let (best, _), c1 = run domains in
        let _, c2 = run domains in
        if best <> ref_best then
          failwith
            (Printf.sprintf
               "exhaustive_parallel: %d-domain scan disagrees with 1-domain"
               domains);
        {
          pd_domains = domains;
          pd_seconds = warm;
          pd_cold_seconds = Float.min c1 c2;
        })
      [ 1; 2; 4 ]
  in
  (* Per-phase breakdown of one traced 4-domain pooled run: chunk
     execution time over its rounds and chunks. *)
  let phases =
    let pool = Util.Parallel.Pool.create ~clamp:false ~domains:4 () in
    Fun.protect
      ~finally:(fun () -> Util.Parallel.Pool.shutdown pool)
      (fun () ->
        Mccm_obs.enable ();
        Mccm_obs.reset ();
        ignore (run ~pool 4);
        let snap = Mccm_obs.Metric.snapshot () in
        Mccm_obs.disable ();
        Mccm_obs.reset ();
        let hist n =
          match List.assoc_opt n snap.Mccm_obs.Metric.histograms with
          | Some h -> h.Mccm_obs.Metric.sum
          | None -> 0.0
        in
        let counter n =
          Option.value ~default:0
            (List.assoc_opt n snap.Mccm_obs.Metric.counters)
        in
        {
          ph_chunk_s = hist "dse.parallel.chunk_s";
          ph_rounds = counter "dse.parallel.rounds";
          ph_chunks = counter "dse.parallel.chunks";
        })
  in
  (* The determinism matrix behind the winners_identical gate: every
     combination of domain count and pruning must return the same
     winner as the sequential unpruned reference. *)
  let winners_identical =
    let winner ~domains ~prune =
      let session = Mccm.Eval_session.create ~memoize:false model board in
      fst
        (Dse.Enumerate.exhaustive_best ~max_specs ~session ~domains
           ~clamp:false ~prune ~objective:`Throughput ~ces model board)
    in
    let reference = winner ~domains:1 ~prune:false in
    List.for_all
      (fun domains ->
        List.for_all
          (fun prune -> winner ~domains ~prune = reference)
          [ true; false ])
      [ 1; 2; 4 ]
  in
  let bench =
    {
      par_ces = ces;
      par_max_specs = max_specs;
      par_enumerated = ref_stats.Dse.Enumerate.enumerated;
      par_prune_ratio =
        float_of_int ref_stats.Dse.Enumerate.pruned
        /. float_of_int (max 1 ref_stats.Dse.Enumerate.enumerated);
      par_points = points;
      par_phases = phases;
      par_winners_identical = winners_identical;
    }
  in
  let table =
    Util.Table.create
      ~title:
        (Format.sprintf
           "Parallel exhaustive scan (MobileNetV2 / VCU108, ces=%d, %d \
            specs, prune ratio %.1f%%, %d core(s) recommended)"
           ces bench.par_enumerated
           (100.0 *. bench.par_prune_ratio)
           (Util.Parallel.recommended ()))
      ~columns:
        [ ("domains", Util.Table.Right); ("warm s", Util.Table.Right);
          ("cold s", Util.Table.Right); ("specs/s", Util.Table.Right);
          ("scaling", Util.Table.Right) ]
      ()
  in
  let base_s = (List.hd points).pd_seconds in
  List.iter
    (fun p ->
      Util.Table.add_row table
        [ string_of_int p.pd_domains;
          Format.sprintf "%.3f" p.pd_seconds;
          Format.sprintf "%.3f" p.pd_cold_seconds;
          Format.sprintf "%.0f"
            (evals_per_sec bench.par_enumerated p.pd_seconds);
          Format.sprintf "%.2fx" (base_s /. Float.max 1e-9 p.pd_seconds) ])
    points;
  Util.Table.print table;
  Format.printf
    "4-domain pooled phases: chunk %.3fs over %d round(s) / %d chunk(s)@."
    phases.ph_chunk_s phases.ph_rounds phases.ph_chunks;
  Format.printf "winners identical across domains x pruning: %b@."
    winners_identical;
  if not winners_identical then
    failwith "exhaustive_parallel: winner matrix disagrees";
  bench

(* ------------------------------------------------------------------ *)
(* Pruned vs unpruned exhaustive search on the deep-space configuration
   (ResNet152, 10 CEs) where the segment bounds actually bite: pruning
   is exact, so the winner must match bit for bit, and CI gates the
   recorded prune ratio at 0.5. *)

type pruned_bench = {
  pb_model : string;
  pb_board : string;
  pb_ces : int;
  pb_max_specs : int;
  pb_enumerated : int;
  pb_evaluated : int;
  pb_pruned : int;
  pb_prune_ratio : float;
  pb_seconds : float;
  pb_unpruned_seconds : float;
  pb_winner_matches_unpruned : bool;
}

let bench_pruned () =
  let model = Cnn.Model_zoo.resnet152 () in
  let board = Platform.Board.vcu108 in
  let ces = 10 and max_specs = 30000 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let run prune =
    let session = Mccm.Eval_session.create ~memoize:false model board in
    time (fun () ->
        Dse.Enumerate.exhaustive_best ~max_specs ~session ~clamp:false ~prune
          ~objective:`Throughput ~ces model board)
  in
  let (best, stats), seconds = run true in
  let (unpruned_best, _), unpruned_seconds = run false in
  if best <> unpruned_best then
    failwith "enumerate_pruned: pruned winner disagrees with the unpruned scan";
  let bench =
    {
      pb_model = "ResNet152";
      pb_board = "VCU108";
      pb_ces = ces;
      pb_max_specs = max_specs;
      pb_enumerated = stats.Dse.Enumerate.enumerated;
      pb_evaluated = stats.Dse.Enumerate.evaluated;
      pb_pruned = stats.Dse.Enumerate.pruned;
      pb_prune_ratio =
        float_of_int stats.Dse.Enumerate.pruned
        /. float_of_int (max 1 stats.Dse.Enumerate.enumerated);
      pb_seconds = seconds;
      pb_unpruned_seconds = unpruned_seconds;
      pb_winner_matches_unpruned = true;
    }
  in
  let table =
    Util.Table.create
      ~title:
        (Format.sprintf "Pruned exhaustive search (%s / %s, ces=%d, %d specs)"
           bench.pb_model bench.pb_board ces bench.pb_enumerated)
      ~columns:
        [ ("search", Util.Table.Left); ("seconds", Util.Table.Right);
          ("evaluated", Util.Table.Right); ("pruned", Util.Table.Right) ]
      ()
  in
  Util.Table.add_row table
    [ "pruned"; Format.sprintf "%.3f" seconds;
      string_of_int bench.pb_evaluated;
      Format.sprintf "%d (%.1f%%)" bench.pb_pruned
        (100.0 *. bench.pb_prune_ratio) ];
  Util.Table.add_row table
    [ "unpruned"; Format.sprintf "%.3f" unpruned_seconds;
      string_of_int bench.pb_enumerated; "0" ];
  Util.Table.print table;
  Format.printf "winner identical with and without pruning@.";
  bench

(* Hand-rolled JSON emission, one record per line; the schema is
   consumed by check_bench.ml and CI. *)
let write_bench_json ~path rows par pruned =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.bprintf buf fmt in
  add "{\n  \"schema\": \"mccm-bench-dse/7\",\n";
  add "  \"fig10_samples\": %d,\n" !fig10_samples;
  add "  \"recommended_domains\": %d,\n" (Util.Parallel.recommended ());
  add "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      add
        "    { \"name\": \"%s\", \"evals\": %d, \"uncached_s\": %.6f, \
         \"cached_s\": %.6f, \"uncached_evals_per_sec\": %.1f, \
         \"cached_evals_per_sec\": %.1f, \"speedup\": %.2f,\n"
        r.workload r.evals r.uncached_s r.cached_s
        (evals_per_sec r.evals r.uncached_s)
        (evals_per_sec r.evals r.cached_s)
        (speedup_of r);
      add
        "      \"traced_s\": %.6f, \"traced_evals_per_sec\": %.1f, \
         \"trace_overhead\": %.4f,\n"
        r.traced_s
        (evals_per_sec r.evals r.traced_s)
        (trace_overhead_of r);
      add "      \"seg_hit_rate\": %.4f, \"plan_hit_rate\": %.4f,\n"
        r.seg_hit_rate r.plan_hit_rate;
      add "      \"phases\": { %s } }%s\n"
        (String.concat ", "
           (List.map
              (fun (label, s) -> Printf.sprintf "\"%s\": %.6f" label s)
              r.phases))
        (if i = List.length rows - 1 then "" else ","))
    rows;
  add "  ],\n";
  add
    "  \"exhaustive_parallel\": { \"ces\": %d, \"max_specs\": %d, \
     \"enumerated\": %d, \"prune_ratio\": %.4f,\n"
    par.par_ces par.par_max_specs par.par_enumerated par.par_prune_ratio;
  add "    \"winners_identical\": %b,\n" par.par_winners_identical;
  add
    "    \"phases\": { \"chunk_s\": %.6f, \"rounds\": %d, \"chunks\": %d \
     },\n"
    par.par_phases.ph_chunk_s par.par_phases.ph_rounds
    par.par_phases.ph_chunks;
  add "    \"domains\": [\n";
  let np = List.length par.par_points in
  List.iteri
    (fun i p ->
      add
        "      { \"domains\": %d, \"seconds\": %.6f, \"evals_per_sec\": \
         %.1f, \"cold_seconds\": %.6f, \"cold_evals_per_sec\": %.1f }%s\n"
        p.pd_domains p.pd_seconds
        (evals_per_sec par.par_enumerated p.pd_seconds)
        p.pd_cold_seconds
        (evals_per_sec par.par_enumerated p.pd_cold_seconds)
        (if i = np - 1 then "" else ","))
    par.par_points;
  add "    ] },\n";
  add
    "  \"enumerate_pruned\": { \"model\": \"%s\", \"board\": \"%s\", \
     \"ces\": %d, \"max_specs\": %d,\n"
    pruned.pb_model pruned.pb_board pruned.pb_ces pruned.pb_max_specs;
  add
    "    \"enumerated\": %d, \"evaluated\": %d, \"pruned\": %d, \
     \"prune_ratio\": %.4f,\n"
    pruned.pb_enumerated pruned.pb_evaluated pruned.pb_pruned
    pruned.pb_prune_ratio;
  add
    "    \"seconds\": %.6f, \"unpruned_seconds\": %.6f, \
     \"winner_matches_unpruned\": %b },\n"
    pruned.pb_seconds pruned.pb_unpruned_seconds
    pruned.pb_winner_matches_unpruned;
  add "  \"artifacts\": [\n";
  (* Only paper artifacts; the Bechamel and cache sections time themselves. *)
  let times =
    List.filter (fun (name, _) -> List.mem_assoc name artifacts) !artifact_times
  in
  let n = List.length times in
  List.iteri
    (fun i (name, s) ->
      add "    { \"name\": \"%s\", \"seconds\": %.3f }%s\n" name s
        (if i = n - 1 then "" else ","))
    times;
  add "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "wrote %s@." path

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse flags picks json = function
    | [] -> (List.rev flags, List.rev picks, json)
    | "--fig10-samples" :: n :: rest ->
      fig10_samples := int_of_string n;
      parse flags picks json rest
    | "--json" :: path :: rest -> parse flags picks (Some path) rest
    | a :: rest when String.length a > 1 && a.[0] = '-' ->
      parse (a :: flags) picks json rest
    | a :: rest -> parse flags (a :: picks) json rest
  in
  let flags, picks, json = parse [] [] None args in
  if List.mem "--full" flags then fig10_samples := 100000;
  let run_bench = not (List.mem "--no-bench" flags) in
  let selected =
    if picks = [] then artifacts
    else
      List.filter_map
        (fun p ->
          match List.assoc_opt p artifacts with
          | Some f -> Some (p, f)
          | None ->
            Format.eprintf "unknown artifact %s (have: %s)@." p
              (String.concat ", " (List.map fst artifacts));
            None)
        picks
  in
  List.iter (fun (name, f) -> section name f) selected;
  if run_bench && picks = [] then section "speed (Bechamel)" run_bechamel;
  let rows = ref [] in
  section "DSE session cache" (fun () -> rows := bench_dse ());
  let par = ref None in
  section "parallel exhaustive scan" (fun () -> par := Some (bench_parallel ()));
  let pruned = ref None in
  section "pruned exhaustive search" (fun () -> pruned := Some (bench_pruned ()));
  write_bench_json
    ~path:(Option.value json ~default:"BENCH_dse.json")
    !rows
    (Option.get !par)
    (Option.get !pruned)
