(* Integration tests: full-pipeline shape assertions on the paper's
   experiments (the qualitative claims of Sections V-B to V-E). *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* -------------------------------------------------- Table I shapes *)

let test_table1_shape () =
  let t = Experiments.Table1.run () in
  check "three rows" 3 (List.length t.Experiments.Table1.rows);
  (* Every metric column has a winner at exactly 1.0, and each row wins
     at least one metric (the "no single best architecture" insight). *)
  let ones f =
    List.length
      (List.filter
         (fun (r : Experiments.Table1.row) -> Float.abs (f r -. 1.0) < 1e-9)
         t.Experiments.Table1.rows)
  in
  checkb "latency winner" true (ones (fun r -> r.Experiments.Table1.latency) >= 1);
  checkb "buffer winner" true (ones (fun r -> r.Experiments.Table1.buffers) >= 1);
  checkb "access winner" true (ones (fun r -> r.Experiments.Table1.accesses) >= 1);
  (* SegmentedRR leads latency (it is listed first, lowest-latency per
     style, and the paper's Table I has it at 1.0). *)
  match t.Experiments.Table1.rows with
  | rr :: seg :: hyb :: [] ->
    checkb "SegmentedRR best latency" true
      (rr.Experiments.Table1.latency <= seg.Experiments.Table1.latency
      && rr.Experiments.Table1.latency <= hyb.Experiments.Table1.latency);
    checkb "SegmentedRR needs most buffers" true
      (rr.Experiments.Table1.buffers > seg.Experiments.Table1.buffers);
    checkb "Hybrid reaches minimal accesses" true
      (Float.abs (hyb.Experiments.Table1.accesses -. 1.0) < 1e-9)
  | _ -> Alcotest.fail "expected three rows"

(* ------------------------------------------------- Table IV shapes *)

let test_table4_accuracy_bands () =
  let t = Experiments.Table4.run () in
  check "150 experiments" 150 t.Experiments.Table4.experiments;
  check "50 settings" 50 t.Experiments.Table4.settings;
  let check_metric name (m : Experiments.Table4.metric_summary) ~avg_floor
      ~min_floor =
    List.iter
      (fun (s : Report.Accuracy.summary) ->
        checkb
          (Printf.sprintf "%s avg %.1f >= %.0f" name s.Report.Accuracy.average
             avg_floor)
          true
          (s.Report.Accuracy.average >= avg_floor);
        checkb
          (Printf.sprintf "%s min %.1f >= %.0f" name s.Report.Accuracy.min
             min_floor)
          true
          (s.Report.Accuracy.min >= min_floor))
      [ m.Experiments.Table4.segmented; m.Experiments.Table4.segmented_rr;
        m.Experiments.Table4.hybrid ]
  in
  (* The paper reports > 90% averages and an 80.7% worst case; hold
     slightly conservative floors. *)
  check_metric "latency" t.Experiments.Table4.latency ~avg_floor:85.0
    ~min_floor:75.0;
  check_metric "throughput" t.Experiments.Table4.throughput ~avg_floor:85.0
    ~min_floor:75.0;
  check_metric "buffers" t.Experiments.Table4.buffers ~avg_floor:90.0
    ~min_floor:80.0;
  (* Accesses are exact, as in the paper. *)
  List.iter
    (fun (s : Report.Accuracy.summary) ->
      checkb "accesses exactly 100%" true (s.Report.Accuracy.min >= 100.0 -. 1e-9))
    [ t.Experiments.Table4.accesses.Experiments.Table4.segmented;
      t.Experiments.Table4.accesses.Experiments.Table4.segmented_rr;
      t.Experiments.Table4.accesses.Experiments.Table4.hybrid ]

let test_table4_prediction_agreement () =
  let t = Experiments.Table4.run () in
  (* The paper: best-architecture predictions agree in >= 139/150 for
     buffers and always for the other metrics; we require >= 80% per
     metric. *)
  List.iter
    (fun (metric, n) ->
      checkb
        (Printf.sprintf "%s agreement %d/%d" metric n t.Experiments.Table4.settings)
        true
        (float_of_int n >= 0.8 *. float_of_int t.Experiments.Table4.settings))
    t.Experiments.Table4.best_arch_agreement

(* -------------------------------------------------- Table V shapes *)

let test_table5_insights () =
  let t = Experiments.Table5.run () in
  check "20 columns" 20 t.Experiments.Table5.columns;
  check "80 cells" 80 (List.length t.Experiments.Table5.cells);
  (* Paper: in 80% of columns no architecture sweeps all four metrics. *)
  checkb "mostly no single winner" true
    (t.Experiments.Table5.no_single_winner_columns >= 10);
  (* Paper: SegmentedRR dominates latency (15/20); we require a strict
     majority. *)
  checkb "SegmentedRR latency majority" true
    (t.Experiments.Table5.segmented_rr_latency_wins >= 10);
  (* Paper: Hybrid always reaches minimum accesses. *)
  checkb "Hybrid accesses >= 16/20" true
    (t.Experiments.Table5.hybrid_access_wins >= 16)

(* ------------------------------------------------- figure 5/8 shapes *)

let test_fig5_shape () =
  let t = Experiments.Tradeoff.fig5 () in
  checkb "30 points (or fewer if infeasible)" true
    (List.length t.Experiments.Tradeoff.points <= 30
    && List.length t.Experiments.Tradeoff.points >= 20);
  (* SegmentedRR instances access more than Hybrid's best (Fig. 5's
     bottleneck story). *)
  let avg style =
    let ps =
      List.filter
        (fun (p : Experiments.Tradeoff.point) ->
          p.Experiments.Tradeoff.style = style)
        t.Experiments.Tradeoff.points
    in
    Util.Stats.mean (List.map (fun (p : Experiments.Tradeoff.point) -> p.Experiments.Tradeoff.second) ps)
  in
  checkb "SegmentedRR accesses above Hybrid" true
    (avg Arch.Block.Segmented_rr > avg Arch.Block.Hybrid)

let test_fig8_shape () =
  let t = Experiments.Tradeoff.fig8 () in
  checkb "has points" true (t.Experiments.Tradeoff.points <> []);
  checkb "annotations present" true
    (List.length t.Experiments.Tradeoff.best_throughput = 3
    && List.length t.Experiments.Tradeoff.best_second = 3)

(* --------------------------------------------------- figure 6 shape *)

let test_fig6_shape () =
  let t = Experiments.Fig6.run () in
  check "27 SegRR segments" 27
    (List.length t.Experiments.Fig6.a.Experiments.Fig6.segments);
  check "7 Segmented segments" 7
    (List.length t.Experiments.Fig6.b.Experiments.Fig6.segments);
  (* SegmentedRR/2 is memory-bottlenecked on ZC706; Segmented/7 is not. *)
  checkb "SegRR stalls" true
    (t.Experiments.Fig6.a.Experiments.Fig6.stall_fraction > 0.02);
  checkb "Segmented does not" true
    (t.Experiments.Fig6.b.Experiments.Fig6.stall_fraction
    < t.Experiments.Fig6.a.Experiments.Fig6.stall_fraction);
  (* The memory bottleneck sits in the tail segments (the paper's
     segments 22-26). *)
  let tail_bound =
    List.filteri
      (fun i (s : Experiments.Fig6.segment_share) ->
        i >= 21 && s.Experiments.Fig6.memory_share > s.Experiments.Fig6.compute_share)
      t.Experiments.Fig6.a.Experiments.Fig6.segments
  in
  checkb "tail segments memory-bound" true (List.length tail_bound >= 3)

(* --------------------------------------------------- figure 7 shape *)

let test_fig7_shape () =
  let t = Experiments.Fig7.run () in
  check "three rows" 3 (List.length t.Experiments.Fig7.rows);
  let fm_share (r : Experiments.Fig7.row) =
    float_of_int r.Experiments.Fig7.fms_bytes
    /. float_of_int (r.Experiments.Fig7.weights_bytes + r.Experiments.Fig7.fms_bytes)
  in
  match t.Experiments.Fig7.rows with
  | [ rr; seg; hyb ] ->
    (* Paper: compressing FMs would be pure overhead for SegmentedRR
       (weights dominate utterly), while Segmented moves substantial FM
       traffic; and weight compression matters most for SegmentedRR. *)
    checkb "SegRR weights-dominated" true (fm_share rr < 0.10);
    checkb "Segmented FM-heavy relative to SegRR" true
      (fm_share seg > fm_share rr);
    checkb "SegRR moves the most weight bytes" true
      (rr.Experiments.Fig7.weights_bytes > seg.Experiments.Fig7.weights_bytes
      && rr.Experiments.Fig7.weights_bytes > hyb.Experiments.Fig7.weights_bytes);
    (* Hybrid's design goal: the smallest total traffic of the three. *)
    let total (r : Experiments.Fig7.row) =
      r.Experiments.Fig7.weights_bytes + r.Experiments.Fig7.fms_bytes
    in
    checkb "Hybrid lowest total accesses" true
      (total hyb <= total seg && total hyb <= total rr)
  | _ -> Alcotest.fail "expected three rows"

(* --------------------------------------------------- figure 9 shape *)

let test_fig9_shape () =
  let t = Experiments.Fig9.run () in
  check "4 Segmented segments" 4
    (List.length t.Experiments.Fig9.segmented.Experiments.Fig9.segments);
  check "2 Hybrid segments" 2
    (List.length t.Experiments.Fig9.hybrid.Experiments.Fig9.segments);
  (* Fig. 9a: the first Segmented segment's buffers dominate; the
     Hybrid's buffer skews to the opposite end. *)
  (match t.Experiments.Fig9.segmented.Experiments.Fig9.segments with
  | first :: rest ->
    checkb "Segmented first segment biggest buffers" true
      (List.for_all
         (fun (s : Experiments.Fig9.segment_stat) ->
           first.Experiments.Fig9.buffer_share
           >= s.Experiments.Fig9.buffer_share)
         rest)
  | [] -> Alcotest.fail "no segments");
  (* Underutilization normalisation: minimum across both sides is 1x. *)
  let all =
    t.Experiments.Fig9.segmented.Experiments.Fig9.segments
    @ t.Experiments.Fig9.hybrid.Experiments.Fig9.segments
  in
  let min_norm =
    Util.Stats.minimum
      (List.map
         (fun (s : Experiments.Fig9.segment_stat) ->
           s.Experiments.Fig9.underutilization_norm)
         all)
  in
  checkb "min normalised to ~1" true (Float.abs (min_norm -. 1.0) < 1e-6)

(* -------------------------------------------------- figure 10 shape *)

let test_fig10_shape () =
  let t = Experiments.Fig10.run ~samples:800 () in
  checkb "space in the billions" true (t.Experiments.Fig10.space_size > 1e10);
  checkb "most samples feasible" true
    (List.length t.Experiments.Fig10.result.Dse.Explore.evaluated > 400);
  checkb "fast evaluation (< 50 ms per design)" true
    (t.Experiments.Fig10.ms_per_design < 50.0);
  (* The custom space contains designs at least matching Segmented/4's
     throughput with smaller buffers (the paper's headline: up to 48%
     smaller). *)
  match t.Experiments.Fig10.buffer_reduction_at_segmented_throughput with
  | None -> Alcotest.fail "no design matches the reference throughput"
  | Some r -> checkb "buffer reduction positive" true (r > 0.0)

(* -------------------------------------------------- extremes shapes *)

let test_extremes_shape () =
  let t = Experiments.Extremes.run () in
  (* Per the paper: the per-layer extreme's idleness makes its latency far
     worse than a single engine's, and multiple-CE accelerators have less
     PE underutilization than generic single engines. *)
  List.iter
    (fun cnn ->
      let find instance =
        List.find_opt
          (fun (r : Experiments.Extremes.row) ->
            r.Experiments.Extremes.cnn = cnn
            && r.Experiments.Extremes.instance = instance)
          t.Experiments.Extremes.rows
      in
      match (find "SingleCE", find "LayerPerCE") with
      | Some single, Some per_layer ->
        checkb
          (cnn ^ ": per-layer latency above single-CE")
          true
          (per_layer.Experiments.Extremes.metrics.Mccm.Metrics.latency_s
          > single.Experiments.Extremes.metrics.Mccm.Metrics.latency_s)
      | _ -> Alcotest.fail "missing extreme rows")
    [ "Res50"; "Dns121"; "MobV2" ]

let test_extremes_multiple_ce_utilization () =
  let t = Experiments.Extremes.run () in
  (* On MobileNetV2 (the heterogeneity poster child), the best multiple-CE
     instance must beat the generic single engine's utilization. *)
  let util prefix =
    List.find_map
      (fun (r : Experiments.Extremes.row) ->
        if
          r.Experiments.Extremes.cnn = "MobV2"
          && String.length r.Experiments.Extremes.instance
             >= String.length prefix
          && String.sub r.Experiments.Extremes.instance 0
               (String.length prefix)
             = prefix
        then Some r.Experiments.Extremes.utilization
        else None)
      t.Experiments.Extremes.rows
  in
  match (util "SingleCE", util "best multiple-CE") with
  | Some s, Some m -> checkb "multiple-CE utilization higher" true (m > s)
  | _ -> Alcotest.fail "missing rows"

(* ------------------------------------------------------- CLI usage *)

(* Under `dune runtest` the cwd is _build/default/test; under
   `dune exec` it is the workspace root. *)
let cli =
  List.find_opt Sys.file_exists
    [
      Filename.concat ".." (Filename.concat "bin" "mccm_cli.exe");
      "_build/default/bin/mccm_cli.exe";
    ]

(* Exit status of the CLI on [args], its output discarded. *)
let cli_status args =
  match cli with
  | None -> Alcotest.fail "mccm_cli.exe is not built"
  | Some exe -> (
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Fun.protect
        ~finally:(fun () -> Unix.close null)
        (fun () ->
          Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin null
            null)
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED code -> code
    | _ -> Alcotest.fail "mccm_cli.exe was killed by a signal")

(* Counts below the daemon's floors are usage errors (cmdliner's exit
   124) caught while the arguments are parsed, not exceptions out of
   the library (exit 125); the floors themselves are accepted.  A
   [serve] count below its floor is refused before a socket is bound
   (the accepted floors would start a daemon, so they are not run). *)
let test_cli_count_floors () =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mccm-floors-%d.sock" (Unix.getpid ()))
  in
  List.iter
    (fun (expected, args) ->
      check (String.concat " " args) expected (cli_status args))
    [
      (124, [ "enumerate"; "-m"; "MobV2"; "-b"; "VCU108"; "-c"; "1" ]);
      (124, [ "enumerate"; "-m"; "MobV2"; "-b"; "VCU108"; "--max-specs=-5" ]);
      (124, [ "explore"; "-m"; "MobV2"; "-b"; "VCU108"; "-n"; "0" ]);
      ( 0,
        [ "enumerate"; "-m"; "MobV2"; "-b"; "VCU108"; "-c"; "2";
          "--max-specs"; "1" ] );
      (0, [ "explore"; "-m"; "MobV2"; "-b"; "VCU108"; "-n"; "1" ]);
    ];
  List.iter
    (fun flag ->
      let args = [ "serve"; "--socket"; sock; flag ] in
      check (String.concat " " args) 124 (cli_status args);
      checkb (flag ^ ": no socket bound") false (Sys.file_exists sock))
    [
      "--queue-cap=0";
      "--max-frame=0";
      "--cache-capacity=-1";
      "--flight-cap=-1";
      "--workers=-1";
    ]

(* An architecture with more CEs than the board has DSPs is an input
   error (exit 1) in every command that builds one, not an uncaught
   builder exception (exit 125). *)
let test_cli_ce_budget () =
  let arch = "{L1-L52:CE1-CE1000, L53-L53:CE1001}" in
  List.iter
    (fun cmd ->
      let args = [ cmd; arch; "-m"; "Res50"; "-b"; "ZC706" ] in
      check (String.concat " " args) 1 (cli_status args))
    [ "eval"; "layers"; "trace"; "compress" ]

let () =
  Alcotest.run "integration"
    [
      ("table1", [ Alcotest.test_case "shape" `Quick test_table1_shape ]);
      ( "table4",
        [
          Alcotest.test_case "accuracy bands" `Slow test_table4_accuracy_bands;
          Alcotest.test_case "prediction agreement" `Slow
            test_table4_prediction_agreement;
        ] );
      ("table5", [ Alcotest.test_case "insights" `Slow test_table5_insights ]);
      ( "extremes",
        [
          Alcotest.test_case "latency ordering" `Slow test_extremes_shape;
          Alcotest.test_case "utilization" `Slow
            test_extremes_multiple_ce_utilization;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig5" `Quick test_fig5_shape;
          Alcotest.test_case "fig8" `Quick test_fig8_shape;
          Alcotest.test_case "fig6" `Quick test_fig6_shape;
          Alcotest.test_case "fig7" `Quick test_fig7_shape;
          Alcotest.test_case "fig9" `Quick test_fig9_shape;
          Alcotest.test_case "fig10" `Slow test_fig10_shape;
        ] );
      ( "cli",
        [
          Alcotest.test_case "count flags reject values below their floor"
            `Quick test_cli_count_floors;
          Alcotest.test_case "more CEs than DSPs is an input error" `Quick
            test_cli_ce_budget;
        ] );
    ]
