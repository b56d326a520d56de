(* mccm: command-line front-end to the MCCM evaluation methodology.

   Subcommands:
     eval      evaluate one accelerator (baseline name or paper notation)
     sweep     evaluate all baseline instances on a (CNN, board) pair
     explore   random design-space exploration of custom accelerators
     validate  differential model-vs-simulator validation sweep
     models    list the CNN model zoo
     boards    list the FPGA boards *)

open Cmdliner

(* ------------------------------------------------------- arguments *)

let model_conv =
  (* A zoo abbreviation, or a path to a model-description file (see
     Cnn.Model_io) when it names an existing file. *)
  let parse s =
    match Cnn.Model_zoo.by_abbreviation s with
    | Some m -> Ok m
    | None when Sys.file_exists s -> (
      match Cnn.Model_io.load_file s with
      | Ok m -> Ok m
      | Error msg -> Error (`Msg (Printf.sprintf "%s: %s" s msg)))
    | None ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown CNN %S (expected a file or one of: %s)" s
              (String.concat ", "
                 (List.map
                    (fun m -> m.Cnn.Model.abbreviation)
                    (Cnn.Model_zoo.extended ())))))
  in
  let print ppf m = Format.pp_print_string ppf m.Cnn.Model.abbreviation in
  Arg.conv (parse, print)

let board_conv =
  let parse s =
    match Platform.Board.by_name s with
    | Some b -> Ok b
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown board %S (expected one of: %s)" s
              (String.concat ", "
                 (List.map
                    (fun b -> b.Platform.Board.name)
                    Platform.Board.all))))
  in
  let print ppf b = Format.pp_print_string ppf b.Platform.Board.name in
  Arg.conv (parse, print)

let model_arg =
  Arg.(
    required
    & opt (some model_conv) None
    & info [ "m"; "model" ] ~docv:"CNN"
        ~doc:
          "CNN model: a zoo abbreviation (Res152, Res50, XCp, Dns121, \
           MobV2, EffB0, MnasA1) or a path to a model-description file.")

let board_arg =
  Arg.(
    required
    & opt (some board_conv) None
    & info [ "b"; "board" ] ~docv:"BOARD"
        ~doc:"FPGA board (ZC706, VCU108, VCU110 or ZCU102).")

(* An int flag with a floor, checked while the arguments are parsed:
   a value below [lo] is a usage error (exit 124) naming the flag,
   not an exception out of the library.  The floors match the
   daemon's own request checks. *)
let int_at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo ->
      Error
        (`Msg
           (Printf.sprintf "invalid value '%d', expected an integer >= %d" n
              lo))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

(* Architecture strings resolve through Arch.Shorthand: baseline names
   or the paper's block notation. *)
let arch_of_string model s = Arch.Shorthand.parse model s

(* --------------------------------------------------- observability *)

(* Every subcommand accepts --trace FILE and --stats.  The run is
   covered by a root span so the exported trace accounts for the whole
   command's wall time, not just the instrumented leaves. *)
let obs_args =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record instrumentation spans and write them to $(docv) as \
             Chrome trace_event JSON (load it in Perfetto at \
             ui.perfetto.dev, or chrome://tracing).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Collect metrics (cache hit rates, dedup ratios, per-phase \
             span timings) and print the mccm stats summary block after \
             the command.")
  in
  Term.(const (fun trace stats -> (trace, stats)) $ trace $ stats)

let with_obs cmd_name (trace, stats) f =
  let on = trace <> None || stats in
  if on then Mccm_obs.enable ~tracing:(trace <> None) ();
  let finish () =
    if on then begin
      (match trace with
      | Some path ->
        Mccm_obs.write_trace ~path;
        Format.printf "wrote Chrome trace to %s@." path
      | None -> ());
      if stats then
        Format.printf "@.mccm stats:@.%a@." Mccm_obs.pp_summary ();
      Mccm_obs.disable ()
    end
  in
  match Mccm_obs.span ~cat:"cli" ("mccm." ^ cmd_name) f with
  | code ->
    finish ();
    code
  | exception e ->
    finish ();
    raise e

let print_evaluation ~verbose model board archi =
  let built = Builder.Build.build model board archi in
  let e = Mccm.Evaluate.run built in
  Format.printf "%a@." Builder.Build.pp built;
  Format.printf "@.MCCM: %a@." Mccm.Metrics.pp e.Mccm.Evaluate.metrics;
  Format.printf "Roofline: %a@." Mccm.Roofline.pp
    (Mccm.Roofline.analyze model board e.Mccm.Evaluate.metrics);
  if verbose then begin
    Format.printf "@.Fine-grained breakdown:@.%a@." Mccm.Breakdown.pp
      e.Mccm.Evaluate.breakdown;
    let s = Sim.Simulate.run built in
    Format.printf "@.Synthesis surrogate (achieved clock %.0f MHz):@.  %a@."
      (s.Sim.Simulate.achieved_clock_hz /. 1e6)
      Mccm.Metrics.pp s.Sim.Simulate.metrics;
    let c =
      Report.Accuracy.compare_metrics ~reference:s.Sim.Simulate.metrics
        ~estimated:e.Mccm.Evaluate.metrics
    in
    Format.printf
      "Accuracy (Eq. 10): latency %.1f%%, throughput %.1f%%, buffers \
       %.1f%%, accesses %.1f%%@."
      c.Report.Accuracy.latency c.Report.Accuracy.throughput
      c.Report.Accuracy.buffers c.Report.Accuracy.accesses
  end

(* ------------------------------------------------------------- eval *)

let eval_cmd =
  let arch_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ARCH"
          ~doc:
            "Accelerator: segmented/N, segmentedrr/N, hybrid/N, or the \
             paper's notation, e.g. '{L1-L4:CE1, L5-Last:CE2}'.")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"Also print the fine-grained breakdown and the synthesis \
                surrogate's reference numbers.")
  in
  let run obs model board arch_str verbose =
    with_obs "eval" obs @@ fun () ->
    match arch_of_string model arch_str with
    | Error msg ->
      Format.eprintf "error: %s@." msg;
      1
    | Ok archi ->
      print_evaluation ~verbose model board archi;
      0
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate one multiple-CE accelerator with MCCM.")
    Term.(const run $ obs_args $ model_arg $ board_arg $ arch_arg $ verbose_arg)

(* ------------------------------------------------------------ sweep *)

let sweep_cmd =
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"PATH" ~doc:"Also write the results as CSV.")
  in
  let run obs model board csv =
    with_obs "sweep" obs @@ fun () ->
    let table =
      Util.Table.create
        ~title:
          (Format.asprintf "Baselines on %s / %s" model.Cnn.Model.abbreviation
             board.Platform.Board.name)
        ~columns:
          [
            ("architecture", Util.Table.Left);
            ("latency", Util.Table.Right);
            ("throughput", Util.Table.Right);
            ("buffers", Util.Table.Right);
            ("accesses", Util.Table.Right);
            ("feasible", Util.Table.Center);
          ]
        ()
    in
    List.iter
      (fun (name, archi) ->
        let m = Mccm.Evaluate.metrics model board archi in
        Util.Table.add_row table
          [
            name;
            Format.asprintf "%a" Util.Units.pp_seconds m.Mccm.Metrics.latency_s;
            Printf.sprintf "%.1f inf/s" m.Mccm.Metrics.throughput_ips;
            Format.asprintf "%a" Util.Units.pp_bytes m.Mccm.Metrics.buffer_bytes;
            Format.asprintf "%a" Util.Units.pp_bytes
              (Mccm.Metrics.accesses_bytes m);
            (if m.Mccm.Metrics.feasible then "yes" else "NO");
          ])
      (Arch.Baselines.all_instances model);
    Util.Table.print table;
    (match csv with
    | None -> ()
    | Some path ->
      let rows =
        List.map
          (fun (name, archi) ->
            (name, Mccm.Evaluate.metrics model board archi))
          (Arch.Baselines.all_instances model)
      in
      Report.Csv.save
        (Report.Csv.of_metrics_rows ~label_header:"architecture" rows)
        ~path;
      Format.printf "wrote %s@." path);
    0
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Evaluate all 30 baseline instances (3 architectures x 2-11 CEs).")
    Term.(const run $ obs_args $ model_arg $ board_arg $ csv_arg)

(* ---------------------------------------------------------- explore *)

let explore_cmd =
  let samples_arg =
    Arg.(
      value & opt (int_at_least 1) 2000
      & info [ "n"; "samples" ] ~docv:"N"
          ~doc:"Number of random custom designs to evaluate (at least 1).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (runs are deterministic).")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "domains" ] ~docv:"N"
          ~doc:
            "Parallel OCaml domains to spread the sweep over \
             (deterministic per (seed, N)).")
  in
  let run obs model board samples seed domains =
    with_obs "explore" obs @@ fun () ->
    let r =
      Dse.Explore.run ~seed:(Int64.of_int seed) ~domains ~samples model board
    in
    Format.printf
      "%d designs sampled, %d distinct (%.1f%% dedup), %d feasible, %.1f s \
       (%.0f designs/s)@."
      samples r.Dse.Explore.distinct
      (100.0
      *. (1.0
         -. (float_of_int r.Dse.Explore.distinct
            /. float_of_int (max 1 samples))))
      (List.length r.Dse.Explore.evaluated)
      r.Dse.Explore.elapsed_s
      (float_of_int samples /. Float.max 1e-9 r.Dse.Explore.elapsed_s);
    Format.printf "session: %a@." Mccm.Eval_session.pp_stats
      r.Dse.Explore.stats;
    Format.printf "Pareto front (throughput vs buffers):@.";
    List.iter
      (fun (p : Dse.Explore.evaluated Dse.Pareto.point) ->
        let e = p.Dse.Pareto.item in
        let archi = Arch.Custom.arch_of_spec model e.Dse.Explore.spec in
        Format.printf "  %-40s %a@."
          (Arch.Notation.to_string archi)
          Mccm.Metrics.pp e.Dse.Explore.metrics)
      r.Dse.Explore.front;
    0
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Randomly explore custom Hybrid-first architectures and print the \
          throughput/buffer Pareto front.")
    Term.(
      const run $ obs_args $ model_arg $ board_arg $ samples_arg $ seed_arg
      $ domains_arg)

(* --------------------------------------------------------- validate *)

let validate_cmd =
  let samples_arg =
    Arg.(
      value & opt int 200
      & info [ "n"; "samples" ] ~docv:"N"
          ~doc:"Number of random (CNN, board, architecture) cases to check.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (runs are deterministic).")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "domains" ] ~docv:"N"
          ~doc:
            "Parallel OCaml domains to spread the sweep over (the verdicts \
             are identical for every N).")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"PATH"
          ~doc:
            "Regression corpus to replay before the random sweep (see \
             test/corpus/validate.corpus).")
  in
  let update_arg =
    Arg.(
      value & flag
      & info [ "update-corpus" ]
          ~doc:
            "Append newly found (shrunk) counterexamples to the corpus \
             file, so they replay on every future run.")
  in
  let run obs samples seed domains corpus update =
    with_obs "validate" obs @@ fun () ->
    let t =
      Validate.Sweep.run ~samples ~seed:(Int64.of_int seed) ~domains ?corpus ()
    in
    Format.printf "%a@." Validate.Sweep.pp t;
    if Validate.Sweep.ok t then 0
    else begin
      (match (update, corpus) with
      | true, Some path ->
        List.iter
          (fun (f : Validate.Sweep.failure) ->
            let v =
              Option.value f.Validate.Sweep.shrunk
                ~default:f.Validate.Sweep.verdict
            in
            Validate.Corpus.append path v.Validate.Oracle.case)
          t.Validate.Sweep.failures;
        Format.printf "appended %d counterexample(s) to %s@."
          (List.length t.Validate.Sweep.failures)
          path
      | true, None ->
        Format.eprintf "--update-corpus needs --corpus PATH@."
      | false, _ -> ());
      1
    end
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Differential validation: cross-check the analytical model \
          against the simulator on randomized cases, with metamorphic \
          invariants and counterexample shrinking.")
    Term.(
      const run $ obs_args $ samples_arg $ seed_arg $ domains_arg $ corpus_arg
      $ update_arg)

(* ----------------------------------------------------------- layers *)

let layers_cmd =
  let arch_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ARCH" ~doc:"Accelerator (as for $(b,eval)).")
  in
  let top_arg =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"N" ~doc:"How many hotspot layers to flag.")
  in
  let run obs model board arch_str top =
    with_obs "layers" obs @@ fun () ->
    match arch_of_string model arch_str with
    | Error msg ->
      Format.eprintf "error: %s@." msg;
      1
    | Ok archi ->
      let built = Builder.Build.build model board archi in
      let rows = Mccm.Layer_report.of_build built in
      Format.printf "%a@." Mccm.Layer_report.pp rows;
      Format.printf "Hotspots (by cycles):@.";
      List.iter
        (fun (r : Mccm.Layer_report.row) ->
          Format.printf "  L%d %s: %d cycles at %.1f%% utilization@."
            (r.Mccm.Layer_report.layer_index + 1)
            r.Mccm.Layer_report.layer_name r.Mccm.Layer_report.cycles
            (100.0 *. r.Mccm.Layer_report.utilization))
        (Mccm.Layer_report.hotspots ~top rows);
      0
  in
  Cmd.v
    (Cmd.info "layers"
       ~doc:"Per-layer cycles, utilization and traffic of one accelerator.")
    Term.(const run $ obs_args $ model_arg $ board_arg $ arch_arg $ top_arg)

(* ------------------------------------------------------------ trace *)

let trace_cmd =
  let arch_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ARCH" ~doc:"Accelerator (as for $(b,eval)).")
  in
  let block_arg =
    Arg.(
      value & opt int 0
      & info [ "block" ] ~docv:"I"
          ~doc:"0-based architecture-block index to trace.")
  in
  let width_arg =
    Arg.(
      value & opt int 100
      & info [ "width" ] ~docv:"COLS" ~doc:"Timeline width in characters.")
  in
  let run model board arch_str block width =
    match arch_of_string model arch_str with
    | Error msg ->
      Format.eprintf "error: %s@." msg;
      1
    | Ok archi -> (
      let built = Builder.Build.build model board archi in
      match Sim.Simulate.trace_block built ~block with
      | None ->
        Format.printf
          "block %d is a single-CE block (sequential; nothing to trace)@."
          block;
        0
      | Some trace ->
        let lo, hi = Sim.Trace.span trace in
        Format.printf "%d tile events over %.0f cycles:@.@."
          (Sim.Trace.tile_count trace)
          (hi -. lo);
        print_string (Sim.Trace.render_gantt ~width trace);
        0)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Simulate one input through a pipelined block and draw its \
          per-engine tile timeline.")
    Term.(const run $ model_arg $ board_arg $ arch_arg $ block_arg $ width_arg)

(* ----------------------------------------------------- models/boards *)

let models_cmd =
  let run () =
    List.iter
      (fun m -> Format.printf "%a@." Cnn.Model.pp_summary m)
      (Cnn.Model_zoo.extended ());
    0
  in
  Cmd.v (Cmd.info "models" ~doc:"List the CNN model zoo.") Term.(const run $ const ())

let boards_cmd =
  let run () =
    List.iter
      (fun b -> Format.printf "%a@." Platform.Board.pp b)
      Platform.Board.all;
    0
  in
  Cmd.v (Cmd.info "boards" ~doc:"List the FPGA boards.") Term.(const run $ const ())

(* --------------------------------------------------------- compress *)

let compress_cmd =
  let arch_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ARCH" ~doc:"Accelerator (as for $(b,eval)).")
  in
  let ratio_arg =
    Arg.(
      value & opt float 2.0
      & info [ "r"; "ratio" ] ~docv:"R" ~doc:"Compression factor (> 1).")
  in
  let run obs model board arch_str ratio =
    with_obs "compress" obs @@ fun () ->
    match arch_of_string model arch_str with
    | Error msg ->
      Format.eprintf "error: %s@." msg;
      1
    | Ok archi ->
      let e = Mccm.Evaluate.evaluate model board archi in
      let b = e.Mccm.Evaluate.breakdown in
      let target, o =
        Mccm.Compression.best_single_target ~board ~ratio b
      in
      Format.printf "Baseline: %a@." Mccm.Metrics.pp e.Mccm.Evaluate.metrics;
      Format.printf
        "Best single compression target at %.1fx (memory-bound segments \
         only): %s@."
        ratio
        (match target with
        | Mccm.Compression.Weights_only -> "weights"
        | Mccm.Compression.Fms_only -> "feature maps"
        | Mccm.Compression.Both -> "both");
      Format.printf
        "  %d segments affected; execution %a -> %a (%.1f%% faster); \
         traffic %a -> %a@."
        o.Mccm.Compression.segments_affected Util.Units.pp_seconds
        o.Mccm.Compression.baseline_time_s Util.Units.pp_seconds
        o.Mccm.Compression.compressed_time_s
        (100.0 *. (1.0 -. (1.0 /. o.Mccm.Compression.speedup)))
        Mccm.Access.pp o.Mccm.Compression.baseline_accesses Mccm.Access.pp
        o.Mccm.Compression.compressed_accesses;
      0
  in
  Cmd.v
    (Cmd.info "compress"
       ~doc:
         "What-if analysis: which operand is worth compressing, and what \
          it buys (Use Case 2).")
    Term.(const run $ obs_args $ model_arg $ board_arg $ arch_arg $ ratio_arg)

(* ----------------------------------------------------------- refine *)

let refine_cmd =
  let objective_arg =
    Arg.(
      value
      & opt (enum [ ("throughput", `Throughput); ("latency", `Latency) ])
          `Throughput
      & info [ "o"; "objective" ] ~docv:"OBJ"
          ~doc:"Objective to improve: $(b,throughput) or $(b,latency).")
  in
  let pipelined_arg =
    Arg.(
      value & opt int 4
      & info [ "p"; "pipelined" ] ~docv:"F"
          ~doc:"Pipelined-block depth of the seed design.")
  in
  let tail_arg =
    Arg.(
      value & opt int 3
      & info [ "t"; "tail" ] ~docv:"S"
          ~doc:"Tail segments of the seed design.")
  in
  let run obs model board objective pipelined tail =
    with_obs "refine" obs @@ fun () ->
    let seed_arch =
      Arch.Custom.balanced model ~pipelined_layers:pipelined
        ~tail_segments:tail
    in
    let seed =
      {
        Arch.Custom.pipelined_layers = pipelined;
        tail_boundaries =
          (match seed_arch.Arch.Block.blocks with
          | _ :: tail_blocks ->
            List.filteri (fun i _ -> i > 0)
              (List.map
                 (fun b -> fst (Arch.Block.layer_range b))
                 tail_blocks)
          | [] -> []);
      }
    in
    let f m =
      match objective with
      | `Throughput -> m.Mccm.Metrics.throughput_ips
      | `Latency -> -.m.Mccm.Metrics.latency_s
    in
    let steps = Dse.Enumerate.local_search ~objective:f model board seed in
    List.iter
      (fun (s : Dse.Enumerate.step) ->
        Format.printf "%-28s %-44s %a@." s.Dse.Enumerate.moved
          (Arch.Notation.to_string
             (Arch.Custom.arch_of_spec model s.Dse.Enumerate.spec))
          Mccm.Metrics.pp s.Dse.Enumerate.metrics)
      steps;
    0
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:
         "Hill-climb a custom design's boundaries toward an objective \
          (Use Case 3's guided exploration).")
    Term.(
      const run $ obs_args $ model_arg $ board_arg $ objective_arg
      $ pipelined_arg $ tail_arg)

(* -------------------------------------------------------- enumerate *)

let enumerate_cmd =
  let ces_arg =
    Arg.(
      value & opt (int_at_least 2) 8
      & info [ "c"; "ces" ] ~docv:"CES"
          ~doc:"Compute-engine count (at least 2): every custom design \
                with exactly $(docv) engines is considered.")
  in
  let max_specs_arg =
    Arg.(
      value & opt (int_at_least 1) 20000
      & info [ "max-specs" ] ~docv:"N"
          ~doc:"Stop listing the space after $(docv) specs (at least 1).")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "domains" ] ~docv:"N"
          ~doc:
            "Parallel OCaml domains to spread the scan over \
             (deterministic: the best design is the same for every \
             $(docv)).")
  in
  let best_arg =
    Arg.(
      value
      & opt (enum [ ("throughput", `Throughput); ("latency", `Latency) ])
          `Throughput
      & info [ "best" ] ~docv:"OBJ"
          ~doc:"Objective to optimise: $(b,throughput) or $(b,latency).")
  in
  let no_prune_arg =
    Arg.(
      value & flag
      & info [ "no-prune" ]
          ~doc:
            "Disable the admissible-bound prune (every spec is \
             evaluated; the chosen design is unchanged).")
  in
  let no_clamp_arg =
    Arg.(
      value & flag
      & info [ "no-clamp" ]
          ~doc:
            "Honour $(b,-j) exactly instead of clamping it to the \
             machine's recommended domain count.  The chosen design is \
             unchanged; useful for exercising the multi-domain path on \
             small machines.")
  in
  let run obs model board ces max_specs domains best no_prune no_clamp =
    with_obs "enumerate" obs @@ fun () ->
    let started = Unix.gettimeofday () in
    let winner, stats =
      Dse.Enumerate.exhaustive_best ~max_specs ~domains
        ~clamp:(not no_clamp) ~prune:(not no_prune) ~objective:best ~ces
        model board
    in
    let elapsed = Unix.gettimeofday () -. started in
    Format.printf
      "%d specs enumerated, %d evaluated, %d pruned (%.1f%%), %d \
       domain(s), %.2f s (%.0f specs/s)@."
      stats.Dse.Enumerate.enumerated stats.Dse.Enumerate.evaluated
      stats.Dse.Enumerate.pruned
      (100.0
      *. float_of_int stats.Dse.Enumerate.pruned
      /. float_of_int (max 1 stats.Dse.Enumerate.enumerated))
      stats.Dse.Enumerate.domains_used elapsed
      (float_of_int stats.Dse.Enumerate.enumerated
      /. Float.max 1e-9 elapsed);
    match winner with
    | None ->
      Format.printf "no feasible design with %d CEs@." ces;
      1
    | Some e ->
      Format.printf "best %s: %-40s %a@."
        (match best with
        | `Throughput -> "throughput"
        | `Latency -> "latency")
        (Arch.Notation.to_string
           (Arch.Custom.arch_of_spec model e.Dse.Explore.spec))
        Mccm.Metrics.pp e.Dse.Explore.metrics;
      0
  in
  Cmd.v
    (Cmd.info "enumerate"
       ~doc:
         "Search every custom design at a fixed CE count with a \
          bound-pruned, Domains-parallel scan and print the best design \
          for an objective.")
    Term.(
      const run $ obs_args $ model_arg $ board_arg $ ces_arg $ max_specs_arg
      $ domains_arg $ best_arg $ no_prune_arg $ no_clamp_arg)

(* ------------------------------------------------------------ serve *)

let socket_arg =
  Arg.(
    value
    & opt string "mccm.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the evaluation daemon.")

let serve_cmd =
  let workers_arg =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains for the evaluation pool (0 = the runtime's \
             recommended domain count).")
  in
  let queue_arg =
    Arg.(
      value & opt int 256
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Bounded pending-request queue; beyond it requests are \
             refused immediately with an $(i,overloaded) reply.")
  in
  let batch_arg =
    Arg.(
      value & opt int 16
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Maximum consecutive same-session evaluate requests served \
             through one memoized batch (1 disables batching).")
  in
  let max_frame_arg =
    Arg.(
      value
      & opt int Serve.Protocol.default_max_frame_bytes
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Per-frame size cap; larger frames get an \
                $(i,oversized_frame) reply.")
  in
  let store_arch_arg =
    Arg.(
      value & flag
      & info [ "store-arch" ]
          ~doc:
            "Let sessions keep whole-architecture results across \
             requests.  Faster for workloads that revisit the same \
             design, but the footprint grows with distinct designs \
             seen; off by default so a long-lived daemon's RSS stays \
             flat.")
  in
  let telemetry_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "Append one JSONL stats snapshot (the $(b,stats) reply \
             shape) to $(docv) every telemetry tick.")
  in
  let prom_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "Maintain $(docv) as a Prometheus text-format export, \
             replaced atomically (tmp + rename) every telemetry tick — \
             point a node_exporter textfile collector or a scraper \
             sidecar at it.")
  in
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "telemetry-interval" ] ~docv:"SECONDS"
          ~doc:"Telemetry writer tick period.")
  in
  let flight_cap_arg =
    Arg.(
      value & opt int 512
      & info [ "flight-cap" ] ~docv:"N"
          ~doc:
            "Per-domain flight-recorder ring capacity (0 disables the \
             recorder; the $(b,recent) op then reports it disabled).")
  in
  let slow_ms_arg =
    Arg.(
      value & opt float 50.0
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Requests at least $(docv) milliseconds of evaluation time \
             are retained by the flight recorder beyond ring eviction.")
  in
  let cache_cap_arg =
    Arg.(
      value & opt int 4096
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:
            "Content-addressed result-cache capacity in entries \
             (striped LRU).  A repeated evaluate payload is answered \
             from the reader path, bit-identical and without queueing; \
             identical concurrent requests coalesce onto one \
             evaluation.  0 disables the cache.")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Disable the result cache and single-flight coalescing \
             (same as $(b,--cache-capacity) $(i,0)).")
  in
  let run obs socket workers queue_cap batch max_frame store_arch telemetry
      prom interval flight_cap slow_ms cache_cap no_cache =
    with_obs "serve" obs @@ fun () ->
    let cfg = Serve.Daemon.default ~socket_path:socket in
    let cfg =
      {
        cfg with
        Serve.Daemon.workers =
          (if workers > 0 then workers else cfg.Serve.Daemon.workers);
        queue_capacity = queue_cap;
        batch_limit = batch;
        max_frame_bytes = max_frame;
        store_arch;
        flight_capacity = flight_cap;
        flight_slow_ms = slow_ms;
        cache_capacity = (if no_cache then 0 else max 0 cache_cap);
        telemetry_path = telemetry;
        prom_path = prom;
        telemetry_interval_s = interval;
      }
    in
    match Serve.Daemon.create cfg with
    | exception Failure msg ->
      Format.eprintf "error: %s@." msg;
      1
    | d ->
      (* stop only flips an atomic, so it is legal in a signal context;
         run returns after the graceful drain. *)
      let on_signal _ = Serve.Daemon.stop d in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      Format.printf "mccm daemon (%s) listening on %s (%d workers)@."
        Serve.Protocol.version socket
        (Serve.Daemon.config d).Serve.Daemon.workers;
      Serve.Daemon.run d;
      Format.printf "drained; %d requests served@."
        (match List.assoc_opt "completed" (Serve.Daemon.counters d) with
        | Some n -> n
        | None -> 0);
      0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent evaluation daemon: one process pays model \
          table and plan-cache warm-up once and serves evaluate / \
          explore / enumerate / validate requests over a Unix-domain \
          socket (newline-delimited JSON).")
    Term.(
      const run $ obs_args $ socket_arg $ workers_arg $ queue_arg $ batch_arg
      $ max_frame_arg $ store_arch_arg $ telemetry_arg $ prom_arg
      $ interval_arg $ flight_cap_arg $ slow_ms_arg $ cache_cap_arg
      $ no_cache_arg)

(* ----------------------------------------------------------- client *)

let client_cmd =
  let op_arg =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun o -> (Serve.Protocol.op_to_string o, o)) Serve.Protocol.all_ops))) None
      & info [] ~docv:"OP"
          ~doc:
            "Request: $(b,ping), $(b,evaluate), $(b,explore), \
             $(b,enumerate), $(b,validate), $(b,stats), $(b,health), \
             $(b,recent), $(b,sleep) or $(b,shutdown).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"MS"
          ~doc:
            "Relative deadline; the daemon refuses the request with \
             $(i,deadline_exceeded) once the budget expires before \
             evaluation starts.")
  in
  let params_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "params" ] ~docv:"JSON"
          ~doc:
            "Raw request parameters as a JSON object; overrides every \
             other parameter option.")
  in
  let str_opt name doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv:"S" ~doc)
  in
  let int_opt name doc =
    Arg.(value & opt (some int) None & info [ name ] ~docv:"N" ~doc)
  in
  let model_arg = str_opt "model" "Model zoo abbreviation (see $(b,mccm models))." in
  let board_arg = str_opt "board" "Board catalogue name (see $(b,mccm boards))." in
  let arch_arg = str_opt "arch" "Accelerator shorthand or paper notation." in
  let objective_arg = str_opt "objective" "enumerate objective: throughput|latency." in
  let samples_arg = int_opt "samples" "explore/validate sample count." in
  let seed_arg = int_opt "seed" "PRNG seed." in
  let ces_arg = int_opt "ces" "enumerate CE count." in
  let max_specs_arg = int_opt "max-specs" "enumerate spec cap." in
  let n_arg = int_opt "n" "recent flight-record count." in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Machine-readable output: one compact JSON object on \
             stdout, $(b,{\"ok\":true,\"result\":..}) or \
             $(b,{\"ok\":false,\"error\":{\"code\":..,\"message\":..}}) \
             (still exit 1 on error).")
  in
  let run obs socket op deadline_ms raw model board arch objective samples
      seed ces max_specs n json =
    with_obs "client" obs @@ fun () ->
    let params =
      match raw with
      | Some text -> (
        match Util.Json.parse text with
        | Ok j -> j
        | Error msg -> failwith (Printf.sprintf "--params: %s" msg))
      | None ->
        let num = Option.map float_of_int in
        Util.Json.obj
          [
            ("model", Option.map (fun s -> Util.Json.Str s) model);
            ("board", Option.map (fun s -> Util.Json.Str s) board);
            ("arch", Option.map (fun s -> Util.Json.Str s) arch);
            ("objective", Option.map (fun s -> Util.Json.Str s) objective);
            ("samples", Option.map (fun n -> Util.Json.Num n) (num samples));
            ("seed", Option.map (fun n -> Util.Json.Num n) (num seed));
            ("ces", Option.map (fun n -> Util.Json.Num n) (num ces));
            ( "max_specs",
              Option.map (fun n -> Util.Json.Num n) (num max_specs) );
            ("n", Option.map (fun n -> Util.Json.Num n) (num n));
          ]
    in
    let report_error code msg =
      if json then
        print_endline
          (Util.Json.to_string
             (Util.Json.Obj
                [
                  ("ok", Util.Json.Bool false);
                  ( "error",
                    Util.Json.Obj
                      [
                        ("code", Util.Json.Str code);
                        ("message", Util.Json.Str msg);
                      ] );
                ]))
      else Format.eprintf "error: %s: %s@." code msg;
      1
    in
    match Serve.Client.connect socket with
    | Error msg -> report_error "transport" msg
    | Ok c ->
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          match Serve.Client.call ?deadline_ms c op params with
          | Ok result ->
            if json then
              print_endline
                (Util.Json.to_string
                   (Util.Json.Obj
                      [ ("ok", Util.Json.Bool true); ("result", result) ]))
            else print_endline (Util.Json.to_string_pretty result);
            0
          | Error (code, msg) -> report_error code msg)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running $(b,mccm serve) daemon and print \
          the JSON result.")
    Term.(
      const run $ obs_args $ socket_arg $ op_arg $ deadline_arg $ params_arg
      $ model_arg $ board_arg $ arch_arg $ objective_arg $ samples_arg
      $ seed_arg $ ces_arg $ max_specs_arg $ n_arg $ json_arg)

(* -------------------------------------------------------------- top *)

(* Live daemon dashboard: poll [stats], decode the exact metrics
   snapshot, and turn consecutive snapshots into interval rates and
   interval latency quantiles via Metric.delta.  One connection for the
   whole watch — the polls themselves are served inline by the daemon's
   reader thread, so the dashboard keeps refreshing even when every
   worker is busy. *)
let top_cmd =
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Refresh period (clamped to at least 0.1 s).")
  in
  let count_arg =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) refreshes; 0 runs until interrupted or \
             the daemon goes away.")
  in
  let run socket interval count =
    let module Json = Util.Json in
    let module Metric = Mccm_obs.Metric in
    let interval = Float.max 0.1 interval in
    let number name j = Option.bind (Json.member name j) Json.number in
    let counter_of reply name =
      match
        Option.bind (Json.member "counters" reply) (Json.member name)
      with
      | Some v -> ( match Json.number v with Some f -> int_of_float f | None -> 0)
      | None -> 0
    in
    let rejected reply =
      counter_of reply "rejected_overloaded"
      + counter_of reply "rejected_deadline"
      + counter_of reply "rejected_shutdown"
      + counter_of reply "rejected_parse"
      + counter_of reply "rejected_oversized"
    in
    let errors reply =
      counter_of reply "errors_bad_params" + counter_of reply "errors_internal"
    in
    (* "serve.<op>.latency" -> Some "<op>" *)
    let op_of_latency name =
      let prefix = "serve." and suffix = ".latency" in
      let n = String.length name in
      let pn = String.length prefix and sn = String.length suffix in
      if n > pn + sn && String.sub name 0 pn = prefix
         && String.sub name (n - sn) sn = suffix
      then Some (String.sub name pn (n - pn - sn))
      else None
    in
    let pp_ms h q =
      Printf.sprintf "%.2f ms" (1e3 *. Metric.quantile h ~q)
    in
    let render reply ~(window : Metric.snapshot) ~dt ~prev_counters =
      let buf = Buffer.create 1024 in
      let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
      let snap =
        match Option.map Metric.of_json (Json.member "metrics" reply) with
        | Some (Ok s) -> Some s
        | _ -> None
      in
      let version =
        match Json.member "version" reply with
        | Some (Json.Str v) -> v
        | _ -> "?"
      in
      let draining =
        match Json.member "draining" reply with
        | Some (Json.Bool b) -> b
        | _ -> false
      in
      let gauge name =
        Option.bind snap (fun s -> List.assoc_opt name s.Metric.gauges)
      in
      line "mccm top — %s · %s · up %.0f s · %d workers%s" socket version
        (Option.value ~default:0.0 (number "uptime_s" reply))
        (int_of_float (Option.value ~default:0.0 (number "workers" reply)))
        (if draining then " · DRAINING" else "");
      line "queue %d/%d (peak %s) · sessions %d · window %.1f s"
        (int_of_float (Option.value ~default:0.0 (number "queue_depth" reply)))
        (int_of_float
           (Option.value ~default:0.0 (number "queue_capacity" reply)))
        (match gauge "serve.queue.peak" with
        | Some p -> Printf.sprintf "%.0f" p
        | None -> "-")
        (int_of_float (Option.value ~default:0.0 (number "sessions" reply)))
        dt;
      let window_of label total =
        total - Option.value ~default:0 (List.assoc_opt label prev_counters)
      in
      let cache_num name =
        match
          Option.bind (Json.member "cache" reply) (fun c ->
              Option.bind (Json.member name c) Json.number)
        with
        | Some f -> int_of_float f
        | None -> 0
      in
      let wh = window_of "cache_hits" (counter_of reply "cache_hits") in
      let wm = window_of "cache_misses" (counter_of reply "cache_misses") in
      line "cache %d/%d entries · window hit rate %s · coalesced %d"
        (cache_num "entries") (cache_num "capacity")
        (if wh + wm > 0 then
           Printf.sprintf "%.0f%%"
             (100.0 *. float_of_int wh /. float_of_int (wh + wm))
         else "-")
        (counter_of reply "cache_coalesced");
      let activity =
        Util.Table.create ~title:"activity"
          ~columns:
            [ ("counter", Util.Table.Left); ("total", Util.Table.Right);
              ("window", Util.Table.Right); ("rate", Util.Table.Right) ]
          ()
      in
      List.iter
        (fun (label, total) ->
          let before =
            Option.value ~default:0 (List.assoc_opt label prev_counters)
          in
          let d = total - before in
          Util.Table.add_row activity
            [ label; string_of_int total; string_of_int d;
              Printf.sprintf "%.1f/s" (float_of_int d /. dt) ])
        [
          ("requests", counter_of reply "requests");
          ("completed", counter_of reply "completed");
          ("replies", counter_of reply "replies");
          ("batches", counter_of reply "batches");
          ("cache_hits", counter_of reply "cache_hits");
          ("cache_misses", counter_of reply "cache_misses");
          ("cache_coalesced", counter_of reply "cache_coalesced");
          ("cache_evictions", counter_of reply "cache_evictions");
          ("registry_full", counter_of reply "registry_full");
          ("rejected", rejected reply);
          ("errors", errors reply);
        ];
      Buffer.add_string buf (Util.Table.render activity);
      Buffer.add_char buf '\n';
      (match snap with
      | None -> ()
      | Some snap ->
        let rows =
          List.filter_map
            (fun (name, life) ->
              match op_of_latency name with
              | Some op when life.Metric.count > 0 ->
                let win =
                  Option.value ~default:Metric.{ life with count = 0; samples = [||] }
                    (List.assoc_opt name window.Metric.histograms)
                in
                (* interval quantiles when the window saw traffic,
                   lifetime otherwise *)
                let h =
                  if win.Metric.count > 0 && Array.length win.Metric.samples > 0
                  then win
                  else life
                in
                Some
                  [ op; string_of_int win.Metric.count;
                    string_of_int life.Metric.count;
                    pp_ms h 0.5; pp_ms h 0.95; pp_ms h 0.99 ]
              | _ -> None)
            snap.Metric.histograms
        in
        if rows <> [] then begin
          let lat =
            Util.Table.create ~title:"latency by op (window, lifetime fallback)"
              ~columns:
                [ ("op", Util.Table.Left); ("window n", Util.Table.Right);
                  ("total n", Util.Table.Right); ("p50", Util.Table.Right);
                  ("p95", Util.Table.Right); ("p99", Util.Table.Right) ]
              ()
          in
          List.iter (Util.Table.add_row lat) rows;
          Buffer.add_string buf (Util.Table.render lat);
          Buffer.add_char buf '\n'
        end);
      Buffer.contents buf
    in
    match Serve.Client.connect socket with
    | Error msg ->
      Format.eprintf "error: %s@." msg;
      1
    | Ok c ->
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let tty = Unix.isatty Unix.stdout in
          let prev = ref None in
          let rec loop i =
            match Serve.Client.stats ~timeout_s:5.0 c with
            | Error (code, msg) ->
              if i = 0 then begin
                Format.eprintf "error: %s: %s@." code msg;
                1
              end
              else begin
                Format.printf "daemon gone (%s: %s)@." code msg;
                0
              end
            | Ok reply ->
              let now = Unix.gettimeofday () in
              let snap =
                match Option.map Metric.of_json (Json.member "metrics" reply) with
                | Some (Ok s) -> s
                | _ -> { Metric.counters = []; gauges = []; histograms = [] }
              in
              let counter_keys =
                [ "requests"; "completed"; "replies"; "batches";
                  "cache_hits"; "cache_misses"; "cache_coalesced";
                  "cache_evictions"; "registry_full" ]
              in
              let cur_counters =
                ("rejected", rejected reply) :: ("errors", errors reply)
                :: List.map (fun k -> (k, counter_of reply k)) counter_keys
              in
              let dt, prev_counters, prev_snap =
                match !prev with
                | Some (t0, counters0, snap0) ->
                  (Float.max 1e-9 (now -. t0), counters0, snap0)
                | None ->
                  (* first frame: the window is the daemon's whole life *)
                  ( Float.max 1e-9
                      (Option.value ~default:interval (number "uptime_s" reply)),
                    [],
                    { Metric.counters = []; gauges = []; histograms = [] } )
              in
              let window = Metric.delta snap prev_snap in
              prev := Some (now, cur_counters, snap);
              let frame = render reply ~window ~dt ~prev_counters in
              if tty then print_string "\027[2J\027[H";
              print_string frame;
              flush stdout;
              if count > 0 && i + 1 >= count then 0
              else begin
                Unix.sleepf interval;
                loop (i + 1)
              end
          in
          loop 0)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a running $(b,mccm serve) daemon: poll \
          $(b,stats), difference consecutive exact metric snapshots, \
          and show throughput / rejection rates and per-op interval \
          latency quantiles.")
    Term.(const run $ socket_arg $ interval_arg $ count_arg)

let () =
  let doc = "Analytical cost model for multiple compute-engine CNN accelerators" in
  let info = Cmd.info "mccm" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info
          [ eval_cmd; sweep_cmd; explore_cmd; validate_cmd; compress_cmd;
            refine_cmd; enumerate_cmd; layers_cmd; trace_cmd; models_cmd;
            boards_cmd; serve_cmd; client_cmd; top_cmd ]))
