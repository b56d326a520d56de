(* Tests for exhaustive enumeration and local search over custom
   designs, plus the builder's ablation knobs. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let mobv2 = Cnn.Model_zoo.mobilenet_v2 ()
let board = Platform.Board.vcu108

(* -------------------------------------------------------- enumerate *)

let test_enumeration_counts_match_space () =
  (* The enumerated count must equal the analytic space size when under
     the cap. *)
  List.iter
    (fun (n, ces) ->
      let specs =
        Dse.Enumerate.enumerate_specs ~num_layers:n ~ces ~max_specs:100000
      in
      check
        (Printf.sprintf "n=%d ces=%d" n ces)
        (int_of_float (Dse.Space.designs_for_ce_count ~num_layers:n ~ces))
        (List.length specs))
    [ (4, 2); (4, 3); (5, 3); (8, 4); (10, 3); (12, 5) ]

let test_enumeration_specs_distinct_and_valid () =
  let n = 10 and ces = 4 in
  let specs =
    Dse.Enumerate.enumerate_specs ~num_layers:n ~ces ~max_specs:100000
  in
  check "distinct" (List.length specs)
    (List.length (List.sort_uniq compare specs));
  List.iter
    (fun spec ->
      check "exact CE count" ces (Arch.Custom.total_ces spec);
      (* Must materialise without raising. *)
      let model =
        (* a synthetic 10-layer chain *)
        let layers =
          List.init n (fun i ->
              Cnn.Layer.v ~index:i ~name:(Printf.sprintf "l%d" i)
                ~kind:Cnn.Layer.Standard
                ~in_shape:(Cnn.Shape.v ~channels:8 ~height:16 ~width:16)
                ~out_channels:8 ~kernel:3 ~stride:1 ~padding:1 ())
        in
        Cnn.Model.v ~name:"Chain10" ~abbreviation:"C10" ~layers
      in
      ignore (Arch.Custom.arch_of_spec model spec))
    specs

let test_enumeration_cap () =
  let specs =
    Dse.Enumerate.enumerate_specs ~num_layers:52 ~ces:8 ~max_specs:500
  in
  check "capped" 500 (List.length specs)

let test_exhaustive_small () =
  let evaluated = Dse.Enumerate.exhaustive ~ces:2 mobv2 board in
  (* 52 layers, 2 CEs: f=1, s=1 -> exactly one design. *)
  check "one design" 1 (List.length evaluated);
  checkb "feasible" true
    (List.for_all
       (fun (e : Dse.Explore.evaluated) ->
         e.Dse.Explore.metrics.Mccm.Metrics.feasible)
       evaluated)

(* ----------------------------------------------------- local search *)

let objective m = m.Mccm.Metrics.throughput_ips

let test_local_search_monotone () =
  let seed = { Arch.Custom.pipelined_layers = 3; tail_boundaries = [ 20 ] } in
  let steps = Dse.Enumerate.local_search ~objective mobv2 board seed in
  checkb "has seed" true (List.length steps >= 1);
  let scores =
    List.map
      (fun (s : Dse.Enumerate.step) -> objective s.Dse.Enumerate.metrics)
      steps
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  checkb "strictly improving" true (increasing scores)

let test_local_search_beats_seed () =
  let seed = { Arch.Custom.pipelined_layers = 2; tail_boundaries = [ 30 ] } in
  let steps = Dse.Enumerate.local_search ~objective mobv2 board seed in
  match (steps, List.rev steps) with
  | first :: _, last :: _ ->
    checkb "final >= seed" true
      (objective last.Dse.Enumerate.metrics
      >= objective first.Dse.Enumerate.metrics)
  | _ -> Alcotest.fail "no steps"

let test_local_search_respects_max_steps () =
  let seed = { Arch.Custom.pipelined_layers = 2; tail_boundaries = [ 30 ] } in
  let steps =
    Dse.Enumerate.local_search ~objective ~max_steps:1 mobv2 board seed
  in
  checkb "at most seed + 1" true (List.length steps <= 2)

let test_local_search_specs_valid () =
  let seed = { Arch.Custom.pipelined_layers = 4; tail_boundaries = [ 15; 30 ] } in
  let steps = Dse.Enumerate.local_search ~objective mobv2 board seed in
  List.iter
    (fun (s : Dse.Enumerate.step) ->
      ignore (Arch.Custom.arch_of_spec mobv2 s.Dse.Enumerate.spec))
    steps

let test_local_search_seed_first () =
  let seed = { Arch.Custom.pipelined_layers = 3; tail_boundaries = [ 20 ] } in
  let steps = Dse.Enumerate.local_search ~objective mobv2 board seed in
  match steps with
  | [] -> Alcotest.fail "no steps"
  | first :: _ ->
    checkb "trajectory starts at the seed" true
      (first.Dse.Enumerate.spec = seed);
    checkb "seed metrics match direct evaluation" true
      (first.Dse.Enumerate.metrics
      = Mccm.Evaluate.metrics mobv2 board (Arch.Custom.arch_of_spec mobv2 seed))

let test_local_search_reaches_local_optimum () =
  (* With an unbounded step budget the climb must stop only when no
     single-move neighbour improves the objective — check that claim
     against the exported neighbourhood itself. *)
  let seed = { Arch.Custom.pipelined_layers = 3; tail_boundaries = [ 20 ] } in
  let steps =
    Dse.Enumerate.local_search ~objective ~max_steps:1000 mobv2 board seed
  in
  let final = List.nth steps (List.length steps - 1) in
  let best = objective final.Dse.Enumerate.metrics in
  let session = Mccm.Eval_session.create mobv2 board in
  List.iter
    (fun (move, spec) ->
      let m =
        Mccm.Eval_session.metrics session (Arch.Custom.arch_of_spec mobv2 spec)
      in
      checkb
        (Printf.sprintf "no improving neighbour (%s)" move)
        true
        (objective m <= best))
    (Dse.Enumerate.neighbours
       ~num_layers:(Cnn.Model.num_layers mobv2)
       final.Dse.Enumerate.spec)

let test_local_search_session_invisible () =
  (* The session cache must not change the trajectory: same moves, same
     specs, bit-identical metrics with and without memoization. *)
  let seed = { Arch.Custom.pipelined_layers = 4; tail_boundaries = [ 15; 30 ] } in
  let run memoize =
    Dse.Enumerate.local_search ~objective
      ~session:(Mccm.Eval_session.create ~memoize mobv2 board)
      mobv2 board seed
  in
  checkb "identical trajectories" true (run true = run false)

let test_exhaustive_prefix_deterministic () =
  (* Enumeration order is lexicographic and independent of the cap, so
     a shorter run must be a prefix of a longer one. *)
  let run max_specs = Dse.Enumerate.exhaustive ~max_specs ~ces:3 mobv2 board in
  let short = run 60 and long = run 120 in
  checkb "short run is a prefix" true
    (List.length short <= List.length long);
  List.iteri
    (fun i (e : Dse.Explore.evaluated) ->
      let e' = List.nth long i in
      checkb "same spec" true (e.Dse.Explore.spec = e'.Dse.Explore.spec);
      checkb "same metrics" true (e.Dse.Explore.metrics = e'.Dse.Explore.metrics))
    short

let test_exhaustive_session_invisible () =
  let run memoize =
    Dse.Enumerate.exhaustive
      ~session:(Mccm.Eval_session.create ~memoize mobv2 board)
      ~max_specs:80 ~ces:4 mobv2 board
  in
  checkb "identical evaluations" true (run true = run false)

(* --------------------------------------- exhaustive_best bit-exactness *)

(* A 10-layer chain of identical layers: a dense plateau of equal-score
   designs, the hardest case for tie-breaking determinism. *)
let chain10 =
  let layers =
    List.init 10 (fun i ->
        Cnn.Layer.v ~index:i ~name:(Printf.sprintf "u%d" i)
          ~kind:Cnn.Layer.Standard
          ~in_shape:(Cnn.Shape.v ~channels:8 ~height:16 ~width:16)
          ~out_channels:8 ~kernel:3 ~stride:1 ~padding:1 ())
  in
  Cnn.Model.v ~name:"Chain10" ~abbreviation:"C10" ~layers

let winner_testable =
  let pp ppf = function
    | None -> Format.fprintf ppf "none"
    | Some (e : Dse.Explore.evaluated) ->
      Format.fprintf ppf "{f=%d; b=[%s]} %.17g"
        e.Dse.Explore.spec.Arch.Custom.pipelined_layers
        (String.concat ";"
           (List.map string_of_int
              e.Dse.Explore.spec.Arch.Custom.tail_boundaries))
        e.Dse.Explore.metrics.Mccm.Metrics.throughput_ips
  in
  Alcotest.testable pp ( = )

(* Every (prune, domains) combination must return the winner of the
   unpruned one-domain reference scan — same spec, bit-identical
   metrics. *)
let test_bit_exact () =
  List.iter
    (fun (model, ces, objective, max_specs) ->
      let reference, _ =
        Dse.Enumerate.exhaustive_best ~max_specs ~prune:false ~objective ~ces
          model board
      in
      List.iter
        (fun (label, prune, domains) ->
          let got, stats =
            Dse.Enumerate.exhaustive_best ~max_specs ~prune ~domains
              ~clamp:false ~objective ~ces model board
          in
          Alcotest.check winner_testable label reference got;
          check (label ^ ": specs accounted for")
            stats.Dse.Enumerate.enumerated
            (stats.Dse.Enumerate.evaluated + stats.Dse.Enumerate.pruned))
        [
          ("pruned", true, 1);
          ("pruned 2 domains", true, 2);
          ("pruned 4 domains", true, 4);
          ("unpruned 2 domains", false, 2);
          ("unpruned 4 domains", false, 4);
        ])
    [
      (mobv2, 3, `Throughput, 800);
      (mobv2, 4, `Throughput, 600);
      (mobv2, 3, `Latency, 800);
      (chain10, 4, `Throughput, 10000);
      (chain10, 4, `Latency, 10000);
    ]

(* The pooled path must reproduce the reference winner too.  One shared
   pool serves every configuration and workload back-to-back, so
   per-worker state leaking between runs (a stale fork, a stuck round)
   would surface as a wrong winner or a hang here. *)
let test_pooled_bit_exact () =
  let pool = Util.Parallel.Pool.create ~clamp:false ~domains:4 () in
  Fun.protect ~finally:(fun () -> Util.Parallel.Pool.shutdown pool)
  @@ fun () ->
  List.iter
    (fun (model, ces, objective, max_specs) ->
      let reference, _ =
        Dse.Enumerate.exhaustive_best ~max_specs ~prune:false ~objective ~ces
          model board
      in
      List.iter
        (fun (label, prune) ->
          let got, stats =
            Dse.Enumerate.exhaustive_best ~max_specs ~prune ~pool ~objective
              ~ces model board
          in
          Alcotest.check winner_testable label reference got;
          check (label ^ ": ran on the pool") 4
            stats.Dse.Enumerate.domains_used;
          check (label ^ ": specs accounted for")
            stats.Dse.Enumerate.enumerated
            (stats.Dse.Enumerate.evaluated + stats.Dse.Enumerate.pruned))
        [ ("pooled pruned", true); ("pooled unpruned", false) ])
    [
      (mobv2, 3, `Throughput, 800);
      (mobv2, 4, `Throughput, 600);
      (mobv2, 3, `Latency, 800);
      (chain10, 4, `Throughput, 10000);
      (chain10, 4, `Latency, 10000);
    ]

(* On the uniform chain nearly every design ties: the returned winner
   must still be the lexicographically first one, with pruning on and
   across chunk merges. *)
let test_tie_breaking_lex_first () =
  let reference, _ =
    Dse.Enumerate.exhaustive_best ~max_specs:10000 ~prune:false
      ~objective:`Throughput ~ces:3 chain10 board
  in
  List.iter
    (fun domains ->
      let got, _ =
        Dse.Enumerate.exhaustive_best ~max_specs:10000 ~domains ~clamp:false
          ~objective:`Throughput ~ces:3 chain10 board
      in
      Alcotest.check winner_testable
        (Printf.sprintf "tie goes to the lex-first spec, %d domain(s)" domains)
        reference got)
    [ 1; 4 ];
  (match reference with
  | Some e ->
    (* The lex-first spec of ces=3 is f=1 with the earliest boundary. *)
    check "lex-first pipelined depth" 1
      e.Dse.Explore.spec.Arch.Custom.pipelined_layers
  | None -> Alcotest.fail "no winner");
  ()

(* Pruning must actually pay off on a deep ResNet workload —
   homogeneous mid-network layers make the floors tight: real pruning,
   winner preserved.  (On depthwise networks like MobileNetV2 the
   shared-engine parallelism coupling keeps per-layer floors loose and
   pruning near zero; that is expected, not a bug.) *)
let test_pruned_scan_prunes () =
  let res152 = Cnn.Model_zoo.resnet152 () in
  let reference, _ =
    Dse.Enumerate.exhaustive_best ~max_specs:30000 ~prune:false
      ~objective:`Throughput ~ces:10 res152 board
  in
  let got, stats =
    Dse.Enumerate.exhaustive_best ~max_specs:30000 ~prune:true
      ~objective:`Throughput ~ces:10 res152 board
  in
  Alcotest.check winner_testable "winner identical under pruning" reference
    got;
  checkb "pruned something" true (stats.Dse.Enumerate.pruned > 0);
  checkb "fewer evaluations than specs" true
    (stats.Dse.Enumerate.evaluated < stats.Dse.Enumerate.enumerated);
  check "accounting" stats.Dse.Enumerate.enumerated
    (stats.Dse.Enumerate.evaluated + stats.Dse.Enumerate.pruned)

let test_scan_reports_no_nodes () =
  let _, stats =
    Dse.Enumerate.exhaustive_best ~max_specs:100 ~prune:true
      ~objective:`Throughput ~ces:3 mobv2 board
  in
  check "nodes is always 0" 0 stats.Dse.Enumerate.nodes

(* --------------------------------------------------- builder options *)

let res50 = Cnn.Model_zoo.resnet50 ()

let metrics_with options archi =
  (Mccm.Evaluate.run (Builder.Build.build ~options res50 board archi))
    .Mccm.Evaluate.metrics

let test_naive_parallelism_never_faster () =
  List.iter
    (fun (_, archi) ->
      let opt = metrics_with Builder.Build.default_options archi in
      let naive =
        metrics_with
          { Builder.Build.default_options with parallelism = `Naive }
          archi
      in
      checkb "optimized latency <= naive" true
        (opt.Mccm.Metrics.latency_s <= naive.Mccm.Metrics.latency_s *. 1.001))
    [
      ("seg", Arch.Baselines.segmented ~ces:4 res50);
      ("rr", Arch.Baselines.segmented_rr ~ces:4 res50);
      ("hyb", Arch.Baselines.hybrid ~ces:4 res50);
    ]

let test_balanced_pe_allocation () =
  (* Cycle balancing must narrow the busy-time spread of a round-robin
     pipeline's engines (or leave it unchanged at a fixed point). *)
  let spread options =
    let built =
      Builder.Build.build ~options res50 board
        (Arch.Baselines.segmented_rr ~ces:4 res50)
    in
    let cycles =
      Array.map
        (fun e ->
          List.fold_left
            (fun acc i ->
              if
                (Builder.Build.engine_for_layer built i).Engine.Ce.id
                = e.Engine.Ce.id
              then acc + Engine.Ce.layer_cycles e (Cnn.Model.layer res50 i)
              else acc)
            0
            (List.init (Cnn.Model.num_layers res50) Fun.id))
        built.Builder.Build.engines
    in
    let mx = Array.fold_left max 1 cycles in
    let mn = Array.fold_left min max_int cycles in
    float_of_int mx /. float_of_int (max 1 mn)
  in
  let macs = spread Builder.Build.default_options in
  let balanced =
    spread { Builder.Build.default_options with pe_allocation = `Balanced }
  in
  checkb
    (Printf.sprintf "balanced spread %.3f <= macs spread %.3f x 1.05" balanced
       macs)
    true
    (balanced <= macs *. 1.05)

let test_minimal_buffers_tradeoff () =
  List.iter
    (fun archi ->
      let greedy = metrics_with Builder.Build.default_options archi in
      let minimal =
        metrics_with
          { Builder.Build.default_options with buffers = `Minimal }
          archi
      in
      checkb "minimal uses fewer buffers" true
        (minimal.Mccm.Metrics.buffer_bytes <= greedy.Mccm.Metrics.buffer_bytes);
      checkb "minimal never accesses less" true
        (Mccm.Metrics.accesses_bytes minimal
        >= Mccm.Metrics.accesses_bytes greedy))
    [
      Arch.Baselines.segmented ~ces:4 res50;
      Arch.Baselines.segmented_rr ~ces:4 res50;
      Arch.Baselines.hybrid ~ces:4 res50;
    ]

(* ------------------------------------------------ session binding *)

(* A session memoizes one (model, board) pair.  Every entry point that
   takes one must refuse a session of another pair by name — reusing it
   would answer for the session's pair, or index past its table — and
   accept a new but equal model value, which is what the daemon
   resolves for each request. *)
let raises_named ~fn f =
  match f () with
  | _ -> false
  | exception Invalid_argument msg ->
    String.starts_with ~prefix:(fn ^ ": ") msg

let check_binding ~fn run =
  let session = Mccm.Eval_session.create mobv2 board in
  checkb "another board" true
    (raises_named ~fn (fun () -> run ~session mobv2 Platform.Board.zcu102));
  checkb "another model" true
    (raises_named ~fn (fun () -> run ~session res50 board));
  checkb "an equal model value" true
    (run ~session (Cnn.Model_zoo.mobilenet_v2 ()) board
    = run ~session:(Mccm.Eval_session.create mobv2 board) mobv2 board)

let test_exhaustive_binding () =
  check_binding ~fn:"Enumerate.exhaustive" (fun ~session model board ->
      Dse.Enumerate.exhaustive ~max_specs:30 ~session ~ces:3 model board)

let test_exhaustive_best_binding () =
  check_binding ~fn:"Enumerate.exhaustive_best" (fun ~session model board ->
      fst
        (Dse.Enumerate.exhaustive_best ~max_specs:30 ~session
           ~objective:`Throughput ~ces:3 model board))

let test_local_search_binding () =
  let seed =
    { Arch.Custom.pipelined_layers = 2; tail_boundaries = [ 20; 40 ] }
  in
  check_binding ~fn:"Enumerate.local_search" (fun ~session model board ->
      Dse.Enumerate.local_search ~max_steps:2 ~session
        ~objective:(fun m -> m.Mccm.Metrics.throughput_ips)
        model board seed)

(* Queries shaped like the daemon's enumerate op — one session, a newly
   resolved equal model value per call — must reuse the session's table
   and the content-keyed bound floors instead of piling up fresh ones. *)
let test_exhaustive_best_heap_flat () =
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let session = Mccm.Eval_session.create mobv2 board in
  let query () =
    ignore
      (Sys.opaque_identity
         (Dse.Enumerate.exhaustive_best ~max_specs:200 ~session
            ~objective:`Throughput ~ces:3 (Cnn.Model_zoo.mobilenet_v2 ())
            board))
  in
  query ();
  let before = live_words () in
  for _ = 1 to 5 do
    query ()
  done;
  let grown = live_words () - before in
  checkb (Printf.sprintf "live heap grew by %d words" grown) true (grown < 4096)

let () =
  Alcotest.run "enumerate"
    [
      ( "enumeration",
        [
          Alcotest.test_case "counts match space" `Quick
            test_enumeration_counts_match_space;
          Alcotest.test_case "distinct and valid" `Quick
            test_enumeration_specs_distinct_and_valid;
          Alcotest.test_case "cap" `Quick test_enumeration_cap;
          Alcotest.test_case "exhaustive small" `Quick test_exhaustive_small;
          Alcotest.test_case "exhaustive prefix deterministic" `Quick
            test_exhaustive_prefix_deterministic;
          Alcotest.test_case "exhaustive session invisible" `Quick
            test_exhaustive_session_invisible;
        ] );
      ( "local search",
        [
          Alcotest.test_case "monotone" `Quick test_local_search_monotone;
          Alcotest.test_case "beats seed" `Quick test_local_search_beats_seed;
          Alcotest.test_case "max steps" `Quick
            test_local_search_respects_max_steps;
          Alcotest.test_case "valid specs" `Quick test_local_search_specs_valid;
          Alcotest.test_case "seed first" `Quick test_local_search_seed_first;
          Alcotest.test_case "genuine local optimum" `Slow
            test_local_search_reaches_local_optimum;
          Alcotest.test_case "session invisible" `Quick
            test_local_search_session_invisible;
        ] );
      ( "best-first",
        [
          Alcotest.test_case "bit-exact across strategies" `Slow
            test_bit_exact;
          Alcotest.test_case "pooled path bit-exact" `Quick
            test_pooled_bit_exact;
          Alcotest.test_case "ties break lex-first" `Quick
            test_tie_breaking_lex_first;
          Alcotest.test_case "pruned scan prunes on ResNet152" `Slow
            test_pruned_scan_prunes;
          Alcotest.test_case "scan reports no nodes" `Quick
            test_scan_reports_no_nodes;
        ] );
      ( "session binding",
        [
          Alcotest.test_case "exhaustive" `Quick test_exhaustive_binding;
          Alcotest.test_case "exhaustive_best" `Quick
            test_exhaustive_best_binding;
          Alcotest.test_case "local_search" `Quick test_local_search_binding;
          Alcotest.test_case "equal models keep the heap flat" `Quick
            test_exhaustive_best_heap_flat;
        ] );
      ( "builder options",
        [
          Alcotest.test_case "naive parallelism" `Slow
            test_naive_parallelism_never_faster;
          Alcotest.test_case "minimal buffers" `Quick
            test_minimal_buffers_tradeoff;
          Alcotest.test_case "balanced PE allocation" `Quick
            test_balanced_pe_allocation;
        ] );
    ]
