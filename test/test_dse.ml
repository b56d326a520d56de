(* Tests for design-space exploration: space counting, sampling, Pareto
   extraction and best-architecture selection. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-6))

let mobv2 = Cnn.Model_zoo.mobilenet_v2 ()
let xcp = Cnn.Model_zoo.xception ()

(* ------------------------------------------------------------ Space *)

let test_space_small_counts () =
  (* 4 layers, 2 CEs: f=1, s=1 -> one design (tail = layers 2-4). *)
  checkf "n=4 c=2" 1.0 (Dse.Space.designs_for_ce_count ~num_layers:4 ~ces:2);
  (* 4 layers, 3 CEs: (f=1,s=2): C(2,1)=2; (f=2,s=1): 1 -> 3. *)
  checkf "n=4 c=3" 3.0 (Dse.Space.designs_for_ce_count ~num_layers:4 ~ces:3);
  (* Exhaustive check for n=5, c=3: (f=1,s=2):C(3,1)=3; (f=2,s=1):1 ->
     wait also (f=2,s=1) tail=3 layers 1 way; f=1,s=2: tail=4, C(3,1)=3.
     Total 4. *)
  checkf "n=5 c=3" 4.0 (Dse.Space.designs_for_ce_count ~num_layers:5 ~ces:3)

let test_space_xception_magnitude () =
  (* The paper quotes roughly 97.1 billion designs for Xception over CE
     counts 2-11; our composition-based count lands in the same decade. *)
  let total =
    Dse.Space.total_designs
      ~num_layers:(Cnn.Model.num_layers xcp)
      ~ce_counts:(List.init 10 (fun i -> i + 2))
  in
  checkb
    (Printf.sprintf "total %.3g within [1e10, 1e12]" total)
    true
    (total >= 1e10 && total <= 1e12)

let test_space_random_spec_valid () =
  let rng = Util.Prng.create ~seed:1L in
  for _ = 1 to 200 do
    let spec =
      Dse.Space.random_spec rng
        ~num_layers:(Cnn.Model.num_layers mobv2)
        ~ce_counts:(List.init 10 (fun i -> i + 2))
    in
    (* Materialisation validates the spec thoroughly. *)
    let a = Arch.Custom.arch_of_spec mobv2 spec in
    checkb "ces in range" true
      (Arch.Block.total_ces a >= 2 && Arch.Block.total_ces a <= 11)
  done

let test_space_random_deterministic () =
  let draw seed =
    let rng = Util.Prng.create ~seed in
    Dse.Space.random_spec rng ~num_layers:52
      ~ce_counts:(List.init 10 (fun i -> i + 2))
  in
  checkb "same seed same spec" true (draw 5L = draw 5L)

(* ----------------------------------------------------------- Pareto *)

let pt x y = { Dse.Pareto.item = (x, y); objective_up = y; objective_down = x }

let test_pareto_simple () =
  let front = Dse.Pareto.front [ pt 1.0 1.0; pt 2.0 2.0; pt 3.0 1.5 ] in
  (* (3,1.5) is dominated by (2,2); (1,1) and (2,2) survive. *)
  check "two on front" 2 (List.length front)

let test_pareto_duplicates () =
  let front = Dse.Pareto.front [ pt 1.0 1.0; pt 1.0 1.0; pt 1.0 1.0 ] in
  check "one representative" 1 (List.length front)

let test_dominates () =
  checkb "strictly better" true (Dse.Pareto.dominates (pt 1.0 2.0) (pt 2.0 1.0));
  checkb "equal does not dominate" false
    (Dse.Pareto.dominates (pt 1.0 1.0) (pt 1.0 1.0))

let prop_pareto_sound =
  QCheck2.Test.make ~name:"front members are mutually non-dominated" ~count:100
    (Generators.pareto_coords ~max_points:40)
    (fun coords ->
      let pts = List.map (fun (x, y) -> pt x y) coords in
      let front = Dse.Pareto.front pts in
      List.for_all
        (fun a ->
          (* nothing in the input dominates a front member *)
          not (List.exists (fun b -> Dse.Pareto.dominates b a) pts))
        front)

let prop_pareto_complete =
  QCheck2.Test.make ~name:"non-dominated inputs appear on the front"
    ~count:100
    (Generators.pareto_coords ~max_points:30)
    (fun coords ->
      let pts = List.map (fun (x, y) -> pt x y) coords in
      let front = Dse.Pareto.front pts in
      List.for_all
        (fun p ->
          let dominated = List.exists (fun q -> Dse.Pareto.dominates q p) pts in
          dominated
          || List.exists
               (fun (f : (float * float) Dse.Pareto.point) ->
                 f.Dse.Pareto.objective_up = p.Dse.Pareto.objective_up
                 && f.Dse.Pareto.objective_down = p.Dse.Pareto.objective_down)
               front)
        pts)

(* ----------------------------------------------------------- Select *)

let candidate label ?(feasible = true) latency =
  {
    Dse.Select.label;
    metrics =
      {
        Mccm.Metrics.latency_s = latency;
        throughput_ips = 1.0 /. latency;
        buffer_bytes = 100;
        accesses = Mccm.Access.weights 100;
        feasible;
      };
  }

let test_select_tie_rule () =
  let cs = [ candidate "a" 1.0; candidate "b" 1.05; candidate "c" 1.2 ] in
  Alcotest.(check (list string))
    "a and b tie within 10%" [ "a"; "b" ]
    (Dse.Select.winner_labels ~metric:`Latency cs)

let test_select_excludes_infeasible () =
  let cs = [ candidate "bad" ~feasible:false 0.1; candidate "good" 1.0 ] in
  Alcotest.(check (list string))
    "feasible only" [ "good" ]
    (Dse.Select.winner_labels ~metric:`Latency cs)

let test_select_throughput_direction () =
  let cs = [ candidate "slow" 2.0; candidate "fast" 1.0 ] in
  Alcotest.(check (list string))
    "fast wins throughput" [ "fast" ]
    (Dse.Select.winner_labels ~metric:`Throughput cs)

let test_select_empty_when_all_infeasible () =
  let cs = [ candidate "x" ~feasible:false 1.0 ] in
  check "no winners" 0
    (List.length (Dse.Select.winner_labels ~metric:`Latency cs))

(* ---------------------------------------------------------- Explore *)

let test_explore_deterministic () =
  let run () =
    Dse.Explore.run ~seed:7L ~samples:50 mobv2 Platform.Board.vcu110
  in
  let a = run () and b = run () in
  check "same count"
    (List.length a.Dse.Explore.evaluated)
    (List.length b.Dse.Explore.evaluated);
  checkb "same specs" true
    (List.for_all2
       (fun (x : Dse.Explore.evaluated) (y : Dse.Explore.evaluated) ->
         x.Dse.Explore.spec = y.Dse.Explore.spec)
       a.Dse.Explore.evaluated b.Dse.Explore.evaluated)

let test_explore_front_subset () =
  let r = Dse.Explore.run ~seed:3L ~samples:100 mobv2 Platform.Board.vcu110 in
  checkb "front nonempty" true (r.Dse.Explore.front <> []);
  checkb "front within evaluated" true
    (List.for_all
       (fun (p : Dse.Explore.evaluated Dse.Pareto.point) ->
         List.memq p.Dse.Pareto.item r.Dse.Explore.evaluated)
       r.Dse.Explore.front)

let test_explore_parallel_deterministic () =
  let run domains =
    (Dse.Explore.run ~seed:9L ~domains ~samples:60 mobv2 Platform.Board.vcu110)
      .Dse.Explore.evaluated
  in
  let a = run 2 and b = run 2 in
  checkb "same designs across runs" true
    (List.for_all2
       (fun (x : Dse.Explore.evaluated) (y : Dse.Explore.evaluated) ->
         x.Dse.Explore.spec = y.Dse.Explore.spec)
       a b)

let test_explore_domain_count_invariant () =
  (* The design set is drawn from one PRNG stream before any domain is
     spawned, so the whole result — the Pareto front included — is a
     function of the seed alone, never of the parallelism. *)
  let run domains =
    Dse.Explore.run ~seed:11L ~domains ~samples:64 mobv2 Platform.Board.vcu110
  in
  let a = run 1 and b = run 4 in
  checkb "same evaluated specs" true
    (List.for_all2
       (fun (x : Dse.Explore.evaluated) (y : Dse.Explore.evaluated) ->
         x.Dse.Explore.spec = y.Dse.Explore.spec)
       a.Dse.Explore.evaluated b.Dse.Explore.evaluated);
  check "same front size"
    (List.length a.Dse.Explore.front)
    (List.length b.Dse.Explore.front);
  checkb "identical fronts" true
    (List.for_all2
       (fun (p : Dse.Explore.evaluated Dse.Pareto.point)
            (q : Dse.Explore.evaluated Dse.Pareto.point) ->
         p.Dse.Pareto.item.Dse.Explore.spec = q.Dse.Pareto.item.Dse.Explore.spec
         && p.Dse.Pareto.item.Dse.Explore.metrics
            = q.Dse.Pareto.item.Dse.Explore.metrics)
       a.Dse.Explore.front b.Dse.Explore.front)

let test_explore_parallel_matches_metrics () =
  (* Parallel evaluation must compute the same metrics for the same
     specs (the model is pure). *)
  let r = Dse.Explore.run ~seed:4L ~domains:3 ~samples:30 mobv2 Platform.Board.vcu110 in
  List.iter
    (fun (e : Dse.Explore.evaluated) ->
      let archi = Arch.Custom.arch_of_spec mobv2 e.Dse.Explore.spec in
      let m = Mccm.Evaluate.metrics mobv2 Platform.Board.vcu110 archi in
      check "same accesses"
        (Mccm.Metrics.accesses_bytes m)
        (Mccm.Metrics.accesses_bytes e.Dse.Explore.metrics))
    r.Dse.Explore.evaluated

let test_explore_dedupes_duplicates () =
  (* Regression for the duplicate-spec fix: restricting the draw to CE
     counts 2-3 makes the slice tiny (ces=2 has exactly one design), so
     a 60-sample run redraws designs constantly.  [sampled] must keep
     counting every draw while [evaluated] holds each distinct design
     once; the numbers and the front are pinned for the fixed seed. *)
  let r =
    Dse.Explore.run ~seed:21L ~samples:60 ~ce_counts:[ 2; 3 ] mobv2
      Platform.Board.vcu110
  in
  check "sampled counts duplicates" 60 r.Dse.Explore.sampled;
  check "evaluated is deduplicated" 15 (List.length r.Dse.Explore.evaluated);
  let specs =
    List.map (fun (e : Dse.Explore.evaluated) -> e.Dse.Explore.spec)
      r.Dse.Explore.evaluated
  in
  check "specs distinct" 15 (List.length (List.sort_uniq compare specs));
  check "front size" 7 (List.length r.Dse.Explore.front);
  Alcotest.(check (list (pair int (list int))))
    "pinned front specs"
    [ (1, [ 33 ]); (1, [ 36 ]); (1, [ 43 ]); (1, [ 47 ]); (1, [ 51 ]);
      (2, []); (1, []) ]
    (List.map
       (fun (p : Dse.Explore.evaluated Dse.Pareto.point) ->
         let s = p.Dse.Pareto.item.Dse.Explore.spec in
         (s.Arch.Custom.pipelined_layers, s.Arch.Custom.tail_boundaries))
       r.Dse.Explore.front)

let test_explore_evaluates_distinct_once () =
  (* A duplicate draw is dropped before evaluation.  With CE count
     pinned to 2 the slice holds exactly one design, so a 60-sample run
     evaluates it once. *)
  let r =
    Dse.Explore.run ~seed:21L ~samples:60 ~ce_counts:[ 2 ] mobv2
      Platform.Board.vcu110
  in
  check "sampled" 60 r.Dse.Explore.sampled;
  check "distinct" 1 r.Dse.Explore.distinct;
  check "evaluations" 1 r.Dse.Explore.stats.Mccm.Eval_session.evaluations

let test_explore_two_domains_count_once () =
  (* Two domains split the distinct designs between the caller's session
     and a sibling, and the result's counters sum both: each distinct
     design is counted once, and the designs and front match one
     domain's. *)
  let run domains =
    Dse.Explore.run ~seed:13L ~domains ~clamp:false ~samples:200 mobv2
      Platform.Board.vcu110
  in
  let one = run 1 and two = run 2 in
  check "evaluations = distinct" two.Dse.Explore.distinct
    two.Dse.Explore.stats.Mccm.Eval_session.evaluations;
  checkb "same evaluated" true
    (one.Dse.Explore.evaluated = two.Dse.Explore.evaluated);
  checkb "same front" true (one.Dse.Explore.front = two.Dse.Explore.front)

let test_explore_repeat_on_session () =
  (* A second explore with the same seed on one session, as a daemon
     worker serves repeated requests: its designs come out of the
     segment and plan tables, so the session does not grow, and the
     result is the same. *)
  let session = Mccm.Eval_session.create mobv2 Platform.Board.vcu110 in
  let run () =
    Dse.Explore.run ~seed:5L ~samples:300 ~session mobv2 Platform.Board.vcu110
  in
  let view r =
    ( r.Dse.Explore.sampled,
      r.Dse.Explore.distinct,
      r.Dse.Explore.evaluated,
      r.Dse.Explore.front )
  in
  let misses r =
    let st = r.Dse.Explore.stats in
    (st.Mccm.Eval_session.seg_misses, st.Mccm.Eval_session.plan_misses)
  in
  let r1 = run () in
  let r2 = run () in
  checkb "same result" true (view r1 = view r2);
  Alcotest.(check (pair int int))
    "no new segment or plan misses" (misses r1) (misses r2)

let test_improvement_over_self () =
  let r = Dse.Explore.run ~seed:3L ~samples:100 mobv2 Platform.Board.vcu110 in
  match r.Dse.Explore.evaluated with
  | [] -> Alcotest.fail "no designs evaluated"
  | e :: _ -> (
    match Dse.Explore.improvement_over r ~reference:e.Dse.Explore.metrics with
    | None -> Alcotest.fail "self must qualify"
    | Some (buf, thr) ->
      checkb "non-negative improvements" true (buf >= 0.0 && thr >= 0.0))

(* -------------------------------------------------------- Objective *)

let mk_metrics ?(feasible = true) ~latency ~buffers ~accesses () =
  {
    Mccm.Metrics.latency_s = latency;
    throughput_ips = 1.0 /. latency;
    buffer_bytes = buffers;
    accesses = Mccm.Access.weights accesses;
    feasible;
  }

let test_objective_atoms () =
  let reference = mk_metrics ~latency:1.0 ~buffers:100 ~accesses:100 () in
  let better = mk_metrics ~latency:0.5 ~buffers:50 ~accesses:200 () in
  checkf "latency gain 2x" 2.0
    (Dse.Objective.score Dse.Objective.latency ~reference better);
  checkf "throughput gain 2x" 2.0
    (Dse.Objective.score Dse.Objective.throughput ~reference better);
  checkf "buffer gain 2x" 2.0
    (Dse.Objective.score Dse.Objective.buffers ~reference better);
  checkf "access gain 0.5x" 0.5
    (Dse.Objective.score Dse.Objective.accesses ~reference better);
  checkf "reference scores 1" 1.0
    (Dse.Objective.score Dse.Objective.latency ~reference reference)

let test_objective_weighted () =
  let reference = mk_metrics ~latency:1.0 ~buffers:100 ~accesses:100 () in
  let m = mk_metrics ~latency:0.5 ~buffers:400 ~accesses:100 () in
  (* 2x throughput, 4x worse buffers: equal weights give sqrt(2*0.25)
     via the geometric combination. *)
  let obj =
    Dse.Objective.weighted
      [ (Dse.Objective.throughput, 1.0); (Dse.Objective.buffers, 1.0) ]
  in
  checkf "geometric combination" 0.5 (Dse.Objective.score obj ~reference m)

let test_objective_constraint () =
  let reference = mk_metrics ~latency:1.0 ~buffers:100 ~accesses:100 () in
  let m = mk_metrics ~latency:0.5 ~buffers:200 ~accesses:100 () in
  let obj =
    Dse.Objective.subject_to Dse.Objective.throughput
      ~max_buffers:(Some 150) ~max_accesses:None
  in
  checkb "violates budget" true
    (Dse.Objective.score obj ~reference m = neg_infinity);
  let obj2 =
    Dse.Objective.subject_to Dse.Objective.throughput
      ~max_buffers:(Some 250) ~max_accesses:None
  in
  checkf "within budget" 2.0 (Dse.Objective.score obj2 ~reference m)

let test_objective_infeasible () =
  let reference = mk_metrics ~latency:1.0 ~buffers:100 ~accesses:100 () in
  let m = mk_metrics ~feasible:false ~latency:0.1 ~buffers:1 ~accesses:1 () in
  checkb "infeasible scores -inf" true
    (Dse.Objective.score Dse.Objective.throughput ~reference m = neg_infinity)

let test_objective_best () =
  let reference = mk_metrics ~latency:1.0 ~buffers:100 ~accesses:100 () in
  let e latency =
    {
      Dse.Explore.spec =
        { Arch.Custom.pipelined_layers = 1; tail_boundaries = [] };
      metrics = mk_metrics ~latency ~buffers:100 ~accesses:100 ();
    }
  in
  match
    Dse.Objective.best Dse.Objective.throughput ~reference
      [ e 1.0; e 0.25; e 0.5 ]
  with
  | Some winner ->
    checkf "picks fastest" 0.25 winner.Dse.Explore.metrics.Mccm.Metrics.latency_s
  | None -> Alcotest.fail "no winner"

(* ------------------------------------------------------- flat codec *)

let prop_flat_roundtrip =
  QCheck2.Test.make ~name:"flat encode |> decode is the identity" ~count:300
    (Generators.custom_spec ~num_layers:20)
    (fun spec ->
      let ces = Arch.Custom.total_ces spec in
      let width = Dse.Space.Flat.width ~ces in
      let buf = Dse.Space.Flat.create ~width 3 in
      (* Encode into the middle row: a codec that strays outside its
         row would corrupt the zeroed neighbours. *)
      Dse.Space.Flat.encode buf ~width ~at:1 spec;
      Dse.Space.Flat.decode buf ~width 1 = spec
      && Dse.Space.Flat.pipelined buf ~width 1
         = spec.Arch.Custom.pipelined_layers
      && Dse.Space.Flat.segments buf ~width 1
         = ces - spec.Arch.Custom.pipelined_layers
      && Dse.Space.Flat.decode buf ~width 0
         = { Arch.Custom.pipelined_layers = 0; tail_boundaries = [] }
      && Dse.Space.Flat.decode buf ~width 2
         = { Arch.Custom.pipelined_layers = 0; tail_boundaries = [] })

let prop_flat_eval_bit_identical =
  QCheck2.Test.make ~name:"decoded spec evaluates bit-identically" ~count:40
    (Generators.custom_spec ~num_layers:(Cnn.Model.num_layers mobv2))
    (fun spec ->
      let ces = Arch.Custom.total_ces spec in
      let width = Dse.Space.Flat.width ~ces in
      let buf = Dse.Space.Flat.create ~width 1 in
      Dse.Space.Flat.encode buf ~width ~at:0 spec;
      let spec' = Dse.Space.Flat.decode buf ~width 0 in
      Mccm.Evaluate.metrics mobv2 Platform.Board.vcu110
        (Arch.Custom.arch_of_spec mobv2 spec')
      = Mccm.Evaluate.metrics mobv2 Platform.Board.vcu110
          (Arch.Custom.arch_of_spec mobv2 spec))

(* The flat enumerator must reproduce [Enumerate.enumerate_specs]
   exactly: same specs, same lexicographic order, same cap handling. *)
let test_flat_enumerate_matches_list () =
  List.iter
    (fun (num_layers, ces, max_specs) ->
      let reference =
        Dse.Enumerate.enumerate_specs ~num_layers ~ces ~max_specs
      in
      let width = Dse.Space.Flat.width ~ces in
      let buf = Dse.Space.Flat.enumerate ~num_layers ~ces ~max_specs in
      check
        (Printf.sprintf "count n=%d c=%d cap=%d" num_layers ces max_specs)
        (List.length reference)
        (Dse.Space.Flat.count buf ~width);
      List.iteri
        (fun i spec ->
          checkb (Printf.sprintf "row %d of n=%d c=%d" i num_layers ces) true
            (Dse.Space.Flat.decode buf ~width i = spec))
        reference)
    [
      (10, 3, 10000);
      (10, 4, 10000);
      (14, 5, 2000);
      (8, 2, 100);
      (6, 6, 1000);
      (4, 7, 50);
      (10, 4, 17);
      (10, 4, 0);
    ]

(* A session of another (model, board) pair is refused by name; a new
   but equal model value, as the daemon resolves per request, is not. *)
let test_explore_session_binding () =
  let board = Platform.Board.vcu108 in
  let session = Mccm.Eval_session.create mobv2 board in
  let refused model board =
    match Dse.Explore.run ~session ~samples:20 model board with
    | _ -> false
    | exception Invalid_argument msg ->
      String.starts_with ~prefix:"Explore.run: " msg
  in
  checkb "another board" true (refused mobv2 Platform.Board.zcu102);
  checkb "another model" true (refused (Cnn.Model_zoo.resnet50 ()) board);
  let evaluated r = r.Dse.Explore.evaluated in
  checkb "an equal model value" true
    (evaluated
       (Dse.Explore.run ~session ~samples:20 (Cnn.Model_zoo.mobilenet_v2 ())
          board)
    = evaluated (Dse.Explore.run ~samples:20 mobv2 board))

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pareto_sound;
      prop_pareto_complete;
      prop_flat_roundtrip;
      prop_flat_eval_bit_identical;
    ]

let () =
  Alcotest.run "dse"
    [
      ( "space",
        [
          Alcotest.test_case "small counts" `Quick test_space_small_counts;
          Alcotest.test_case "xception magnitude" `Quick
            test_space_xception_magnitude;
          Alcotest.test_case "random spec valid" `Quick
            test_space_random_spec_valid;
          Alcotest.test_case "random deterministic" `Quick
            test_space_random_deterministic;
          Alcotest.test_case "flat enumerate matches list" `Quick
            test_flat_enumerate_matches_list;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "simple" `Quick test_pareto_simple;
          Alcotest.test_case "duplicates" `Quick test_pareto_duplicates;
          Alcotest.test_case "dominates" `Quick test_dominates;
        ] );
      ( "select",
        [
          Alcotest.test_case "tie rule" `Quick test_select_tie_rule;
          Alcotest.test_case "excludes infeasible" `Quick
            test_select_excludes_infeasible;
          Alcotest.test_case "throughput direction" `Quick
            test_select_throughput_direction;
          Alcotest.test_case "all infeasible" `Quick
            test_select_empty_when_all_infeasible;
        ] );
      ( "objective",
        [
          Alcotest.test_case "atoms" `Quick test_objective_atoms;
          Alcotest.test_case "weighted" `Quick test_objective_weighted;
          Alcotest.test_case "constraint" `Quick test_objective_constraint;
          Alcotest.test_case "infeasible" `Quick test_objective_infeasible;
          Alcotest.test_case "best" `Quick test_objective_best;
        ] );
      ( "explore",
        [
          Alcotest.test_case "deterministic" `Quick test_explore_deterministic;
          Alcotest.test_case "front subset" `Quick test_explore_front_subset;
          Alcotest.test_case "dedupes duplicate draws" `Quick
            test_explore_dedupes_duplicates;
          Alcotest.test_case "evaluates each distinct draw once" `Quick
            test_explore_evaluates_distinct_once;
          Alcotest.test_case "repeat run adds no cache misses" `Quick
            test_explore_repeat_on_session;
          Alcotest.test_case "improvement over self" `Quick
            test_improvement_over_self;
          Alcotest.test_case "parallel deterministic" `Quick
            test_explore_parallel_deterministic;
          Alcotest.test_case "domain-count invariant" `Quick
            test_explore_domain_count_invariant;
          Alcotest.test_case "two domains count each design once" `Quick
            test_explore_two_domains_count_once;
          Alcotest.test_case "parallel metrics" `Quick
            test_explore_parallel_matches_metrics;
          Alcotest.test_case "session binding" `Quick
            test_explore_session_binding;
        ] );
      ("properties", properties);
    ]
