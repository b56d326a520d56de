(* Tests for the memoized evaluation session: cache accounting,
   cold siblings, and QCheck2 bit-exactness properties showing
   the caches are semantically invisible — cached evaluation is
   [Stdlib.(=)]-identical to the uncached path on random cases and on
   random local-search and exhaustive runs. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let mobv2 = Cnn.Model_zoo.mobilenet_v2 ()
let board = Platform.Board.vcu108

(* ------------------------------------------------------- accounting *)

(* (segment misses, planning-floor misses): a request served by the
   session's tables leaves both unchanged. *)
let misses s =
  let st = Mccm.Eval_session.stats s in
  (st.Mccm.Eval_session.seg_misses, st.Mccm.Eval_session.plan_misses)

let check_misses = Alcotest.(check (pair int int))

let test_repeat_adds_no_misses () =
  let s = Mccm.Eval_session.create mobv2 board in
  let archi = Arch.Baselines.hybrid ~ces:4 mobv2 in
  let m1 = Mccm.Eval_session.metrics s archi in
  let cold = misses s in
  let m2 = Mccm.Eval_session.metrics s archi in
  checkb "repeat is bit-identical" true (m1 = m2);
  check_misses "repeat adds no segment or plan misses" cold (misses s);
  check "both requests counted" 2
    (Mccm.Eval_session.stats s).Mccm.Eval_session.evaluations

let test_renamed_twin_shares_entry () =
  (* No key reads the display name: a renamed copy of the same block
     structure is served by the same segment and plan entries. *)
  let s = Mccm.Eval_session.create mobv2 board in
  let archi = Arch.Baselines.segmented ~ces:4 mobv2 in
  let twin =
    Arch.Block.arch ~name:"renamed-twin" ~style:archi.Arch.Block.style
      ~blocks:archi.Arch.Block.blocks
      ~coarse_pipelined:archi.Arch.Block.coarse_pipelined
      ~num_layers:(Cnn.Model.num_layers mobv2)
  in
  let m1 = Mccm.Eval_session.metrics s archi in
  let cold = misses s in
  let m2 = Mccm.Eval_session.metrics s twin in
  checkb "same metrics" true (m1 = m2);
  check_misses "twin adds no segment or plan misses" cold (misses s)

let test_unmemoized_only_counts () =
  let s = Mccm.Eval_session.create ~memoize:false mobv2 board in
  let archi = Arch.Baselines.segmented ~ces:4 mobv2 in
  ignore (Mccm.Eval_session.metrics s archi);
  ignore (Mccm.Eval_session.metrics s archi);
  let st = Mccm.Eval_session.stats s in
  checkb "not memoized" false (Mccm.Eval_session.memoized s);
  check "requests counted" 2 st.Mccm.Eval_session.evaluations;
  check "no segment traffic" 0
    (st.Mccm.Eval_session.seg_hits + st.Mccm.Eval_session.seg_misses)

(* A batch of candidates evaluated in order on one session, as the
   daemon serves a batch: later candidates reuse the earlier ones'
   tables, and every result equals the direct evaluation. *)
let test_batch_equals_map () =
  let archis =
    [
      Arch.Baselines.segmented ~ces:4 mobv2;
      Arch.Baselines.segmented_rr ~ces:4 mobv2;
      Arch.Baselines.hybrid ~ces:4 mobv2;
    ]
  in
  let session = Mccm.Eval_session.create mobv2 board in
  let batch = List.map (Mccm.Eval_session.metrics session) archis in
  List.iter2
    (fun m archi ->
      checkb "batch equals direct evaluation" true
        (m = Mccm.Evaluate.metrics mobv2 board archi))
    batch archis

let test_sibling_starts_cold () =
  (* A sibling shares the parent's model, board, options and table but
     none of its caches: a design the parent has already evaluated
     misses in the sibling exactly as it first did in the parent, the
     metrics are bit-identical, and nothing reaches the parent. *)
  let parent = Mccm.Eval_session.create mobv2 board in
  let archi = Arch.Baselines.hybrid ~ces:5 mobv2 in
  let mp = Mccm.Eval_session.metrics parent archi in
  let cold = misses parent in
  let before = Mccm.Eval_session.stats parent in
  let sib = Mccm.Eval_session.sibling parent in
  let ms = Mccm.Eval_session.metrics sib archi in
  checkb "sibling's metrics are bit-identical" true (mp = ms);
  checkb "first request misses" true (fst cold > 0 && snd cold > 0);
  check_misses "sibling misses like a cold session" cold (misses sib);
  check "sibling counts its own evaluation" 1
    (Mccm.Eval_session.stats sib).Mccm.Eval_session.evaluations;
  checkb "parent's counters do not move" true
    (before = Mccm.Eval_session.stats parent)

(* ---------------------------------------- bit-exactness (properties) *)

(* Cached evaluation of a random generated case equals the uncached
   session and the raw evaluator, including on an immediate revisit. *)
let prop_cached_bit_identical =
  QCheck2.Test.make ~name:"session metrics = uncached metrics (random cases)"
    ~count:40 Generators.case
    (fun c ->
      let model = c.Validate.Case.model and b = c.Validate.Case.board in
      let archi = Validate.Case.materialize c in
      let cached = Mccm.Eval_session.create model b in
      let uncached = Mccm.Eval_session.create ~memoize:false model b in
      let m1 = Mccm.Eval_session.metrics cached archi in
      let m2 = Mccm.Eval_session.metrics cached archi in
      m1 = m2
      && m1 = Mccm.Eval_session.metrics uncached archi
      && m1 = Mccm.Evaluate.metrics model b archi)

(* One warm session across several architectures of the same case: the
   shared segment/plan tables must not leak between structures. *)
let prop_shared_session_bit_identical =
  QCheck2.Test.make
    ~name:"one session over several architectures stays exact" ~count:25
    Generators.case
    (fun c ->
      let model = c.Validate.Case.model and b = c.Validate.Case.board in
      let ces = min 4 (Cnn.Model.num_layers model) in
      let archis =
        [
          Validate.Case.materialize c;
          Arch.Baselines.segmented ~ces model;
          Arch.Baselines.hybrid ~ces model;
          Validate.Case.materialize c;
        ]
      in
      let session = Mccm.Eval_session.create model b in
      List.for_all
        (fun archi ->
          Mccm.Eval_session.metrics session archi
          = Mccm.Evaluate.metrics model b archi)
        archis)

(* Random local-search runs: the memoized trajectory equals the
   unmemoized one move for move, metrics bit-identical. *)
let prop_local_search_session_invisible =
  QCheck2.Test.make ~name:"local search identical with and without cache"
    ~count:8
    (Generators.custom_spec ~num_layers:(Cnn.Model.num_layers mobv2))
    (fun seed ->
      let objective m = m.Mccm.Metrics.throughput_ips in
      let run memoize =
        Dse.Enumerate.local_search ~objective ~max_steps:3
          ~session:(Mccm.Eval_session.create ~memoize mobv2 board)
          mobv2 board seed
      in
      run true = run false)

(* Random exhaustive scans: same list of (spec, metrics) either way. *)
let prop_exhaustive_session_invisible =
  QCheck2.Test.make ~name:"exhaustive scan identical with and without cache"
    ~count:6
    QCheck2.Gen.(int_range 3 5)
    (fun ces ->
      let run memoize =
        Dse.Enumerate.exhaustive
          ~session:(Mccm.Eval_session.create ~memoize mobv2 board)
          ~max_specs:40 ~ces mobv2 board
      in
      run true = run false)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_cached_bit_identical;
      prop_shared_session_bit_identical;
      prop_local_search_session_invisible;
      prop_exhaustive_session_invisible;
    ]

let () =
  Alcotest.run "eval_session"
    [
      ( "accounting",
        [
          Alcotest.test_case "repeat adds no cache misses" `Quick
            test_repeat_adds_no_misses;
          Alcotest.test_case "renamed twin shares entry" `Quick
            test_renamed_twin_shares_entry;
          Alcotest.test_case "unmemoized only counts" `Quick
            test_unmemoized_only_counts;
          Alcotest.test_case "batch equals map" `Quick test_batch_equals_map;
          Alcotest.test_case "sibling starts cold" `Quick
            test_sibling_starts_cold;
        ] );
      ("bit-exactness", properties);
    ]
