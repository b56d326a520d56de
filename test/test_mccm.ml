(* Tests for the analytical cost model: the block models (Eq. 1-7), their
   composition (Eq. 8-9) and the metric/breakdown plumbing. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let res50 = Cnn.Model_zoo.resnet50 ()
let res50_table = Cnn.Table.of_model res50
let mobv2 = Cnn.Model_zoo.mobilenet_v2 ()

(* ----------------------------------------------------------- Access *)

let test_access_arithmetic () =
  let a = Mccm.Access.add (Mccm.Access.weights 10) (Mccm.Access.fms 5) in
  check "total" 15 (Mccm.Access.total a);
  check "weights" 10 a.Mccm.Access.weights_bytes;
  check "fms" 5 a.Mccm.Access.fms_bytes;
  check "sum" 30 (Mccm.Access.total (Mccm.Access.sum [ a; a ]))

(* ---------------------------------------------------------- Metrics *)

let metrics ?(latency = 1.0) ?(throughput = 1.0) ?(buffers = 100)
    ?(accesses = 100) ?(feasible = true) () =
  {
    Mccm.Metrics.latency_s = latency;
    throughput_ips = throughput;
    buffer_bytes = buffers;
    accesses = Mccm.Access.weights accesses;
    feasible;
  }

let test_metrics_better () =
  checkb "lower latency wins" true
    (Mccm.Metrics.better ~metric:`Latency (metrics ~latency:0.5 ())
       (metrics ~latency:1.0 ()));
  checkb "higher throughput wins" true
    (Mccm.Metrics.better ~metric:`Throughput (metrics ~throughput:2.0 ())
       (metrics ~throughput:1.0 ()));
  checkb "feasible beats infeasible" true
    (Mccm.Metrics.better ~metric:`Latency (metrics ~latency:9.0 ())
       (metrics ~latency:0.1 ~feasible:false ()))

(* --------------------------------------------------- Single_ce_model *)

let single_block_setup ~fm_capacity_mib =
  let board = Platform.Board.zcu102 in
  let layers = Cnn.Model.layers_in_range res50 ~first:0 ~last:9 in
  let engine =
    Engine.Ce.v ~id:1 ~pes:512
      ~parallelism:(Builder.Parallelism_select.choose ~pes:512 ~layers)
      ~dataflow:Engine.Dataflow.Output_stationary
  in
  let plan =
    {
      Builder.Buffer_alloc.weights_tile_bytes = 128 * 1024;
      fm_capacity_bytes = Util.Units.bytes_of_mib fm_capacity_mib;
      fm_ideal_bytes = Util.Units.bytes_of_mib 8.0;
    }
  in
  (board, engine, plan)

let eval_single ~fm_capacity_mib =
  let board, engine, plan = single_block_setup ~fm_capacity_mib in
  Mccm.Single_ce_model.evaluate ~table:res50_table ~board ~engine ~plan
    ~first:0 ~last:9 ~input_on_chip:false ~output_on_chip:false ()

let test_single_ideal_accesses () =
  (* With FMs fully buffered, accesses = weights + input + output. *)
  let r = eval_single ~fm_capacity_mib:8.0 in
  let bpe = 2 in
  let weights = Cnn.Model.weights_in_range res50 ~first:0 ~last:9 * bpe in
  let input = Cnn.Layer.ifm_elements (Cnn.Model.layer res50 0) * bpe in
  let output = Cnn.Layer.ofm_elements (Cnn.Model.layer res50 9) * bpe in
  check "weights exact" weights
    r.Mccm.Single_ce_model.accesses.Mccm.Access.weights_bytes;
  check "fms = boundary only" (input + output)
    r.Mccm.Single_ce_model.accesses.Mccm.Access.fms_bytes

let test_single_spill_monotone () =
  (* Shrinking the FM capacity can only increase accesses. *)
  let caps = [ 8.0; 2.0; 1.0; 0.5; 0.25 ] in
  let totals =
    List.map
      (fun c ->
        Mccm.Access.total
          (eval_single ~fm_capacity_mib:c).Mccm.Single_ce_model.accesses)
      caps
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  checkb "monotone non-decreasing" true (monotone totals)

let test_single_latency_is_per_layer_max () =
  let r = eval_single ~fm_capacity_mib:8.0 in
  checkb "latency >= compute" true
    (r.Mccm.Single_ce_model.latency_s
    >= r.Mccm.Single_ce_model.compute_s -. 1e-12);
  checkb "latency <= compute + memory" true
    (r.Mccm.Single_ce_model.latency_s
    <= r.Mccm.Single_ce_model.compute_s +. r.Mccm.Single_ce_model.memory_s
       +. 1e-12)

let test_single_interseg_input () =
  (* Declaring the input on-chip removes the input load. *)
  let board, engine, plan = single_block_setup ~fm_capacity_mib:8.0 in
  let off =
    Mccm.Single_ce_model.evaluate ~table:res50_table ~board ~engine ~plan
      ~first:0 ~last:9 ~input_on_chip:false ~output_on_chip:false ()
  in
  let on =
    Mccm.Single_ce_model.evaluate ~table:res50_table ~board ~engine ~plan
      ~first:0 ~last:9 ~input_on_chip:true ~output_on_chip:false ()
  in
  let bpe = 2 in
  check "saves exactly the input"
    (Cnn.Layer.ifm_elements (Cnn.Model.layer res50 0) * bpe)
    (Mccm.Access.total off.Mccm.Single_ce_model.accesses
    - Mccm.Access.total on.Mccm.Single_ce_model.accesses)

(* A hand-computed Eq. 6 miniature: one 1x1 conv, 16-bit elements.
   IFM 8x4x4 = 128 elems = 256 B; OFM 4x4x4 = 64 elems = 128 B;
   weights 4x8 = 32 elems = 64 B. *)
let miniature_layer () =
  Cnn.Layer.v ~index:0 ~name:"mini" ~kind:Cnn.Layer.Pointwise
    ~in_shape:(Cnn.Shape.v ~channels:8 ~height:4 ~width:4)
    ~out_channels:4 ~kernel:1 ~stride:1 ~padding:0 ()

let miniature_model () =
  Cnn.Model.v ~name:"Mini" ~abbreviation:"Mini" ~layers:[ miniature_layer () ]

let eval_miniature ~cap_bytes ~input_on_chip =
  let model = miniature_model () in
  let board = Platform.Board.zcu102 in
  let engine =
    Engine.Ce.v ~id:1 ~pes:4
      ~parallelism:(Engine.Parallelism.three_d ~filters:4 ~height:1 ~width:1)
      ~dataflow:Engine.Dataflow.Output_stationary
  in
  let plan =
    {
      Builder.Buffer_alloc.weights_tile_bytes = 16;
      fm_capacity_bytes = cap_bytes;
      fm_ideal_bytes = 384;
    }
  in
  Mccm.Single_ce_model.evaluate ~table:(Cnn.Table.of_model model) ~board
    ~engine ~plan ~first:0 ~last:0
    ~input_on_chip ~output_on_chip:false ()

let test_eq6_miniature_fits () =
  (* cap 384 B holds IFM+OFM: accesses = W + IFM load + OFM store
     = 64 + 256 + 128. *)
  let r = eval_miniature ~cap_bytes:384 ~input_on_chip:false in
  check "ideal" (64 + 256 + 128)
    (Mccm.Access.total r.Mccm.Single_ce_model.accesses)

let test_eq6_miniature_ifm_streams () =
  (* cap 160 B: IFM (256) cannot fit; OFM (128) + one-row IFM band
     (1 row x 4 wide x 8 ch x 2 B = 64 B) does not fit either within 160
     after reserving OFM... OFM 128 + band 64 = 192 > 160, so the OFM
     streams out too.  avail = 160.  Option 1 (local IS):
     W x ceil(256/160) + 256 = 128 + 256 = 384.  Option 2 (local WS):
     256 x ceil(64/160) + 64 = 256 + 64 = 320 -> option 2 wins.
     Total = OFM 128 + 320 = 448. *)
  let r = eval_miniature ~cap_bytes:160 ~input_on_chip:false in
  check "streaming accesses" 448
    (Mccm.Access.total r.Mccm.Single_ce_model.accesses)

let test_eq6_miniature_interseg_input () =
  (* Input arriving through an on-chip inter-segment buffer costs no IFM
     load; OFM still mandatorily stores (last block). *)
  let r = eval_miniature ~cap_bytes:384 ~input_on_chip:true in
  check "no input load" (64 + 128)
    (Mccm.Access.total r.Mccm.Single_ce_model.accesses)

(* Eq. 8/9 composition miniature: the same two-layer model evaluated as
   Segmented/2; toggling the inter-segment buffer trades 2 x boundary
   bytes of traffic for 2 x boundary bytes of buffer. *)
let test_eq9_interseg_tradeoff () =
  let model = Cnn.Model_zoo.mobilenet_v2 () in
  let archi = Arch.Baselines.segmented ~ces:2 model in
  let board_small =
    Platform.Board.v ~name:"small" ~dsps:256 ~bram_mib:0.35
      ~bandwidth_gb_per_sec:3.2 ()
  in
  let board_big =
    Platform.Board.v ~name:"big" ~dsps:256 ~bram_mib:16.0
      ~bandwidth_gb_per_sec:3.2 ()
  in
  let small = Mccm.Evaluate.metrics model board_small archi in
  let big = Mccm.Evaluate.metrics model board_big archi in
  QCheck2.assume small.Mccm.Metrics.feasible;
  checkb "plentiful BRAM never accesses more" true
    (Mccm.Metrics.accesses_bytes big <= Mccm.Metrics.accesses_bytes small)

(* The DP against its list-based reference (test/single_ce_ref.ml) on
   random (model, board, engine, capacity, layer range, boundary flags)
   cases: the aggregates, the per-layer chain and the validity interval
   must agree bit for bit.  The reference's utilization is the
   [Layer.t] fold, so this also pins the DP's table-based sum to it. *)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

type single_case = {
  table : Cnn.Table.t;
  board : Platform.Board.t;
  engine : Engine.Ce.t;
  plan : Builder.Buffer_alloc.single_plan;
  first : int;
  last : int;
  input_on_chip : bool;
  output_on_chip : bool;
}

let print_single_case c =
  let m = Cnn.Table.model c.table in
  Format.asprintf "%s on %s, %a, L%d-L%d, cap %d B, in %b, out %b"
    m.Cnn.Model.abbreviation c.board.Platform.Board.name Engine.Ce.pp c.engine
    c.first c.last c.plan.Builder.Buffer_alloc.fm_capacity_bytes
    c.input_on_chip c.output_on_chip

(* Capacities span the layers' FM footprints, so every Eq. 6 branch
   (fits, evicts the shortcut, streams under each reservation) is
   reached; a quarter are tiny, to exercise the clamped window. *)
let single_case_gen =
  QCheck2.Gen.(
    let* model = Generators.model in
    let* board = Generators.board in
    let table = Cnn.Table.of_model model in
    let n = Cnn.Model.num_layers model in
    let* a = int_bound (n - 1) and* b = int_bound (n - 1) in
    let first = min a b and last = max a b in
    let* factors = list_repeat 6 (int_range 1 9) and* spare = int_range 0 64 in
    let parallelism =
      Engine.Parallelism.of_factors
        (List.combine Engine.Parallelism.all_dims factors)
    in
    let engine =
      Engine.Ce.v ~id:1
        ~pes:(Engine.Parallelism.degree parallelism + spare)
        ~parallelism ~dataflow:Engine.Dataflow.Output_stationary
    in
    let fms =
      Cnn.Table.max_fms_range table ~first ~last
      * board.Platform.Board.bytes_per_element
    in
    let* cap =
      frequency [ (1, int_bound 64); (3, int_bound (2 * fms)) ]
    in
    let* input_on_chip = bool and* output_on_chip = bool in
    let plan =
      {
        Builder.Buffer_alloc.weights_tile_bytes = 0;
        fm_capacity_bytes = cap;
        fm_ideal_bytes = fms;
      }
    in
    return
      { table; board; engine; plan; first; last; input_on_chip;
        output_on_chip })

let trace_case c =
  Mccm.Single_ce_model.trace ~table:c.table ~board:c.board ~engine:c.engine
    ~plan:c.plan ~first:c.first ~last:c.last ~input_on_chip:c.input_on_chip
    ~output_on_chip:c.output_on_chip ()

let same_result (a : Mccm.Single_ce_model.result)
    (b : Mccm.Single_ce_model.result) =
  a.compute_cycles = b.compute_cycles
  && a.accesses = b.accesses
  && bits_equal a.compute_s b.compute_s
  && bits_equal a.memory_s b.memory_s
  && bits_equal a.latency_s b.latency_s
  && bits_equal a.utilization b.utilization
  && a.cap_lo = b.cap_lo && a.cap_hi = b.cap_hi

let prop_dp_matches_reference =
  QCheck2.Test.make ~name:"single-CE DP equals the list reference" ~count:500
    ~print:print_single_case single_case_gen (fun c ->
      let r, layers = trace_case c in
      let e =
        Mccm.Single_ce_model.evaluate ~table:c.table ~board:c.board
          ~engine:c.engine ~plan:c.plan ~first:c.first ~last:c.last
          ~input_on_chip:c.input_on_chip ~output_on_chip:c.output_on_chip ()
      in
      let (q : Single_ce_ref.result), (lo, hi) =
        Single_ce_ref.evaluate_with_validity ~table:c.table ~board:c.board
          ~engine:c.engine ~plan:c.plan ~first:c.first ~last:c.last
          ~input_on_chip:c.input_on_chip ~output_on_chip:c.output_on_chip ()
      in
      same_result r e
      && r.compute_cycles = q.compute_cycles
      && r.accesses = q.accesses
      && bits_equal r.compute_s q.compute_s
      && bits_equal r.memory_s q.memory_s
      && bits_equal r.latency_s q.latency_s
      && bits_equal r.utilization q.utilization
      && r.cap_lo = lo && r.cap_hi = hi
      && List.length layers = List.length q.layers
      && List.for_all2
           (fun (l : Mccm.Single_ce_model.layer_result)
                (m : Single_ce_ref.layer_result) ->
             l.layer_index = m.layer_index
             && l.compute_cycles = m.compute_cycles
             && l.accesses = m.accesses
             && l.ifm_on_chip = m.ifm_on_chip
             && l.ofm_stays_on_chip = m.ofm_stays_on_chip)
           layers q.layers)

(* Seg_cache serves a recorded piece at any capacity inside its
   interval, so every capacity there, both ends included, must give the
   same aggregate, chain and interval. *)
let prop_validity_interval =
  QCheck2.Test.make ~name:"any capacity in the validity interval agrees"
    ~count:300
    ~print:(fun (c, _) -> print_single_case c)
    QCheck2.Gen.(pair single_case_gen (pair nat nat))
    (fun (c, (x, y)) ->
      let r, layers = trace_case c in
      let lo = r.Mccm.Single_ce_model.cap_lo
      and hi = r.Mccm.Single_ce_model.cap_hi in
      let cap = c.plan.Builder.Buffer_alloc.fm_capacity_bytes in
      (* Two interior points drawn around the evaluated capacity, kept
         clear of overflow when the interval is unbounded above. *)
      let inside d = max lo (min hi (cap + d)) in
      List.for_all
        (fun cap' ->
          let r', layers' =
            trace_case
              {
                c with
                plan =
                  { c.plan with Builder.Buffer_alloc.fm_capacity_bytes = cap' };
              }
          in
          same_result r r' && layers = layers')
        [ lo; hi; inside (x mod 4096); inside (-(y mod 4096)) ])

(* --------------------------------------------------- Pipelined_model *)

let pipelined_setup () =
  let board = Platform.Board.zcu102 in
  let archi = Arch.Baselines.hybrid ~ces:5 res50 in
  let built = Builder.Build.build res50 board archi in
  match
    ( built.Builder.Build.blocks.(0),
      built.Builder.Build.plan.Builder.Buffer_alloc.block_plans.(0) )
  with
  | ( Builder.Build.Built_pipelined { engines; first; last; _ },
      Builder.Buffer_alloc.Plan_pipelined plan ) ->
    (board, engines, plan, first, last)
  | _ -> Alcotest.fail "expected pipelined first block"

let test_pipelined_throughput_is_bottleneck () =
  let board, engines, plan, first, last = pipelined_setup () in
  let r =
    Mccm.Pipelined_model.evaluate ~table:res50_table ~board ~engines ~plan
      ~first ~last ~input_on_chip:false ~output_on_chip:true ()
  in
  let max_busy =
    Array.fold_left Float.max 0.0 r.Mccm.Pipelined_model.busy_s_per_engine
  in
  checkf "bottleneck = max busy" max_busy r.Mccm.Pipelined_model.bottleneck_s;
  checkb "latency >= bottleneck" true
    (r.Mccm.Pipelined_model.latency_s
    >= r.Mccm.Pipelined_model.bottleneck_s -. 1e-12)

let test_pipelined_eq2_uniform_round () =
  (* Hand-built single round with uniform tiles: Eq. 2 reduces to
     (tiles + ces - 1) x tile_time. *)
  let layers =
    List.init 3 (fun i ->
        Cnn.Layer.v ~index:i ~name:(Printf.sprintf "u%d" i)
          ~kind:Cnn.Layer.Standard
          ~in_shape:(Cnn.Shape.v ~channels:8 ~height:16 ~width:16)
          ~out_channels:8 ~kernel:3 ~stride:1 ~padding:1 ())
  in
  let model = Cnn.Model.v ~name:"Uniform" ~abbreviation:"U" ~layers in
  let board = Platform.Board.zcu102 in
  let engines =
    Array.init 3 (fun i ->
        Engine.Ce.v ~id:(i + 1) ~pes:4
          ~parallelism:
            (Engine.Parallelism.three_d ~filters:1 ~height:4 ~width:1)
          ~dataflow:Engine.Dataflow.Weight_stationary)
  in
  let plan =
    {
      Builder.Buffer_alloc.tiles_per_image = 4;
      width_split = 1;
      tile_rows = [| 4; 4; 4 |];
      fm_tile_bytes = [| 0; 0; 0 |];
      weights_retained = [| true; true; true |];
      weights_staging_bytes = 0;
    }
  in
  let r =
    Mccm.Pipelined_model.evaluate ~table:(Cnn.Table.of_model model) ~board
      ~engines ~plan ~first:0 ~last:2
      ~input_on_chip:true ~output_on_chip:true ()
  in
  let tile_cyc = Engine.Ce.tile_cycles engines.(0) (List.hd layers) ~rows:4 in
  let expected_cycles = (4 + 3 - 1) * tile_cyc in
  checkf "Eq. 2 skewed pipeline"
    (Platform.Board.cycles_to_seconds board expected_cycles)
    r.Mccm.Pipelined_model.compute_s

let test_pipelined_weight_reload () =
  (* Unretained weights cost tiles x weights (Eq. 7). *)
  let board, engines, plan, first, last = pipelined_setup () in
  let all_streamed =
    {
      plan with
      Builder.Buffer_alloc.weights_retained =
        Array.map (fun _ -> false) plan.Builder.Buffer_alloc.weights_retained;
    }
  in
  let all_retained =
    {
      plan with
      Builder.Buffer_alloc.weights_retained =
        Array.map (fun _ -> true) plan.Builder.Buffer_alloc.weights_retained;
    }
  in
  let eval p =
    (Mccm.Pipelined_model.evaluate ~table:res50_table ~board ~engines
       ~plan:p ~first ~last ~input_on_chip:true ~output_on_chip:true ())
      .Mccm.Pipelined_model.accesses
  in
  let streamed = eval all_streamed and retained = eval all_retained in
  let bpe = 2 in
  check "retained = one access per weight"
    (Cnn.Model.weights_in_range res50 ~first ~last * bpe)
    retained.Mccm.Access.weights_bytes;
  checkb "streaming costs more" true
    (streamed.Mccm.Access.weights_bytes >= retained.Mccm.Access.weights_bytes)

(* --------------------------------------------------------- Evaluate *)

let test_evaluate_feasible_metrics () =
  let m =
    Mccm.Evaluate.metrics res50 Platform.Board.zcu102
      (Arch.Baselines.segmented ~ces:4 res50)
  in
  checkb "feasible" true m.Mccm.Metrics.feasible;
  checkb "positive latency" true (m.Mccm.Metrics.latency_s > 0.0);
  checkb "positive throughput" true (m.Mccm.Metrics.throughput_ips > 0.0);
  checkb "buffers fit board" true
    (m.Mccm.Metrics.buffer_bytes
    <= Platform.Board.zcu102.Platform.Board.bram_bytes)

(* Session-less evaluation keeps no per-call state: once a first pass
   has warmed the content-keyed memos, repeating the same designs must
   not grow the live heap (a memo keyed by each call's fresh table
   would). *)
let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

let test_evaluate_heap_flat () =
  let board = Platform.Board.vcu108 in
  let designs =
    List.concat_map
      (fun ces ->
        [ Arch.Baselines.segmented ~ces mobv2;
          Arch.Baselines.segmented_rr ~ces mobv2;
          Arch.Baselines.hybrid ~ces mobv2 ])
      [ 2; 3; 4; 5; 6; 7 ]
  in
  let pass () =
    List.iter
      (fun a ->
        ignore (Sys.opaque_identity (Mccm.Evaluate.metrics mobv2 board a)))
      designs
  in
  pass ();
  let before = live_words () in
  for _ = 1 to 10 do
    pass ()
  done;
  let grown = live_words () - before in
  checkb (Printf.sprintf "live heap grew by %d words" grown) true (grown < 4096)

(* A single-CE segment-cache entry keeps a block aggregate, not a
   per-layer trace, so it holds a bounded number of live words however
   long its segment.  The first 300 ResNet152 10-CE specs have segments
   of up to ~145 layers; every build happens before the measurement, so
   the live-heap growth is the cache's own. *)
let test_seg_cache_entry_bounded () =
  let model = Cnn.Model_zoo.resnet152 () in
  let board = Platform.Board.vcu108 in
  let table = Cnn.Table.of_model model in
  let ces = 10 in
  let width = Dse.Space.Flat.width ~ces in
  let buf =
    Dse.Space.Flat.enumerate ~num_layers:(Cnn.Model.num_layers model) ~ces
      ~max_specs:300
  in
  let builds =
    List.init (Dse.Space.Flat.count buf ~width) (fun i ->
        Builder.Build.build ~table model board
          (Arch.Custom.arch_of_spec model (Dse.Space.Flat.decode buf ~width i)))
  in
  let cache = Mccm.Seg_cache.create () in
  let before = live_words () in
  List.iter
    (fun b -> ignore (Sys.opaque_identity (Mccm.Evaluate.run ~cache b)))
    builds;
  let grown = live_words () - before in
  ignore (Sys.opaque_identity builds);
  let _, misses = Mccm.Seg_cache.single_counts cache in
  checkb "some single-CE misses" true (misses > 0);
  checkb
    (Printf.sprintf "%d live words over %d single-CE misses" grown misses)
    true
    (grown <= 64 * misses)

let test_evaluate_run_own_table () =
  let built =
    Builder.Build.build res50 Platform.Board.zcu102
      (Arch.Baselines.hybrid ~ces:4 res50)
  in
  checkb "the build's own table" true
    (Mccm.Evaluate.run ~table:built.Builder.Build.table built
    = Mccm.Evaluate.run built);
  Alcotest.check_raises "another table of the same model"
    (Invalid_argument "Evaluate.run: table is not the build's own") (fun () ->
      ignore (Mccm.Evaluate.run ~table:(Cnn.Table.of_model res50) built))

let test_evaluate_throughput_vs_latency () =
  (* With coarse pipelining, throughput exceeds 1/latency (stages overlap
     on different inputs); the paper stresses they are not inverses. *)
  let m =
    Mccm.Evaluate.metrics res50 Platform.Board.zcu102
      (Arch.Baselines.segmented ~ces:6 res50)
  in
  checkb "throughput > 1/latency" true
    (m.Mccm.Metrics.throughput_ips > 1.0 /. m.Mccm.Metrics.latency_s)

let test_evaluate_accesses_floor () =
  (* Nothing can access less than weights + model input + output. *)
  List.iter
    (fun (_, archi) ->
      let m = Mccm.Evaluate.metrics res50 Platform.Board.zcu102 archi in
      let bpe = 2 in
      let floor =
        (Cnn.Model.total_weights res50
        + Cnn.Shape.elements (Cnn.Model.input_shape res50)
        + Cnn.Model.output_elements res50)
        * bpe
      in
      checkb "accesses >= floor" true (Mccm.Metrics.accesses_bytes m >= floor))
    (Arch.Baselines.all_instances res50)

let test_evaluate_breakdown_consistency () =
  let e =
    Mccm.Evaluate.evaluate res50 Platform.Board.zc706
      (Arch.Baselines.segmented ~ces:4 res50)
  in
  let b = e.Mccm.Evaluate.breakdown in
  check "4 segments" 4 (List.length b.Mccm.Breakdown.segments);
  check "accesses add up"
    (Mccm.Metrics.accesses_bytes e.Mccm.Evaluate.metrics)
    (Mccm.Access.total b.Mccm.Breakdown.accesses);
  List.iter
    (fun (s : Mccm.Breakdown.segment) ->
      checkb "utilization in (0,1]" true
        (s.Mccm.Breakdown.utilization > 0.0
        && s.Mccm.Breakdown.utilization <= 1.0 +. 1e-9))
    b.Mccm.Breakdown.segments

let test_evaluate_segrr_segments_are_rounds () =
  let e =
    Mccm.Evaluate.evaluate res50 Platform.Board.zc706
      (Arch.Baselines.segmented_rr ~ces:2 res50)
  in
  (* 53 layers / 2 CEs -> 27 rounds reported as segments (Fig. 6a). *)
  check "27 segments" 27
    (List.length e.Mccm.Evaluate.breakdown.Mccm.Breakdown.segments)

let test_evaluate_initiation_interval () =
  let e =
    Mccm.Evaluate.evaluate res50 Platform.Board.zcu102
      (Arch.Baselines.segmented ~ces:4 res50)
  in
  checkf "ii = 1/throughput"
    (1.0 /. e.Mccm.Evaluate.metrics.Mccm.Metrics.throughput_ips)
    e.Mccm.Evaluate.initiation_interval_s;
  checkb "ii <= latency" true
    (e.Mccm.Evaluate.initiation_interval_s
    <= e.Mccm.Evaluate.metrics.Mccm.Metrics.latency_s +. 1e-12)

let test_evaluate_deterministic () =
  let run () =
    Mccm.Evaluate.metrics mobv2 Platform.Board.vcu110
      (Arch.Baselines.hybrid ~ces:6 mobv2)
  in
  let a = run () and b = run () in
  checkf "same latency" a.Mccm.Metrics.latency_s b.Mccm.Metrics.latency_s;
  check "same accesses" (Mccm.Metrics.accesses_bytes a)
    (Mccm.Metrics.accesses_bytes b)

(* --------------------------------------------------------- Roofline *)

let test_roofline_bounds_achieved () =
  (* The model's throughput can never exceed the roofline ceiling. *)
  List.iter
    (fun (_, archi) ->
      let board = Platform.Board.zc706 in
      let m = Mccm.Evaluate.metrics res50 board archi in
      let r = Mccm.Roofline.analyze res50 board m in
      checkb "efficiency <= 1" true (r.Mccm.Roofline.efficiency <= 1.0 +. 1e-9);
      checkb "positive AI" true (r.Mccm.Roofline.arithmetic_intensity > 0.0))
    (Arch.Baselines.all_instances res50)

let test_roofline_classification () =
  (* SegmentedRR/2 on ZC706 reloads weights heavily: it must classify as
     memory-bound; the same design on a 19.2 GB/s board with retained
     weights is compute-bound. *)
  let m_small =
    Mccm.Evaluate.metrics res50 Platform.Board.zc706
      (Arch.Baselines.segmented_rr ~ces:2 res50)
  in
  let r_small = Mccm.Roofline.analyze res50 Platform.Board.zc706 m_small in
  checkb "ZC706 SegRR memory-bound" true
    (r_small.Mccm.Roofline.bound = Mccm.Roofline.Memory_bound);
  let m_big =
    Mccm.Evaluate.metrics res50 Platform.Board.zcu102
      (Arch.Baselines.segmented ~ces:4 res50)
  in
  let r_big = Mccm.Roofline.analyze res50 Platform.Board.zcu102 m_big in
  checkb "ZCU102 Segmented compute-bound" true
    (r_big.Mccm.Roofline.bound = Mccm.Roofline.Compute_bound)

let test_roofline_machine_balance () =
  (* ZC706: 900 DSPs x 200 MHz / 3.2 GB/s = 56.25 MACs per byte. *)
  let m =
    Mccm.Evaluate.metrics res50 Platform.Board.zc706
      (Arch.Baselines.segmented ~ces:4 res50)
  in
  let r = Mccm.Roofline.analyze res50 Platform.Board.zc706 m in
  checkf "balance" 56.25 r.Mccm.Roofline.machine_balance

(* ------------------------------------------------------- properties *)

let instance_gen =
  QCheck2.Gen.(
    let* ces = int_range 2 11 in
    let* style = oneofl [ `Seg; `Rr; `Hyb ] in
    return (ces, style))

let arch_of (ces, style) model =
  match style with
  | `Seg -> Arch.Baselines.segmented ~ces model
  | `Rr -> Arch.Baselines.segmented_rr ~ces model
  | `Hyb -> Arch.Baselines.hybrid ~ces model

let prop_metrics_positive =
  QCheck2.Test.make ~name:"metrics strictly positive on every baseline"
    ~count:30 instance_gen (fun inst ->
      let m =
        Mccm.Evaluate.metrics mobv2 Platform.Board.vcu108 (arch_of inst mobv2)
      in
      m.Mccm.Metrics.latency_s > 0.0
      && m.Mccm.Metrics.throughput_ips > 0.0
      && m.Mccm.Metrics.buffer_bytes > 0
      && Mccm.Metrics.accesses_bytes m > 0)

let prop_latency_bounded_by_serial =
  QCheck2.Test.make
    ~name:"latency never exceeds fully serial single-PE execution" ~count:20
    instance_gen (fun inst ->
      let board = Platform.Board.vcu108 in
      let m = Mccm.Evaluate.metrics mobv2 board (arch_of inst mobv2) in
      let serial =
        Platform.Board.cycles_to_seconds board (Cnn.Model.total_macs mobv2)
        +. Platform.Board.bytes_to_seconds board (Mccm.Metrics.accesses_bytes m)
      in
      m.Mccm.Metrics.latency_s <= serial)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_metrics_positive; prop_latency_bounded_by_serial ]
  (* Fixed seeds: a failure of the DP properties reproduces on every
     run. *)
  @ List.mapi
      (fun i p ->
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1901 + i |]) p)
      [ prop_dp_matches_reference; prop_validity_interval ]

let () =
  Alcotest.run "mccm"
    [
      ("access", [ Alcotest.test_case "arithmetic" `Quick test_access_arithmetic ]);
      ("metrics", [ Alcotest.test_case "better" `Quick test_metrics_better ]);
      ( "single_ce",
        [
          Alcotest.test_case "ideal accesses" `Quick test_single_ideal_accesses;
          Alcotest.test_case "spill monotone" `Quick test_single_spill_monotone;
          Alcotest.test_case "latency bounds" `Quick
            test_single_latency_is_per_layer_max;
          Alcotest.test_case "inter-segment input" `Quick
            test_single_interseg_input;
          Alcotest.test_case "Eq.6 miniature: fits" `Quick
            test_eq6_miniature_fits;
          Alcotest.test_case "Eq.6 miniature: streams" `Quick
            test_eq6_miniature_ifm_streams;
          Alcotest.test_case "Eq.6 miniature: interseg" `Quick
            test_eq6_miniature_interseg_input;
          Alcotest.test_case "Eq.9 interseg tradeoff" `Quick
            test_eq9_interseg_tradeoff;
        ] );
      ( "pipelined",
        [
          Alcotest.test_case "throughput bottleneck" `Quick
            test_pipelined_throughput_is_bottleneck;
          Alcotest.test_case "Eq.2 uniform round" `Quick
            test_pipelined_eq2_uniform_round;
          Alcotest.test_case "weight reload" `Quick test_pipelined_weight_reload;
        ] );
      ( "roofline",
        [
          Alcotest.test_case "bounds achieved" `Quick
            test_roofline_bounds_achieved;
          Alcotest.test_case "classification" `Quick
            test_roofline_classification;
          Alcotest.test_case "machine balance" `Quick
            test_roofline_machine_balance;
        ] );
      ( "evaluate",
        [
          Alcotest.test_case "feasible metrics" `Quick
            test_evaluate_feasible_metrics;
          Alcotest.test_case "throughput vs latency" `Quick
            test_evaluate_throughput_vs_latency;
          Alcotest.test_case "accesses floor" `Quick test_evaluate_accesses_floor;
          Alcotest.test_case "breakdown consistency" `Quick
            test_evaluate_breakdown_consistency;
          Alcotest.test_case "SegRR segments are rounds" `Quick
            test_evaluate_segrr_segments_are_rounds;
          Alcotest.test_case "initiation interval" `Quick
            test_evaluate_initiation_interval;
          Alcotest.test_case "deterministic" `Quick test_evaluate_deterministic;
          Alcotest.test_case "heap flat without a session" `Quick
            test_evaluate_heap_flat;
          Alcotest.test_case "run takes only the build's table" `Quick
            test_evaluate_run_own_table;
          Alcotest.test_case "segment-cache entry is bounded" `Quick
            test_seg_cache_entry_bounded;
        ] );
      ("properties", properties);
    ]
