(* Tests for the Multiple-CE Builder: PE distribution, parallelism
   selection, tiling arithmetic and buffer allocation. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let res50 = Cnn.Model_zoo.resnet50 ()
let mobv2 = Cnn.Model_zoo.mobilenet_v2 ()

(* ---------------------------------------------------- Pe_allocation *)

let test_pe_distribute_sum () =
  let pes = Builder.Pe_allocation.distribute ~budget:900 ~workloads:[| 3; 1; 1 |] in
  check "spends budget" 900 (Array.fold_left ( + ) 0 pes);
  checkb "proportional" true (pes.(0) > pes.(1))

let test_pe_distribute_minimum () =
  let pes =
    Builder.Pe_allocation.distribute ~budget:10 ~workloads:[| 1000000; 0; 1 |]
  in
  Array.iter (fun p -> checkb "at least 1" true (p >= 1)) pes;
  check "sum" 10 (Array.fold_left ( + ) 0 pes)

let test_pe_distribute_equal () =
  let pes = Builder.Pe_allocation.distribute ~budget:9 ~workloads:[| 5; 5; 5 |] in
  Alcotest.(check (array int)) "equal thirds" [| 3; 3; 3 |] pes

let test_pe_distribute_invalid () =
  Alcotest.check_raises "budget too small"
    (Invalid_argument
       "Pe_allocation.distribute: budget 2 cannot give 3 engines a PE")
    (fun () ->
      ignore (Builder.Pe_allocation.distribute ~budget:2 ~workloads:[| 1; 1; 1 |]))

(* ------------------------------------------------ Parallelism_select *)

let test_smooth_degree () =
  check "900 is smooth" 900 (Builder.Parallelism_select.smooth_degree 900);
  check "899 -> 896" 896 (Builder.Parallelism_select.smooth_degree 899);
  check "1 -> 1" 1 (Builder.Parallelism_select.smooth_degree 1);
  (* 2521 is prime-ish; whatever comes back must be 7-smooth and <= n. *)
  let d = Builder.Parallelism_select.smooth_degree 2521 in
  checkb "<= n" true (d <= 2521);
  let rec strip n p = if n mod p = 0 then strip (n / p) p else n in
  check "7-smooth" 1 (strip (strip (strip (strip d 2) 3) 5) 7);
  (* Near max_int the generator's multiplies would wrap past it; the
     expected values come from exact big-integer enumeration. *)
  check "max_int" 4611653492853012480
    (Builder.Parallelism_select.smooth_degree max_int);
  check "2^61 - 1" 2305826746426506240
    (Builder.Parallelism_select.smooth_degree ((1 lsl 61) - 1))

let test_choose_degree_within_budget () =
  let layers = Cnn.Model.layers_in_range res50 ~first:0 ~last:9 in
  List.iter
    (fun pes ->
      let p = Builder.Parallelism_select.choose ~pes ~layers in
      checkb
        (Printf.sprintf "degree <= %d" pes)
        true
        (Engine.Parallelism.degree p <= pes))
    [ 1; 7; 64; 450; 900; 2520 ]

let test_choose_depthwise_uses_channels () =
  let dw_layers =
    List.filter
      (fun (l : Cnn.Layer.t) -> l.Cnn.Layer.kind = Cnn.Layer.Depthwise)
      (Cnn.Model.layers_in_range mobv2 ~first:0
         ~last:(Cnn.Model.num_layers mobv2 - 1))
  in
  let p = Builder.Parallelism_select.choose ~pes:256 ~layers:dw_layers in
  check "no filter unrolling" 1
    (Engine.Parallelism.factor p Engine.Parallelism.Filters);
  checkb "channels unrolled" true
    (Engine.Parallelism.factor p Engine.Parallelism.Channels > 1)

let test_choose_beats_naive () =
  (* The chosen strategy should be at least as good as a naive square
     strategy of the same budget. *)
  let layers = Cnn.Model.layers_in_range res50 ~first:10 ~last:30 in
  let pes = 512 in
  let chosen = Builder.Parallelism_select.choose ~pes ~layers in
  let naive = Engine.Parallelism.three_d ~filters:8 ~height:8 ~width:8 in
  let cycles p =
    let ce =
      Engine.Ce.v ~id:1 ~pes ~parallelism:p
        ~dataflow:Engine.Dataflow.Output_stationary
    in
    List.fold_left (fun a l -> a + Engine.Ce.layer_cycles ce l) 0 layers
  in
  checkb "chosen <= naive" true (cycles chosen <= cycles naive)

(* ----------------------------------------------------------- Tiling *)

let test_weight_tile () =
  let l = Cnn.Model.layer res50 10 in
  let ce =
    Engine.Ce.v ~id:1 ~pes:64
      ~parallelism:(Engine.Parallelism.three_d ~filters:16 ~height:2 ~width:2)
      ~dataflow:Engine.Dataflow.Output_stationary
  in
  let tile = Builder.Tiling.weight_tile_elements ce l in
  let total = Cnn.Layer.weight_elements l in
  checkb "tile <= total" true (tile <= total);
  checkb "tile >= filters share" true (tile * Cnn.Layer.loop_extent l `Filters >= total)

let test_fm_tile_rows () =
  let l = Cnn.Model.layer res50 0 in
  let o = Cnn.Layer.out_shape l in
  check "4 tiles" (Util.Int_math.ceil_div o.Cnn.Shape.height 4)
    (Builder.Tiling.tile_rows l ~tiles:4);
  check "tiles count" 4
    (Builder.Tiling.num_row_tiles l ~rows:(Builder.Tiling.tile_rows l ~tiles:4))

let test_ifm_rows_for_ofm_rows () =
  let l = Cnn.Model.layer res50 0 in
  (* stride 2, kernel 7: one OFM row needs 7 IFM rows. *)
  check "one row" 7 (Builder.Tiling.ifm_rows_for_ofm_rows l ~rows:1);
  check "two rows" 9 (Builder.Tiling.ifm_rows_for_ofm_rows l ~rows:2)

let test_producer_tile () =
  check "same counts" 3
    (Builder.Tiling.producer_tile ~producer_tiles:8 ~consumer_tiles:8 3);
  check "producer finer" 3
    (Builder.Tiling.producer_tile ~producer_tiles:8 ~consumer_tiles:4 1);
  check "producer coarser" 0
    (Builder.Tiling.producer_tile ~producer_tiles:2 ~consumer_tiles:8 1);
  check "clamped" 7
    (Builder.Tiling.producer_tile ~producer_tiles:8 ~consumer_tiles:4 3)

let test_min_fm_elements () =
  let l = Cnn.Model.layer res50 0 in
  let s = l.Cnn.Layer.in_shape and o = Cnn.Layer.out_shape l in
  checkb "min below full" true
    (Builder.Tiling.min_fm_elements l
    < Cnn.Shape.elements s + Cnn.Shape.elements o)

(* ------------------------------------------------------ Buffer_alloc *)

let built archi board = Builder.Build.build res50 board archi

let test_plan_fits_bram () =
  List.iter
    (fun board ->
      List.iter
        (fun (_, archi) ->
          let b = built archi board in
          let plan = b.Builder.Build.plan in
          if plan.Builder.Buffer_alloc.feasible then
            checkb "total <= BRAM" true
              (plan.Builder.Buffer_alloc.total_bytes
              <= board.Platform.Board.bram_bytes))
        (Arch.Baselines.all_instances res50))
    [ Platform.Board.zc706; Platform.Board.zcu102 ]

let test_plan_single_capacity_bounds () =
  let b = built (Arch.Baselines.segmented ~ces:4 res50) Platform.Board.zcu102 in
  Array.iter
    (fun bp ->
      match bp with
      | Builder.Buffer_alloc.Plan_single p ->
        checkb "capacity <= ideal" true
          (p.Builder.Buffer_alloc.fm_capacity_bytes
          <= p.Builder.Buffer_alloc.fm_ideal_bytes);
        checkb "positive staging" true
          (p.Builder.Buffer_alloc.weights_tile_bytes > 0)
      | Builder.Buffer_alloc.Plan_pipelined _ -> ())
    b.Builder.Build.plan.Builder.Buffer_alloc.block_plans

let test_plan_retention_on_big_board () =
  (* MobileNetV2's 4.4 MB of 16-bit weights fit ZCU102's BRAM: the
     allocator should retain the weights of every pipelined layer that
     would otherwise reload them (more than one tile).  Single-tile
     layers stream their weights exactly once either way. *)
  let b =
    Builder.Build.build mobv2 Platform.Board.zcu102
      (Arch.Baselines.segmented_rr ~ces:4 mobv2)
  in
  Array.iteri
    (fun bi bp ->
      match (bp, (Array.of_list b.Builder.Build.archi.Arch.Block.blocks).(bi)) with
      | Builder.Buffer_alloc.Plan_pipelined p, Arch.Block.Pipelined { first; _ } ->
        Array.iteri
          (fun i retained ->
            let layer = Cnn.Model.layer mobv2 (first + i) in
            let tiles =
              Builder.Tiling.num_row_tiles layer
                ~rows:p.Builder.Buffer_alloc.tile_rows.(i)
            in
            if tiles > 1 then checkb "multi-tile layer retained" true retained)
          p.Builder.Buffer_alloc.weights_retained
      | _ -> ())
    b.Builder.Build.plan.Builder.Buffer_alloc.block_plans

let test_plan_no_full_retention_on_small_board () =
  (* ResNet50's 47 MB of weights cannot fit ZC706's 2.4 MiB. *)
  let b = built (Arch.Baselines.segmented_rr ~ces:4 res50) Platform.Board.zc706 in
  Array.iter
    (fun bp ->
      match bp with
      | Builder.Buffer_alloc.Plan_pipelined p ->
        checkb "some streamed" true
          (Array.exists not p.Builder.Buffer_alloc.weights_retained)
      | Builder.Buffer_alloc.Plan_single _ -> ())
    b.Builder.Build.plan.Builder.Buffer_alloc.block_plans

let test_tile_rows_aligned () =
  let b = built (Arch.Baselines.segmented_rr ~ces:4 res50) Platform.Board.zcu102 in
  match
    (b.Builder.Build.blocks.(0),
     b.Builder.Build.plan.Builder.Buffer_alloc.block_plans.(0))
  with
  | ( Builder.Build.Built_pipelined { engines; first; _ },
      Builder.Buffer_alloc.Plan_pipelined p ) ->
    Array.iteri
      (fun i rows ->
        let layer = Cnn.Model.layer res50 (first + i) in
        let engine = engines.(i mod Array.length engines) in
        let par_h =
          Engine.Parallelism.factor engine.Engine.Ce.parallelism
            Engine.Parallelism.Height
        in
        let out_h = (Cnn.Layer.out_shape layer).Cnn.Shape.height in
        checkb "aligned or full" true (rows mod par_h = 0 || rows = out_h))
      p.Builder.Buffer_alloc.tile_rows
  | _ -> Alcotest.fail "expected pipelined block"

let test_audit_clean_on_baselines () =
  List.iter
    (fun board ->
      List.iter
        (fun (name, archi) ->
          let b = Builder.Build.build res50 board archi in
          match
            Builder.Buffer_alloc.audit res50 board archi b.Builder.Build.plan
          with
          | [] -> ()
          | problems ->
            Alcotest.failf "%s on %s: %s" name board.Platform.Board.name
              (String.concat "; " problems))
        (Arch.Baselines.all_instances res50))
    [ Platform.Board.zc706; Platform.Board.vcu110; Platform.Board.zcu102 ]

let test_audit_flags_corruption () =
  let archi = Arch.Baselines.segmented ~ces:4 res50 in
  let b = Builder.Build.build res50 Platform.Board.zcu102 archi in
  let plan = b.Builder.Build.plan in
  let corrupted =
    { plan with Builder.Buffer_alloc.total_bytes = plan.Builder.Buffer_alloc.total_bytes + 1 }
  in
  checkb "corruption detected" true
    (Builder.Buffer_alloc.audit res50 Platform.Board.zcu102 archi corrupted
    <> [])

(* ------------------------------------------------------------ Build *)

let test_build_engine_budget () =
  List.iter
    (fun (_, archi) ->
      let b = built archi Platform.Board.vcu108 in
      let total =
        Array.fold_left (fun a e -> a + e.Engine.Ce.pes) 0 b.Builder.Build.engines
      in
      check "spends all DSPs" 768 total)
    (Arch.Baselines.all_instances res50)

let test_build_dataflows () =
  let b = built (Arch.Baselines.hybrid ~ces:4 res50) Platform.Board.vcu108 in
  (* First ces-1 engines are pipelined (WS); the last is single (OS). *)
  let n = Array.length b.Builder.Build.engines in
  Array.iteri
    (fun i e ->
      let expected =
        if i = n - 1 then Engine.Dataflow.Output_stationary
        else Engine.Dataflow.Weight_stationary
      in
      checkb "dataflow" true (e.Engine.Ce.dataflow = expected))
    b.Builder.Build.engines

let test_engine_for_layer () =
  let b = built (Arch.Baselines.hybrid ~ces:4 res50) Platform.Board.vcu108 in
  check "layer 0 on CE1" 1 (Builder.Build.engine_for_layer b 0).Engine.Ce.id;
  check "layer 1 on CE2" 2 (Builder.Build.engine_for_layer b 1).Engine.Ce.id;
  check "layer 10 on CE4" 4 (Builder.Build.engine_for_layer b 10).Engine.Ce.id

let test_workload_assignment () =
  let a = Workload_helper.assignment () in
  Alcotest.(check (list int)) "ce0" [ 0; 3; 6 ] a.(0);
  Alcotest.(check (list int)) "ce1" [ 1; 4 ] a.(1);
  Alcotest.(check (list int)) "ce2" [ 2; 5 ] a.(2)

(* ------------------------------------------------------- properties *)

let prop_pe_distribution =
  QCheck2.Test.make ~name:"PE distribution spends budget with floor 1"
    Generators.pe_budget_workloads
    (fun (budget, workloads) ->
      QCheck2.assume (budget >= Array.length workloads);
      let pes = Builder.Pe_allocation.distribute ~budget ~workloads in
      Array.fold_left ( + ) 0 pes = budget && Array.for_all (fun p -> p >= 1) pes)

let prop_share_upper_bound =
  QCheck2.Test.make
    ~name:"distribute never exceeds share_upper_bound"
    Generators.pe_budget_workloads
    (fun (budget, workloads) ->
      QCheck2.assume (budget >= Array.length workloads);
      let engines = Array.length workloads in
      let total = Array.fold_left ( + ) 0 workloads in
      let pes = Builder.Pe_allocation.distribute ~budget ~workloads in
      let ok = ref true in
      Array.iteri
        (fun i p ->
          let ub =
            Builder.Pe_allocation.share_upper_bound ~budget ~engines
              ~workload:workloads.(i) ~total
          in
          if p > ub then ok := false)
        pes;
      !ok)

let prop_ifm_rows_monotone =
  QCheck2.Test.make ~name:"IFM rows monotone in OFM rows, never below kernel"
    QCheck2.Gen.(
      triple Generators.res50_layer_index (int_range 1 112) (int_range 1 112))
    (fun (li, r1, r2) ->
      let l = Cnn.Model.layer res50 li in
      let lo = min r1 r2 and hi = max r1 r2 in
      let a = Builder.Tiling.ifm_rows_for_ofm_rows l ~rows:lo in
      let b = Builder.Tiling.ifm_rows_for_ofm_rows l ~rows:hi in
      a <= b && a >= l.Cnn.Layer.kernel)

let prop_row_tiles_roundtrip =
  QCheck2.Test.make ~name:"tile_rows for n tiles never yields more than n"
    QCheck2.Gen.(pair Generators.res50_layer_index Generators.tile_count)
    (fun (li, n) ->
      let l = Cnn.Model.layer res50 li in
      Builder.Tiling.num_row_tiles l ~rows:(Builder.Tiling.tile_rows l ~tiles:n)
      <= n)

let prop_producer_tile_range =
  QCheck2.Test.make ~name:"producer tile stays in range"
    QCheck2.Gen.(
      triple (int_range 1 64) (int_range 1 64) (int_range 0 63))
    (fun (pt, ct, t) ->
      QCheck2.assume (t < ct);
      let p =
        Builder.Tiling.producer_tile ~producer_tiles:pt ~consumer_tiles:ct t
      in
      0 <= p && p < pt)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pe_distribution; prop_share_upper_bound; prop_ifm_rows_monotone;
      prop_row_tiles_roundtrip; prop_producer_tile_range;
    ]

let () =
  Alcotest.run "builder"
    [
      ( "pe_allocation",
        [
          Alcotest.test_case "sum" `Quick test_pe_distribute_sum;
          Alcotest.test_case "minimum" `Quick test_pe_distribute_minimum;
          Alcotest.test_case "equal" `Quick test_pe_distribute_equal;
          Alcotest.test_case "invalid" `Quick test_pe_distribute_invalid;
        ] );
      ( "parallelism_select",
        [
          Alcotest.test_case "smooth degree" `Quick test_smooth_degree;
          Alcotest.test_case "degree within budget" `Quick
            test_choose_degree_within_budget;
          Alcotest.test_case "depthwise channels" `Quick
            test_choose_depthwise_uses_channels;
          Alcotest.test_case "beats naive" `Quick test_choose_beats_naive;
        ] );
      ( "tiling",
        [
          Alcotest.test_case "weight tile" `Quick test_weight_tile;
          Alcotest.test_case "fm tile rows" `Quick test_fm_tile_rows;
          Alcotest.test_case "ifm rows" `Quick test_ifm_rows_for_ofm_rows;
          Alcotest.test_case "producer tile" `Quick test_producer_tile;
          Alcotest.test_case "min fm" `Quick test_min_fm_elements;
        ] );
      ( "buffer_alloc",
        [
          Alcotest.test_case "fits BRAM" `Quick test_plan_fits_bram;
          Alcotest.test_case "single capacity bounds" `Quick
            test_plan_single_capacity_bounds;
          Alcotest.test_case "retention big board" `Quick
            test_plan_retention_on_big_board;
          Alcotest.test_case "no full retention small board" `Quick
            test_plan_no_full_retention_on_small_board;
          Alcotest.test_case "tile rows aligned" `Quick test_tile_rows_aligned;
          Alcotest.test_case "audit clean" `Slow test_audit_clean_on_baselines;
          Alcotest.test_case "audit flags corruption" `Quick
            test_audit_flags_corruption;
        ] );
      ( "build",
        [
          Alcotest.test_case "engine budget" `Quick test_build_engine_budget;
          Alcotest.test_case "dataflows" `Quick test_build_dataflows;
          Alcotest.test_case "engine for layer" `Quick test_engine_for_layer;
          Alcotest.test_case "workload assignment" `Quick test_workload_assignment;
        ] );
      ("properties", properties);
    ]
