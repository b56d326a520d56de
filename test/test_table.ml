(* Tests for the precomputed per-layer table (Cnn.Table), the parallel
   chunking helpers (Util.Parallel) and the bound-pruned, Domains-parallel
   exhaustive scan (Dse.Enumerate.exhaustive_best).

   The table is the cost models' only per-layer source, so the
   load-bearing claims are per-formula: every table read, and every
   table-indexed function built on one, must equal its Cnn.Layer /
   Engine.Ce / Builder.Tiling formula to the last bit.  The pruned and
   parallel scans must return exactly what the sequential unpruned scan
   returns. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Fixed seeds: a property failure reproduces on every run. *)
let to_alcotest ~seed t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t

(* ------------------------------------------- table reads vs formulas *)

(* Every aggregate the table serves must equal the Model/Layer reference
   computation on random models and random ranges. *)
let prop_table_matches_model =
  QCheck2.Test.make ~name:"table aggregates equal list-fold reference"
    ~count:100
    QCheck2.Gen.(pair Generators.model (pair small_nat small_nat))
    (fun (model, (a, b)) ->
      let t = Cnn.Table.of_model model in
      let n = Cnn.Model.num_layers model in
      let first = a mod n and last = b mod n in
      let first, last = (min first last, max first last) in
      Cnn.Table.macs_range t ~first ~last
      = Cnn.Model.macs_in_range model ~first ~last
      && Cnn.Table.weights_range t ~first ~last
         = Cnn.Model.weights_in_range model ~first ~last
      && Cnn.Table.max_fms_range t ~first ~last
         = Cnn.Model.max_fms_elements model ~first ~last
      && Cnn.Table.total_macs t
         = Cnn.Model.macs_in_range model ~first:0 ~last:(n - 1)
      && Cnn.Table.total_weights t
         = Cnn.Model.weights_in_range model ~first:0 ~last:(n - 1))

let prop_table_per_layer_scalars =
  QCheck2.Test.make ~name:"per-layer scalars equal Layer accessors"
    ~count:100 Generators.model (fun model ->
      let t = Cnn.Table.of_model model in
      let ok = ref true in
      for i = 0 to Cnn.Model.num_layers model - 1 do
        let l = Cnn.Model.layer model i in
        let ins = l.Cnn.Layer.in_shape and outs = Cnn.Layer.out_shape l in
        ok :=
          !ok
          && Cnn.Table.macs t i = Cnn.Layer.macs l
          && Cnn.Table.weight_elements t i = Cnn.Layer.weight_elements l
          && Cnn.Table.ifm_elements t i = Cnn.Layer.ifm_elements l
          && Cnn.Table.ofm_elements t i = Cnn.Layer.ofm_elements l
          && Cnn.Table.fms_elements t i = Cnn.Layer.fms_elements l
          && Cnn.Table.extra_resident_elements t i
             = l.Cnn.Layer.extra_resident_elements
          && Cnn.Table.in_height t i = ins.Cnn.Shape.height
          && Cnn.Table.in_width t i = ins.Cnn.Shape.width
          && Cnn.Table.in_channels t i = ins.Cnn.Shape.channels
          && Cnn.Table.out_height t i = outs.Cnn.Shape.height
          && Cnn.Table.out_width t i = outs.Cnn.Shape.width
          && Cnn.Table.out_channels t i = outs.Cnn.Shape.channels
          && Cnn.Table.kernel t i = l.Cnn.Layer.kernel
          && Cnn.Table.stride t i = l.Cnn.Layer.stride
          && Cnn.Table.padding t i = l.Cnn.Layer.padding
          && Cnn.Table.is_depthwise t i
             = (l.Cnn.Layer.kind = Cnn.Layer.Depthwise)
          && Cnn.Table.band1_elements t i
             = Builder.Tiling.ifm_rows_for_ofm_rows l ~rows:1
               * ins.Cnn.Shape.width * ins.Cnn.Shape.channels
          && Cnn.Table.filters_extent t i = Cnn.Layer.loop_extent l `Filters
          && Cnn.Table.channels_extent t i = Cnn.Layer.loop_extent l `Channels
          && Cnn.Table.height_extent t i = Cnn.Layer.loop_extent l `Height
          && Cnn.Table.width_extent t i = Cnn.Layer.loop_extent l `Width
          && Cnn.Table.kernel_h_extent t i = Cnn.Layer.loop_extent l `Kernel_h
          && Cnn.Table.kernel_w_extent t i = Cnn.Layer.loop_extent l `Kernel_w
      done;
      !ok)

(* A random engine: an unroll factor on every Eq.-1 dimension (kernel
   dimensions included, so no term is trivially 1) and a PE budget at or
   above its degree. *)
let engine_gen =
  QCheck2.Gen.(
    map
      (fun (factors, spare) ->
        let parallelism =
          Engine.Parallelism.of_factors
            (List.combine Engine.Parallelism.all_dims factors)
        in
        Engine.Ce.v ~id:1
          ~pes:(Engine.Parallelism.degree parallelism + spare)
          ~parallelism ~dataflow:Engine.Dataflow.Output_stationary)
      (pair (list_repeat 6 (int_range 1 9)) (int_range 0 64)))

let prop_ce_at_matches_layer =
  QCheck2.Test.make ~name:"Engine.Ce table reads equal Layer versions"
    ~count:100
    QCheck2.Gen.(pair Generators.model engine_gen)
    (fun (model, ce) ->
      let t = Cnn.Table.of_model model in
      let n = Cnn.Model.num_layers model in
      let ok = ref true in
      for i = 0 to n - 1 do
        let l = Cnn.Model.layer model i in
        let pes = ce.Engine.Ce.pes in
        ok :=
          !ok
          && Engine.Ce.layer_cycles_at ce t i = Engine.Ce.layer_cycles ce l
          && Engine.Ce.ideal_cycles_at ~pes t i = Engine.Ce.ideal_cycles ~pes l
          && List.for_all
               (fun rows ->
                 Engine.Ce.tile_cycles_at ce t i ~rows
                 = Engine.Ce.tile_cycles ce l ~rows)
               (let oh = Cnn.Table.out_height t i in
                [ 0; 1; 2; 3; oh; oh + 1 ])
      done;
      !ok)

(* The builder's per-CE assignments: a contiguous range (single-CE
   block) or one round-robin slot of a pipelined block. *)
let prop_choose_indices_matches_choose =
  QCheck2.Test.make ~name:"choose_indices equals choose" ~count:100
    QCheck2.Gen.(
      pair Generators.model
        (quad (int_range 1 4096) small_nat small_nat (int_range 1 6)))
    (fun (model, (pes, a, b, ces)) ->
      let t = Cnn.Table.of_model model in
      let n = Cnn.Model.num_layers model in
      let first = a mod n and last = b mod n in
      let first, last = (min first last, max first last) in
      let range = List.init (last - first + 1) (fun k -> first + k) in
      let slots =
        Array.to_list (Builder.Workload.pipelined_assignment ~ces ~first ~last)
      in
      List.for_all
        (fun indices ->
          Engine.Parallelism.equal
            (Builder.Parallelism_select.choose_indices ~pes t indices)
            (Builder.Parallelism_select.choose ~pes
               ~layers:(List.map (Cnn.Model.layer model) indices)))
        (range :: slots))

let prop_tiling_at_matches_layer =
  QCheck2.Test.make ~name:"Tiling table reads equal Layer versions"
    ~count:100 QCheck2.Gen.(pair Generators.model engine_gen)
    (fun (model, ce) ->
      let t = Cnn.Table.of_model model in
      let ok = ref true in
      for i = 0 to Cnn.Model.num_layers model - 1 do
        let l = Cnn.Model.layer model i in
        ok :=
          !ok
          && Builder.Tiling.weight_tile_elements_at ce t i
             = Builder.Tiling.weight_tile_elements ce l
          && Builder.Tiling.min_fm_elements_at t i
             = Builder.Tiling.min_fm_elements l
          && List.for_all
               (fun rows ->
                 Builder.Tiling.num_row_tiles_at t i ~rows
                 = Builder.Tiling.num_row_tiles l ~rows)
               (let oh = Cnn.Table.out_height t i in
                [ 1; 2; 3; 7; oh; oh + 1 ])
      done;
      !ok)

(* ------------------------------------------------------ Util.Parallel *)

let test_bounds_partition () =
  List.iter
    (fun (chunks, n) ->
      let parts = Util.Parallel.bounds ~chunks ~n in
      (* The chunk count is capped at [n]: asking for more chunks than
         items returns [n] singletons, never empty chunks that would
         each still cost a domain spawn (the pre-pool regression). *)
      let expect = max 1 (min chunks (max 1 n)) in
      checki "chunk count" expect (Array.length parts);
      let lo0, _ = parts.(0) in
      checki "starts at 0" 0 lo0;
      let _, hi_last = parts.(Array.length parts - 1) in
      checki "ends at n" n hi_last;
      Array.iteri
        (fun i (lo, hi) ->
          checkb "contiguous" true
            (i = 0 || snd parts.(i - 1) = lo);
          checkb "non-empty while n > 0" true (n = 0 || hi > lo);
          checkb "sizes differ by at most one" true
            (hi - lo >= n / expect && hi - lo <= (n / expect) + 1))
        parts)
    [ (1, 10); (3, 10); (4, 12); (7, 5); (5, 0); (8, 3); (3, 3) ]

let test_effective_clamps () =
  checki "never below 1" 1 (Util.Parallel.effective ~domains:0 ~n:10 ());
  checki "clamped by n" 3
    (Util.Parallel.effective ~clamp:false ~domains:8 ~n:3 ());
  checki "unclamped honours request" 4
    (Util.Parallel.effective ~clamp:false ~domains:4 ~n:100 ());
  checkb "clamped by recommended count" true
    (Util.Parallel.effective ~domains:64 ~n:1000 ()
    <= Util.Parallel.recommended ())

let test_map_pooled_order () =
  (* The concatenated chunk results must reproduce the sequential scan,
     in order, for every domain count. *)
  let n = 37 in
  let seq = List.init n (fun i -> i * i) in
  List.iter
    (fun domains ->
      let out =
        List.concat
          (Util.Parallel.map_pooled ~clamp:false ~chunk_hint:1 ~domains ~n
             (fun ~worker:_ ~chunk:_ ~lo ~hi -> List.init (hi - lo) (fun k ->
                  let i = lo + k in
                  i * i)))
      in
      checkb (Printf.sprintf "domains=%d" domains) true (out = seq))
    [ 1; 2; 4; 5 ]

(* ------------------------------- parallel + pruned exhaustive scans *)

let mobv2 = Cnn.Model_zoo.mobilenet_v2 ()
let board = Platform.Board.vcu108

let test_exhaustive_domain_invariant () =
  (* The full evaluated list (order included) must be identical for
     every domain count, even when the domains are oversubscribed. *)
  let run domains =
    Dse.Enumerate.exhaustive ~max_specs:120 ~domains ~clamp:false ~ces:3
      mobv2 board
  in
  let reference = run 1 in
  List.iter
    (fun d ->
      checkb (Printf.sprintf "domains=%d identical" d) true (run d = reference))
    [ 2; 4 ]

let test_exhaustive_best_matches_unpruned_sequential () =
  (* The pruned, parallel scan must return the same best design as the
     sequential unpruned scan, for both objectives and domains 1/2/4. *)
  List.iter
    (fun objective ->
      let reference, ref_stats =
        Dse.Enumerate.exhaustive_best ~max_specs:150 ~domains:1 ~prune:false
          ~objective ~ces:3 mobv2 board
      in
      checki "unpruned evaluates everything" ref_stats.Dse.Enumerate.enumerated
        ref_stats.Dse.Enumerate.evaluated;
      List.iter
        (fun domains ->
          let best, stats =
            Dse.Enumerate.exhaustive_best ~max_specs:150 ~domains ~clamp:false
              ~prune:true ~objective ~ces:3 mobv2 board
          in
          checkb
            (Printf.sprintf "domains=%d same best" domains)
            true (best = reference);
          checki "evaluated + pruned = enumerated" stats.Dse.Enumerate.enumerated
            (stats.Dse.Enumerate.evaluated + stats.Dse.Enumerate.pruned))
        [ 1; 2; 4 ])
    [ `Throughput; `Latency ]

let test_exhaustive_best_agrees_with_exhaustive () =
  (* The scan's winner must be the argmax of the plain evaluated list
     (first occurrence on ties). *)
  let evaluated = Dse.Enumerate.exhaustive ~max_specs:150 ~ces:3 mobv2 board in
  let best, _ =
    Dse.Enumerate.exhaustive_best ~max_specs:150 ~objective:`Throughput ~ces:3
      mobv2 board
  in
  let by_list =
    List.fold_left
      (fun acc (e : Dse.Explore.evaluated) ->
        match acc with
        | Some (b : Dse.Explore.evaluated)
          when b.metrics.Mccm.Metrics.throughput_ips
               >= e.metrics.Mccm.Metrics.throughput_ips ->
          acc
        | _ -> Some e)
      None evaluated
  in
  checkb "argmax of evaluated list" true (best = by_list)

(* ------------------------------------------------ bound admissibility *)

let prop_bounds_admissible =
  let table = Cnn.Table.of_model mobv2 in
  let b = Dse.Bounds.create table board in
  let session = Mccm.Eval_session.create mobv2 board in
  QCheck2.Test.make ~name:"bounds are admissible on random specs" ~count:60
    (Generators.custom_spec ~num_layers:(Cnn.Model.num_layers mobv2))
    (fun spec ->
      let ces = Arch.Custom.total_ces spec in
      let width = Dse.Space.Flat.width ~ces in
      let buf = Dse.Space.Flat.create ~width 1 in
      Dse.Space.Flat.encode buf ~width ~at:0 spec;
      let ctx = Dse.Bounds.context b ~ces in
      let ub = Dse.Bounds.throughput_upper_bound_flat ctx buf ~width 0 in
      let lb = Dse.Bounds.latency_lower_bound_flat ctx buf ~width 0 in
      let m =
        Mccm.Eval_session.metrics session (Arch.Custom.arch_of_spec mobv2 spec)
      in
      (not m.Mccm.Metrics.feasible)
      || (ub >= m.Mccm.Metrics.throughput_ips
         && lb <= m.Mccm.Metrics.latency_s))

(* ---------------------------------------------------------- plumbing *)

let () =
  Alcotest.run "table"
    [
      ( "table",
        List.mapi
          (fun i p -> to_alcotest ~seed:(1301 + i) p)
          [
            prop_table_matches_model;
            prop_table_per_layer_scalars;
            prop_ce_at_matches_layer;
            prop_choose_indices_matches_choose;
            prop_tiling_at_matches_layer;
          ] );
      ( "parallel",
        [
          Alcotest.test_case "bounds partition [0,n)" `Quick
            test_bounds_partition;
          Alcotest.test_case "effective clamps" `Quick test_effective_clamps;
          Alcotest.test_case "map_pooled preserves order" `Quick
            test_map_pooled_order;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "domain-count invariant" `Quick
            test_exhaustive_domain_invariant;
          Alcotest.test_case "pruned+parallel equals unpruned sequential"
            `Quick test_exhaustive_best_matches_unpruned_sequential;
          Alcotest.test_case "agrees with plain exhaustive" `Quick
            test_exhaustive_best_agrees_with_exhaustive;
        ] );
      ( "bounds",
        List.map QCheck_alcotest.to_alcotest [ prop_bounds_admissible ] );
    ]
