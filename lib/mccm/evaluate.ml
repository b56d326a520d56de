(* Observability hooks: one span per block-model evaluation (split by
   single-CE vs pipelined — the two model families the paper composes)
   plus one around each whole run.  Dormant, each is a single atomic
   load (see Mccm_obs.Control). *)
let c_single = Mccm_obs.Metric.counter "eval.single_ce.blocks"
let c_pipelined = Mccm_obs.Metric.counter "eval.pipelined.blocks"

type block_eval = {
  block_index : int;
  latency_s : float;
  ii_s : float;
  accesses : Access.t;
  segments : Breakdown.segment list;
}

type t = {
  metrics : Metrics.t;
  breakdown : Breakdown.t;
  blocks : block_eval list;
  initiation_interval_s : float;
  ii_compute_s : float;
  ii_memory_s : float;
}

let boundary_flags plan ~num_blocks ~index =
  let on_chip = plan.Builder.Buffer_alloc.inter_seg_on_chip in
  let input_on_chip = if index = 0 then false else on_chip.(index - 1) in
  let output_on_chip =
    if index = num_blocks - 1 then false else on_chip.(index)
  in
  (input_on_chip, output_on_chip)

(* Buffer bytes attributed to a block, including the on-chip double buffer
   toward its successor (Eq. 8's 2 x interSegBufferSz). *)
let block_buffer_bytes (built : Builder.Build.t) ~index =
  let plan = built.Builder.Build.plan in
  let base =
    match
      (plan.Builder.Buffer_alloc.block_plans.(index),
       built.Builder.Build.blocks.(index))
    with
    | Builder.Buffer_alloc.Plan_single p, _ ->
      p.Builder.Buffer_alloc.weights_tile_bytes
      + p.Builder.Buffer_alloc.fm_capacity_bytes
    | ( Builder.Buffer_alloc.Plan_pipelined p,
        Builder.Build.Built_pipelined { first; _ } ) ->
      let bpe = built.Builder.Build.board.Platform.Board.bytes_per_element in
      let acc = ref 0 in
      Array.iteri
        (fun i tile ->
          acc := !acc + (2 * tile);
          if p.Builder.Buffer_alloc.weights_retained.(i) then
            acc :=
              !acc
              + Cnn.Table.weight_elements built.Builder.Build.table (first + i)
                * bpe)
        p.Builder.Buffer_alloc.fm_tile_bytes;
      let any_streamed = Array.exists not p.Builder.Buffer_alloc.weights_retained in
      if any_streamed then
        acc := !acc + p.Builder.Buffer_alloc.weights_staging_bytes;
      !acc
    | Builder.Buffer_alloc.Plan_pipelined _, Builder.Build.Built_single _ ->
      assert false
  in
  let inter =
    if
      index < Array.length plan.Builder.Buffer_alloc.inter_seg_on_chip
      && plan.Builder.Buffer_alloc.inter_seg_on_chip.(index)
    then 2 * plan.Builder.Buffer_alloc.inter_seg_bytes.(index)
    else 0
  in
  base + inter

let eval_block ?cache (built : Builder.Build.t) ~index ~segment_counter =
  let table = built.Builder.Build.table in
  let board = built.Builder.Build.board in
  let plan = built.Builder.Build.plan in
  let num_blocks = Array.length built.Builder.Build.blocks in
  let input_on_chip, output_on_chip =
    boundary_flags plan ~num_blocks ~index
  in
  let next_label () =
    incr segment_counter;
    Printf.sprintf "seg%d" !segment_counter
  in
  match
    (built.Builder.Build.blocks.(index),
     plan.Builder.Buffer_alloc.block_plans.(index))
  with
  | ( Builder.Build.Built_single { engine; first; last },
      Builder.Buffer_alloc.Plan_single splan ) ->
    (* The span covers only the model computation: a segment-cache hit
       is a table probe whose cost a span would dwarf, and hits are
       already counted by Seg_cache ("seg.single.hit"). *)
    let compute () =
      Mccm_obs.span ~cat:"mccm" "eval.single_ce" @@ fun () ->
      Mccm_obs.Metric.incr c_single;
      Single_ce_model.evaluate ~table ~board ~engine ~plan:splan ~first
        ~last ~input_on_chip ~output_on_chip ()
    in
    let r =
      match cache with
      | None -> compute ()
      | Some c ->
        Seg_cache.single c ~engine
          ~cap:splan.Builder.Buffer_alloc.fm_capacity_bytes ~first ~last
          ~input_on_chip ~output_on_chip compute
    in
    let segment =
      {
        Breakdown.label = next_label ();
        block_index = index;
        compute_s = r.Single_ce_model.compute_s;
        memory_s = r.Single_ce_model.memory_s;
        time_s = r.Single_ce_model.latency_s;
        buffer_bytes = block_buffer_bytes built ~index;
        utilization = r.Single_ce_model.utilization;
        accesses = r.Single_ce_model.accesses;
      }
    in
    {
      block_index = index;
      latency_s = r.Single_ce_model.latency_s;
      ii_s = r.Single_ce_model.latency_s;
      accesses = r.Single_ce_model.accesses;
      segments = [ segment ];
    }
  | ( Builder.Build.Built_pipelined { engines; first; last; _ },
      Builder.Buffer_alloc.Plan_pipelined pplan ) ->
    let compute () =
      Mccm_obs.span ~cat:"mccm" "eval.pipelined" @@ fun () ->
      Mccm_obs.Metric.incr c_pipelined;
      Pipelined_model.evaluate ~table ~board ~engines ~plan:pplan
        ~first ~last ~input_on_chip ~output_on_chip ()
    in
    let r =
      match cache with
      | None -> compute ()
      | Some c ->
        Seg_cache.pipelined c ~engines ~plan:pplan ~first ~last ~input_on_chip
          ~output_on_chip compute
    in
    let segments =
      match r.Pipelined_model.rounds with
      | [ only ] ->
        [
          {
            Breakdown.label = next_label ();
            block_index = index;
            compute_s = only.Pipelined_model.compute_s;
            memory_s = only.Pipelined_model.memory_s;
            time_s = only.Pipelined_model.time_s;
            buffer_bytes = block_buffer_bytes built ~index;
            utilization = only.Pipelined_model.utilization;
            accesses = only.Pipelined_model.accesses;
          };
        ]
      | rounds ->
        List.map
          (fun (round : Pipelined_model.round_result) ->
            {
              Breakdown.label = next_label ();
              block_index = index;
              compute_s = round.Pipelined_model.compute_s;
              memory_s = round.Pipelined_model.memory_s;
              time_s = round.Pipelined_model.time_s;
              buffer_bytes = round.Pipelined_model.buffer_bytes;
              utilization = round.Pipelined_model.utilization;
              accesses = round.Pipelined_model.accesses;
            })
          rounds
    in
    {
      block_index = index;
      latency_s = r.Pipelined_model.latency_s;
      ii_s = r.Pipelined_model.bottleneck_s;
      accesses = r.Pipelined_model.accesses;
      segments;
    }
  | Builder.Build.Built_single _, Builder.Buffer_alloc.Plan_pipelined _
  | Builder.Build.Built_pipelined _, Builder.Buffer_alloc.Plan_single _ ->
    assert false

let run ?cache ?table (built : Builder.Build.t) =
  Mccm_obs.span ~cat:"mccm" "eval.run" @@ fun () ->
  (match table with
  | Some t when t != built.Builder.Build.table ->
    invalid_arg "Evaluate.run: table is not the build's own"
  | _ -> ());
  let board = built.Builder.Build.board in
  let plan = built.Builder.Build.plan in
  let num_blocks = Array.length built.Builder.Build.blocks in
  let segment_counter = ref 0 in
  let blocks =
    List.init num_blocks (fun index ->
        eval_block ?cache built ~index ~segment_counter)
  in
  let accesses = Access.sum (List.map (fun b -> b.accesses) blocks) in
  let latency_s = List.fold_left (fun a b -> a +. b.latency_s) 0.0 blocks in
  (* Throughput: slowest stage when inter-segment pipelining overlaps
     blocks on distinct inputs; whole schedule otherwise (a lone pipelined
     block still overlaps inputs at tile granularity via its ii). *)
  let ii_compute =
    if built.Builder.Build.archi.Arch.Block.coarse_pipelined then
      List.fold_left (fun a b -> Float.max a b.ii_s) 0.0 blocks
    else
      match blocks with
      | [ only ] -> only.ii_s
      | _ -> latency_s
  in
  let ii_memory =
    Platform.Board.bytes_to_seconds board (Access.total accesses)
  in
  let ii = Float.max ii_compute ii_memory in
  let throughput_ips = if ii > 0.0 then 1.0 /. ii else 0.0 in
  let metrics =
    {
      Metrics.latency_s;
      throughput_ips;
      buffer_bytes = plan.Builder.Buffer_alloc.total_bytes;
      accesses;
      feasible = plan.Builder.Buffer_alloc.feasible;
    }
  in
  let breakdown =
    Breakdown.of_segments (List.concat_map (fun b -> b.segments) blocks)
  in
  { metrics; breakdown; blocks; initiation_interval_s = ii;
    ii_compute_s = ii_compute; ii_memory_s = ii_memory }

let evaluate model board archi = run (Builder.Build.build model board archi)

let metrics model board archi = (evaluate model board archi).metrics
