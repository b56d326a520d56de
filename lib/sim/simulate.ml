type t = { metrics : Mccm.Metrics.t; achieved_clock_hz : float }

type block_sim = {
  latency_cycles : float;
  interval_cycles : float;
  accesses : Mccm.Access.t;
  port_cycles : float;
}

let boundary_flags plan ~num_blocks ~index =
  let on_chip = plan.Builder.Buffer_alloc.inter_seg_on_chip in
  let input_on_chip = if index = 0 then false else on_chip.(index - 1) in
  let output_on_chip =
    if index = num_blocks - 1 then false else on_chip.(index)
  in
  (input_on_chip, output_on_chip)

(* Buffer accounting with BRAM-bank rounding: every physically separate
   buffer rounds up to whole banks, which is why synthesised designs use
   slightly more memory than the model predicts. *)
let banked_buffer_bytes cfg (built : Builder.Build.t) =
  let bank b = Util.Int_math.round_up_to ~multiple:cfg.Sim_config.bram_bank_bytes b in
  let plan = built.Builder.Build.plan in
  let bpe = built.Builder.Build.board.Platform.Board.bytes_per_element in
  let total = ref 0 in
  Array.iteri
    (fun bi bp ->
      match (bp, built.Builder.Build.blocks.(bi)) with
      | Builder.Buffer_alloc.Plan_single p, _ ->
        total :=
          !total
          + bank p.Builder.Buffer_alloc.weights_tile_bytes
          + bank p.Builder.Buffer_alloc.fm_capacity_bytes
      | ( Builder.Buffer_alloc.Plan_pipelined p,
          Builder.Build.Built_pipelined { first; _ } ) ->
        Array.iteri
          (fun i tile ->
            (* Two physical copies per tile buffer (double buffering). *)
            total := !total + (2 * bank tile);
            if p.Builder.Buffer_alloc.weights_retained.(i) then
              total :=
                !total
                + bank
                    (Cnn.Layer.weight_elements
                       (Cnn.Model.layer built.Builder.Build.model (first + i))
                    * bpe))
          p.Builder.Buffer_alloc.fm_tile_bytes;
        if Array.exists not p.Builder.Buffer_alloc.weights_retained then
          total := !total + bank p.Builder.Buffer_alloc.weights_staging_bytes
      | Builder.Buffer_alloc.Plan_pipelined _, Builder.Build.Built_single _ ->
        assert false)
    plan.Builder.Buffer_alloc.block_plans;
  Array.iteri
    (fun i on ->
      if on then
        total := !total + (2 * bank plan.Builder.Buffer_alloc.inter_seg_bytes.(i)))
    plan.Builder.Buffer_alloc.inter_seg_on_chip;
  !total

let simulate_block cfg ~clock (built : Builder.Build.t) ~index ~start =
  let model = built.Builder.Build.model in
  let board = built.Builder.Build.board in
  (* Each block gets a fresh port view: blocks overlap on different
     inputs, so their queueing does not chain; cross-block contention is
     captured by the global port term in {!run}. *)
  let dma = Dma.create cfg board ~clock_hz:clock in
  let plan = built.Builder.Build.plan in
  let num_blocks = Array.length built.Builder.Build.blocks in
  let input_on_chip, output_on_chip =
    boundary_flags plan ~num_blocks ~index
  in
  match
    (built.Builder.Build.blocks.(index),
     plan.Builder.Buffer_alloc.block_plans.(index))
  with
  | ( Builder.Build.Built_single { engine; first; last },
      Builder.Buffer_alloc.Plan_single splan ) ->
    let r =
      Sim_single.simulate ~cfg ~dma ~table:built.Builder.Build.table ~board
        ~engine ~plan:splan ~first ~last ~input_on_chip ~output_on_chip ~start
    in
    {
      latency_cycles = r.Sim_single.busy_cycles;
      interval_cycles = r.Sim_single.busy_cycles;
      accesses = r.Sim_single.accesses;
      port_cycles = r.Sim_single.port_cycles;
    }
  | ( Builder.Build.Built_pipelined { engines; first; last; _ },
      Builder.Buffer_alloc.Plan_pipelined pplan ) ->
    let r =
      Sim_pipeline.simulate ~trace:None ~cfg ~dma ~model ~board ~engines
        ~plan:pplan ~first ~last ~input_on_chip ~output_on_chip ~start
        ~images:3
    in
    {
      latency_cycles = r.Sim_pipeline.latency_cycles;
      interval_cycles = r.Sim_pipeline.interval_cycles;
      accesses = r.Sim_pipeline.accesses;
      port_cycles = r.Sim_pipeline.port_cycles;
    }
  | Builder.Build.Built_single _, Builder.Buffer_alloc.Plan_pipelined _
  | Builder.Build.Built_pipelined _, Builder.Buffer_alloc.Plan_single _ ->
    assert false

let run ?(cfg = Sim_config.default) (built : Builder.Build.t) =
  let board = built.Builder.Build.board in
  let plan = built.Builder.Build.plan in
  let buffer_bytes = banked_buffer_bytes cfg built in
  let dsps_used = Array.fold_left (fun a e -> a + e.Engine.Ce.pes) 0
      built.Builder.Build.engines
  in
  let clock =
    Sim_config.achieved_clock_hz cfg board ~dsps_used ~bram_used:buffer_bytes
  in
  let num_blocks = Array.length built.Builder.Build.blocks in
  (* One input flows through the blocks in order; each block starts when
     the previous one is done with this input. *)
  let t = ref 0.0 in
  let sims =
    List.init num_blocks (fun index ->
        let s = simulate_block cfg ~clock built ~index ~start:!t in
        t := !t +. s.latency_cycles;
        s)
  in
  let latency_cycles = !t in
  let accesses = Mccm.Access.sum (List.map (fun s -> s.accesses) sims) in
  (* Initiation interval: the slowest stage when blocks overlap on
     different inputs, the whole schedule otherwise, and never faster
     than the shared port can feed one input's traffic. *)
  let ii_blocks =
    if built.Builder.Build.archi.Arch.Block.coarse_pipelined then
      List.fold_left (fun a s -> Float.max a s.interval_cycles) 0.0 sims
    else
      match sims with
      | [ only ] -> only.interval_cycles
      | _ -> latency_cycles
  in
  let ii_port = List.fold_left (fun a s -> a +. s.port_cycles) 0.0 sims in
  let ii = Float.max ii_blocks ii_port in
  let latency_s = latency_cycles /. clock in
  let throughput_ips = if ii > 0.0 then clock /. ii else 0.0 in
  {
    metrics =
      {
        Mccm.Metrics.latency_s;
        throughput_ips;
        buffer_bytes;
        accesses;
        feasible = plan.Builder.Buffer_alloc.feasible;
      };
    achieved_clock_hz = clock;
  }

let evaluate ?cfg model board archi =
  run ?cfg (Builder.Build.build model board archi)

let trace_block ?(cfg = Sim_config.default) (built : Builder.Build.t) ~block =
  let num_blocks = Array.length built.Builder.Build.blocks in
  if block < 0 || block >= num_blocks then
    invalid_arg "Simulate.trace_block: block index out of range";
  let plan = built.Builder.Build.plan in
  match
    (built.Builder.Build.blocks.(block),
     plan.Builder.Buffer_alloc.block_plans.(block))
  with
  | Builder.Build.Built_single _, _ -> None
  | ( Builder.Build.Built_pipelined { engines; first; last; _ },
      Builder.Buffer_alloc.Plan_pipelined pplan ) ->
    let board = built.Builder.Build.board in
    let buffer_bytes = banked_buffer_bytes cfg built in
    let dsps_used =
      Array.fold_left
        (fun a e -> a + e.Engine.Ce.pes)
        0 built.Builder.Build.engines
    in
    let clock =
      Sim_config.achieved_clock_hz cfg board ~dsps_used
        ~bram_used:buffer_bytes
    in
    let dma = Dma.create cfg board ~clock_hz:clock in
    let input_on_chip, output_on_chip =
      boundary_flags plan ~num_blocks ~index:block
    in
    let trace = Trace.create () in
    let _ =
      Sim_pipeline.simulate ~trace:(Some trace) ~cfg ~dma
        ~model:built.Builder.Build.model ~board ~engines ~plan:pplan ~first
        ~last ~input_on_chip ~output_on_chip ~start:0.0 ~images:1
    in
    Some trace
  | Builder.Build.Built_pipelined _, Builder.Buffer_alloc.Plan_single _ ->
    assert false
