(** Analytical model of the pipelined-CEs building block
    (paper Section IV-A, Eq. 2, 3, 5 and 7).

    The block's engines process consecutive layers concurrently at tile
    granularity.  When the layer range exceeds the engine count the block
    processes [CEs] layers at a time, round-robin (paper Section III-B);
    successive rounds overlap tile-wise through the double buffers, so
    feature maps never leave the chip (Section IV-A3).  Latency follows
    Eq. 2 evaluated on the continuous tile schedule: one tile time per
    layer to fill the chain, then the busiest engine paces the rest — for
    a single round of uniform tiles this reduces to the classic
    [(tiles + CEs - 1) x tile-time] skewed pipeline of Fig. 4b.
    Throughput is bounded by the busiest engine's total tile time per
    input (Eq. 3).  Weights not retained on-chip are re-streamed at every
    tile stage their layer is active in (Eq. 7). *)

type round_result = {
  round_index : int;
  layer_indices : int list;    (** model layers of this round, in order *)
  compute_cycles : int;        (** Eq. 2 over the round's stages *)
  accesses : Access.t;
  compute_s : float;
  memory_s : float;
  time_s : float;              (** max of compute and memory *)
  buffer_bytes : int;          (** tiles + retained weights of the round *)
  utilization : float;
}

type result = {
  rounds : round_result list;
  latency_s : float;           (** sum of round times *)
  compute_s : float;
  memory_s : float;
  accesses : Access.t;
  busy_s_per_engine : float array;
      (** per engine: total tile time per input (Eq. 3's inner sum) *)
  bottleneck_s : float;        (** max over engines — 1/throughput bound *)
  utilization : float;         (** MAC-weighted across all layers *)
}

val evaluate :
  table:Cnn.Table.t ->
  board:Platform.Board.t ->
  engines:Engine.Ce.t array ->
  plan:Builder.Buffer_alloc.pipelined_plan ->
  first:int ->
  last:int ->
  input_on_chip:bool ->
  output_on_chip:bool ->
  unit ->
  result
(** [evaluate] models layers [first..last] of [table]'s model on
    [engines] under [plan], reading every per-layer quantity from
    [table].  Boundary-FM conventions match
    {!Single_ce_model.evaluate}. *)
