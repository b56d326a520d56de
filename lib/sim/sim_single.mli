(** Event-driven simulation of a single-CE block.

    The block is replayed layer by layer at weight-group granularity:
    every group of filters is fetched as a DMA burst, double-buffered
    against compute; spilled feature maps stream through the same port.
    Off-chip byte counts replay the analytical model's Eq. 6 decisions
    exactly (accesses are deterministic — paper Section V-B); what the
    simulation adds is time: burst initiation latencies, per-layer setup,
    and queueing on the shared port. *)

type t = {
  finish_cycle : float;        (** completion time of the block's work *)
  busy_cycles : float;         (** duration from its start to finish *)
  accesses : Mccm.Access.t;    (** equals the analytical model's *)
  port_cycles : float;         (** pure transfer time of its bursts *)
}

val simulate :
  cfg:Sim_config.t ->
  dma:Dma.t ->
  table:Cnn.Table.t ->
  board:Platform.Board.t ->
  engine:Engine.Ce.t ->
  plan:Builder.Buffer_alloc.single_plan ->
  first:int ->
  last:int ->
  input_on_chip:bool ->
  output_on_chip:bool ->
  start:float ->
  t
(** [simulate] runs layers [first..last] of [table]'s model once,
    starting no earlier than [start]. *)
