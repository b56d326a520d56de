type t = {
  finish_cycle : float;
  busy_cycles : float;
  accesses : Mccm.Access.t;
  port_cycles : float;
}

(* How many weight bursts a layer streams through the port.  The DMA
   engine coalesces consecutive filter groups into long bursts (at least
   32 KiB), as real weight streamers do. *)
let min_burst_bytes = 32768

let weight_groups engine layer ~bpe =
  let tile =
    max min_burst_bytes (Builder.Tiling.weight_tile_elements engine layer * bpe)
  in
  let total = Cnn.Layer.weight_elements layer * bpe in
  max 1 (Util.Int_math.ceil_div total tile)

let simulate ~cfg ~dma ~table ~board ~engine ~plan ~first ~last ~input_on_chip
    ~output_on_chip ~start =
  let model = Cnn.Table.model table in
  (* Replay the analytical model's access decisions for exact byte
     parity; the event simulation below only adds time. *)
  let reference, layers =
    Mccm.Single_ce_model.trace ~table ~board ~engine ~plan ~first ~last
      ~input_on_chip ~output_on_chip ()
  in
  let port_cycles = ref 0.0 in
  let t = ref start in
  if cfg.Sim_config.perfect_overlap then
    (* Infinitely deep prefetch: every stream is double-buffered behind
       the previous layer, so a layer advances time by the larger of its
       compute and its transfer, never their interleaving. *)
    List.iter
      (fun (lr : Mccm.Single_ce_model.layer_result) ->
        let bytes = Mccm.Access.total lr.Mccm.Single_ce_model.accesses in
        let transfer = Dma.transfer_cycles dma ~bytes in
        ignore (Dma.request dma ~at:!t ~bytes);
        port_cycles := !port_cycles +. transfer;
        t :=
          !t
          +. float_of_int cfg.Sim_config.layer_setup_cycles
          +. Float.max
               (float_of_int lr.Mccm.Single_ce_model.compute_cycles)
               transfer)
      layers
  else
  List.iter
    (fun (lr : Mccm.Single_ce_model.layer_result) ->
      let layer = Cnn.Model.layer model lr.Mccm.Single_ce_model.layer_index in
      let setup_done =
        !t +. float_of_int cfg.Sim_config.layer_setup_cycles
      in
      let w_bytes =
        lr.Mccm.Single_ce_model.accesses.Mccm.Access.weights_bytes
      in
      let fm_bytes = lr.Mccm.Single_ce_model.accesses.Mccm.Access.fms_bytes in
      (* Weights stream in [groups] bursts, double-buffered: compute waits
         only for the first burst; the rest overlap. *)
      let groups =
        weight_groups engine layer
          ~bpe:board.Platform.Board.bytes_per_element
      in
      let per_group = Util.Int_math.ceil_div w_bytes groups in
      let first_burst_done =
        Dma.request dma ~at:setup_done ~bytes:(min per_group w_bytes)
      in
      port_cycles := !port_cycles +. Dma.transfer_cycles dma ~bytes:(min per_group w_bytes);
      let dma_done = ref first_burst_done in
      let remaining = ref (w_bytes - min per_group w_bytes) in
      while !remaining > 0 do
        let b = min per_group !remaining in
        dma_done := Dma.request dma ~at:!dma_done ~bytes:b;
        port_cycles := !port_cycles +. Dma.transfer_cycles dma ~bytes:b;
        remaining := !remaining - b
      done;
      (* Spilled FMs stream in buffer-sized bursts through the same port. *)
      let fm_burst =
        max 4096 (plan.Builder.Buffer_alloc.fm_capacity_bytes / 4)
      in
      let fm_remaining = ref fm_bytes in
      while !fm_remaining > 0 do
        let b = min fm_burst !fm_remaining in
        dma_done := Dma.request dma ~at:!dma_done ~bytes:b;
        port_cycles := !port_cycles +. Dma.transfer_cycles dma ~bytes:b;
        fm_remaining := !fm_remaining - b
      done;
      let compute_finish =
        Float.max first_burst_done setup_done
        +. float_of_int (Engine.Ce.layer_cycles engine layer)
      in
      t := Float.max compute_finish !dma_done)
    layers;
  {
    finish_cycle = !t;
    busy_cycles = !t -. start;
    accesses = reference.Mccm.Single_ce_model.accesses;
    port_cycles = !port_cycles;
  }
