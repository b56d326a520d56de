type round_result = {
  round_index : int;
  layer_indices : int list;
  compute_cycles : int;
  accesses : Access.t;
  compute_s : float;
  memory_s : float;
  time_s : float;
  buffer_bytes : int;
  utilization : float;
}

type result = {
  rounds : round_result list;
  latency_s : float;
  compute_s : float;
  memory_s : float;
  accesses : Access.t;
  busy_s_per_engine : float array;
  bottleneck_s : float;
  utilization : float;
}

type layer_info = {
  model_index : int;
  engine_slot : int;   (* position of its engine within the block *)
  tiles : int;
  tile_cyc : int;
  weight_bytes : int;
  retained : bool;
  macs : int;
  ideal_cycles : int;
  pes : int;
}

let layer_infos ~table ~board ~engines ~plan ~first ~last =
  let bpe = board.Platform.Board.bytes_per_element in
  let ces = Array.length engines in
  Array.init (last - first + 1) (fun i ->
      let idx = first + i in
      let slot = i mod ces in
      let engine = engines.(slot) in
      let rows = plan.Builder.Buffer_alloc.tile_rows.(i) in
      let ws = plan.Builder.Buffer_alloc.width_split in
      {
        model_index = idx;
        engine_slot = slot;
        tiles = Builder.Tiling.num_row_tiles_at table idx ~rows * ws;
        tile_cyc =
          Util.Int_math.ceil_div
            (Engine.Ce.tile_cycles_at engine table idx ~rows)
            ws;
        weight_bytes = Cnn.Table.weight_elements table idx * bpe;
        retained = plan.Builder.Buffer_alloc.weights_retained.(i);
        macs = Cnn.Table.macs table idx;
        ideal_cycles =
          Engine.Ce.ideal_cycles_at ~pes:engine.Engine.Ce.pes table idx;
        pes = engine.Engine.Ce.pes;
      })

(* Eq. 2 evaluated exactly on the continuous tile schedule: tile [t] of a
   layer starts when its covering producer tile is done and its engine is
   free; the block's latency is the completion of the last tile of the
   last layer.  For a single round of uniform tiles this reduces to
   (tiles + CEs - 1) x tile-time, the classic skewed-pipeline latency of
   Fig. 4b. *)
let latency_cycles infos ~ces =
  let free = Array.make ces 0 in
  let prev = ref [||] in
  Array.iteri
    (fun li l ->
      let completion = Array.make l.tiles 0 in
      for t = 0 to l.tiles - 1 do
        let input_ready =
          if li = 0 then 0
          else
            let p = !prev in
            p.(Builder.Tiling.producer_tile
                 ~producer_tiles:(Array.length p) ~consumer_tiles:l.tiles t)
        in
        let start = max input_ready free.(l.engine_slot) in
        completion.(t) <- start + l.tile_cyc;
        free.(l.engine_slot) <- completion.(t)
      done;
      prev := completion)
    infos;
  Array.fold_left max 0 free

let evaluate ~table ~board ~engines ~plan ~first ~last ~input_on_chip
    ~output_on_chip () =
  let bpe = board.Platform.Board.bytes_per_element in
  let ces = Array.length engines in
  let n = last - first + 1 in
  let num_rounds = Util.Int_math.ceil_div n ces in
  let infos = layer_infos ~table ~board ~engines ~plan ~first ~last in
  (* Eq. 3: per-engine busy time per input. *)
  let busy_cycles = Array.make ces 0 in
  Array.iter
    (fun l ->
      busy_cycles.(l.engine_slot) <-
        busy_cycles.(l.engine_slot) + (l.tiles * l.tile_cyc))
    infos;
  let boundary_fms ~round =
    let input =
      if round = 0 && not input_on_chip then
        Cnn.Table.ifm_elements table first * bpe
      else 0
    in
    let output =
      if round = num_rounds - 1 && not output_on_chip then
        Cnn.Table.ofm_elements table last * bpe
      else 0
    in
    input + output
  in
  let rounds =
    List.init num_rounds (fun r ->
        let lo = r * ces in
        let hi = min (n - 1) (lo + ces - 1) in
        let round_infos = Array.sub infos lo (hi - lo + 1) in
        (* The round's wall share is paced by its critical engine. *)
        let compute_cycles =
          Array.fold_left
            (fun acc l -> max acc (l.tiles * l.tile_cyc))
            0 round_infos
        in
        (* Eq. 7: streamed weights are re-fetched at every tile stage. *)
        let weight_bytes =
          Array.fold_left
            (fun acc l ->
              acc + (l.weight_bytes * if l.retained then 1 else l.tiles))
            0 round_infos
        in
        let accesses =
          Access.add
            (Access.weights weight_bytes)
            (Access.fms (boundary_fms ~round:r))
        in
        let buffer_bytes =
          let acc = ref 0 in
          Array.iteri
            (fun k l ->
              let off = lo + k in
              acc := !acc + (2 * plan.Builder.Buffer_alloc.fm_tile_bytes.(off));
              if l.retained then acc := !acc + l.weight_bytes)
            round_infos;
          !acc
        in
        let utilization =
          let weighted = ref 0.0 and total = ref 0.0 in
          Array.iter
            (fun l ->
              let actual = l.tiles * l.tile_cyc in
              weighted :=
                !weighted
                +. (float_of_int l.macs
                   *. float_of_int l.ideal_cycles
                   /. float_of_int actual);
              total := !total +. float_of_int l.macs)
            round_infos;
          if !total > 0.0 then !weighted /. !total else 1.0
        in
        let compute_s = Platform.Board.cycles_to_seconds board compute_cycles in
        let memory_s =
          Platform.Board.bytes_to_seconds board (Access.total accesses)
        in
        let layer_indices =
          Array.to_list (Array.map (fun l -> l.model_index) round_infos)
        in
        {
          round_index = r;
          layer_indices;
          compute_cycles;
          accesses;
          compute_s;
          memory_s;
          time_s = Float.max compute_s memory_s;
          buffer_bytes;
          utilization;
        })
  in
  let accesses =
    Access.sum (List.map (fun (r : round_result) -> r.accesses) rounds)
  in
  let compute_latency_s =
    Platform.Board.cycles_to_seconds board (latency_cycles infos ~ces)
  in
  let memory_s = Platform.Board.bytes_to_seconds board (Access.total accesses) in
  let latency_s = Float.max compute_latency_s memory_s in
  let compute_s = compute_latency_s in
  let busy_s_per_engine =
    Array.map (fun c -> Platform.Board.cycles_to_seconds board c) busy_cycles
  in
  let bottleneck_s = Array.fold_left Float.max 0.0 busy_s_per_engine in
  let utilization =
    let weighted = ref 0.0 and total = ref 0.0 in
    Array.iter
      (fun l ->
        let actual = l.tiles * l.tile_cyc in
        weighted :=
          !weighted
          +. (float_of_int l.macs
             *. float_of_int l.ideal_cycles
             /. float_of_int actual);
        total := !total +. float_of_int l.macs)
      infos;
    if !total > 0.0 then !weighted /. !total else 1.0
  in
  {
    rounds;
    latency_s;
    compute_s;
    memory_s;
    accesses;
    busy_s_per_engine;
    bottleneck_s;
    utilization;
  }
