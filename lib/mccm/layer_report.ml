type row = {
  layer_index : int;
  layer_name : string;
  kind : Cnn.Layer.kind;
  engine_id : int;
  pipelined : bool;
  cycles : int;
  utilization : float;
  accesses : Access.t;
}

let boundary_flags plan ~num_blocks ~index =
  let on_chip = plan.Builder.Buffer_alloc.inter_seg_on_chip in
  let input_on_chip = if index = 0 then false else on_chip.(index - 1) in
  let output_on_chip =
    if index = num_blocks - 1 then false else on_chip.(index)
  in
  (input_on_chip, output_on_chip)

let single_rows (built : Builder.Build.t) ~engine ~plan ~first ~last
    ~input_on_chip ~output_on_chip =
  let model = built.Builder.Build.model in
  let board = built.Builder.Build.board in
  let _, layers =
    Single_ce_model.trace ~table:built.Builder.Build.table ~board ~engine
      ~plan ~first ~last ~input_on_chip ~output_on_chip ()
  in
  List.map
    (fun (lr : Single_ce_model.layer_result) ->
      let layer = Cnn.Model.layer model lr.Single_ce_model.layer_index in
      {
        layer_index = lr.Single_ce_model.layer_index;
        layer_name = layer.Cnn.Layer.name;
        kind = layer.Cnn.Layer.kind;
        engine_id = engine.Engine.Ce.id;
        pipelined = false;
        cycles = lr.Single_ce_model.compute_cycles;
        utilization = Engine.Ce.utilization engine layer;
        accesses = lr.Single_ce_model.accesses;
      })
    layers

let pipelined_rows (built : Builder.Build.t) ~engines ~plan ~first ~last
    ~input_on_chip ~output_on_chip =
  let model = built.Builder.Build.model in
  let board = built.Builder.Build.board in
  let bpe = board.Platform.Board.bytes_per_element in
  let ces = Array.length engines in
  List.init (last - first + 1) (fun i ->
      let layer = Cnn.Model.layer model (first + i) in
      let engine = engines.(i mod ces) in
      let rows = plan.Builder.Buffer_alloc.tile_rows.(i) in
      let ws = plan.Builder.Buffer_alloc.width_split in
      let tiles = Builder.Tiling.num_row_tiles layer ~rows * ws in
      let tile_cyc =
        Util.Int_math.ceil_div (Engine.Ce.tile_cycles engine layer ~rows) ws
      in
      let cycles = tiles * tile_cyc in
      let w_bytes = Cnn.Layer.weight_elements layer * bpe in
      let weights =
        if plan.Builder.Buffer_alloc.weights_retained.(i) then w_bytes
        else w_bytes * tiles
      in
      let fms =
        (if first + i = first && not input_on_chip then
           Cnn.Layer.ifm_elements layer * bpe
         else 0)
        + (if first + i = last && not output_on_chip then
             Cnn.Layer.ofm_elements layer * bpe
           else 0)
      in
      {
        layer_index = first + i;
        layer_name = layer.Cnn.Layer.name;
        kind = layer.Cnn.Layer.kind;
        engine_id = engine.Engine.Ce.id;
        pipelined = true;
        cycles;
        utilization =
          (let ideal =
             Engine.Ce.ideal_cycles ~pes:engine.Engine.Ce.pes layer
           in
           float_of_int ideal /. float_of_int (max 1 cycles));
        accesses = Access.add (Access.weights weights) (Access.fms fms);
      })

let of_build (built : Builder.Build.t) =
  let plan = built.Builder.Build.plan in
  let num_blocks = Array.length built.Builder.Build.blocks in
  List.concat
    (List.init num_blocks (fun index ->
         let input_on_chip, output_on_chip =
           boundary_flags plan ~num_blocks ~index
         in
         match
           ( built.Builder.Build.blocks.(index),
             plan.Builder.Buffer_alloc.block_plans.(index) )
         with
         | ( Builder.Build.Built_single { engine; first; last },
             Builder.Buffer_alloc.Plan_single splan ) ->
           single_rows built ~engine ~plan:splan ~first ~last ~input_on_chip
             ~output_on_chip
         | ( Builder.Build.Built_pipelined { engines; first; last; _ },
             Builder.Buffer_alloc.Plan_pipelined pplan ) ->
           pipelined_rows built ~engines ~plan:pplan ~first ~last
             ~input_on_chip ~output_on_chip
         | Builder.Build.Built_single _, Builder.Buffer_alloc.Plan_pipelined _
         | Builder.Build.Built_pipelined _, Builder.Buffer_alloc.Plan_single _
           ->
           assert false))

let hotspots ?(top = 5) rows =
  let sorted = List.sort (fun a b -> compare b.cycles a.cycles) rows in
  List.filteri (fun i _ -> i < top) sorted

let pp ppf rows =
  Format.fprintf ppf "%-5s %-12s %-5s %-4s %-5s %12s %7s %12s@." "layer"
    "name" "kind" "CE" "pipe" "cycles" "util" "accesses";
  List.iter
    (fun r ->
      Format.fprintf ppf "L%-4d %-12s %-5s %-4d %-5s %12d %6.1f%% %12s@."
        (r.layer_index + 1) r.layer_name
        (Cnn.Layer.kind_to_string r.kind)
        r.engine_id
        (if r.pipelined then "yes" else "no")
        r.cycles
        (100.0 *. r.utilization)
        (Format.asprintf "%a" Util.Units.pp_bytes (Access.total r.accesses)))
    rows
