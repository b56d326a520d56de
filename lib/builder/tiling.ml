let cd = Util.Int_math.ceil_div

let weight_tile_elements ce layer =
  let total = Cnn.Layer.weight_elements layer in
  let filters = Cnn.Layer.loop_extent layer `Filters in
  let par_f =
    Engine.Parallelism.factor ce.Engine.Ce.parallelism Engine.Parallelism.Filters
  in
  let groups = cd filters (max 1 par_f) in
  cd total groups

let weight_tile_elements_at ce tbl i =
  let filters =
    if Cnn.Table.is_depthwise tbl i then 1 else Cnn.Table.out_channels tbl i
  in
  let par_f =
    Engine.Parallelism.factor ce.Engine.Ce.parallelism
      Engine.Parallelism.Filters
  in
  cd (Cnn.Table.weight_elements tbl i) (cd filters (max 1 par_f))

let tile_rows layer ~tiles =
  if tiles < 1 then invalid_arg "Tiling.tile_rows: tiles < 1";
  cd (Cnn.Layer.out_shape layer).Cnn.Shape.height tiles

let num_row_tiles layer ~rows =
  if rows < 1 then invalid_arg "Tiling.num_row_tiles: rows < 1";
  cd (Cnn.Layer.out_shape layer).Cnn.Shape.height rows

let num_row_tiles_at tbl i ~rows =
  if rows < 1 then invalid_arg "Tiling.num_row_tiles_at: rows < 1";
  cd (Cnn.Table.out_height tbl i) rows

let ifm_rows_for_ofm_rows layer ~rows =
  if rows < 1 then invalid_arg "Tiling.ifm_rows_for_ofm_rows: rows < 1";
  let padded_h =
    layer.Cnn.Layer.in_shape.Cnn.Shape.height + (2 * layer.Cnn.Layer.padding)
  in
  min (layer.Cnn.Layer.kernel + ((rows - 1) * layer.Cnn.Layer.stride)) padded_h

let producer_tile ~producer_tiles ~consumer_tiles t =
  if producer_tiles < 1 || consumer_tiles < 1 then
    invalid_arg "Tiling.producer_tile: non-positive tile count";
  if t < 0 then invalid_arg "Tiling.producer_tile: negative tile index";
  min (producer_tiles - 1) (cd ((t + 1) * producer_tiles) consumer_tiles - 1)

let min_fm_elements layer =
  let i = layer.Cnn.Layer.in_shape in
  let o = Cnn.Layer.out_shape layer in
  (ifm_rows_for_ofm_rows layer ~rows:1 * i.Cnn.Shape.width * i.Cnn.Shape.channels)
  + (o.Cnn.Shape.width * o.Cnn.Shape.channels)

let min_fm_elements_at tbl i =
  Cnn.Table.band1_elements tbl i
  + (Cnn.Table.out_width tbl i * Cnn.Table.out_channels tbl i)
