let cd = Util.Int_math.ceil_div

let weight_tile_elements ce layer =
  let total = Cnn.Layer.weight_elements layer in
  let filters = Cnn.Layer.loop_extent layer `Filters in
  let par_f =
    Engine.Parallelism.factor ce.Engine.Ce.parallelism Engine.Parallelism.Filters
  in
  let groups = cd filters (max 1 par_f) in
  cd total groups

let weight_tile_elements_at ce table i =
  let filters =
    if Cnn.Table.is_depthwise table i then 1 else Cnn.Table.out_channels table i
  in
  let par_f =
    Engine.Parallelism.factor ce.Engine.Ce.parallelism Engine.Parallelism.Filters
  in
  cd (Cnn.Table.weight_elements table i) (cd filters (max 1 par_f))

let tile_rows layer ~tiles =
  if tiles < 1 then invalid_arg "Tiling.tile_rows: tiles < 1";
  cd (Cnn.Layer.out_shape layer).Cnn.Shape.height tiles

let num_row_tiles layer ~rows =
  if rows < 1 then invalid_arg "Tiling.num_row_tiles: rows < 1";
  cd (Cnn.Layer.out_shape layer).Cnn.Shape.height rows

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

let min_fm_elements_at table i =
  Cnn.Table.band1_elements table i
  + (Cnn.Table.out_width table i * Cnn.Table.out_channels table i)

let fm_tile_bytes ~bpe ~width_split layer ~rows =
  let o = Cnn.Layer.out_shape layer in
  cd (rows * o.Cnn.Shape.width * o.Cnn.Shape.channels * bpe) width_split

let fm_tile_bytes_at ~bpe ~width_split table i ~rows =
  cd
    (rows * Cnn.Table.out_width table i * Cnn.Table.out_channels table i * bpe)
    width_split
