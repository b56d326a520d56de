type t = {
  id : int;
  pes : int;
  parallelism : Parallelism.t;
  dataflow : Dataflow.t;
}

let v ~id ~pes ~parallelism ~dataflow =
  if pes <= 0 then invalid_arg "Engine.v: non-positive PE count";
  if Parallelism.degree parallelism > pes then
    invalid_arg "Engine.v: parallelism degree exceeds PE budget";
  { id; pes; parallelism; dataflow }

(* Eq. 1: one ceil-division term per convolution loop dimension. *)
let cycles_with_extents t extents =
  List.fold_left
    (fun acc (d, extent) ->
      acc * Util.Int_math.ceil_div extent (Parallelism.factor t.parallelism d))
    1 extents

let dim_extents layer =
  List.map
    (fun d -> (d, Parallelism.layer_dim_extent layer d))
    Parallelism.all_dims

let layer_cycles t layer = cycles_with_extents t (dim_extents layer)

let tile_cycles t layer ~rows =
  let rows = max 1 rows in
  let extents =
    List.map
      (fun (d, extent) ->
        match d with
        | Parallelism.Height -> (d, min rows extent)
        | _ -> (d, extent))
      (dim_extents layer)
  in
  cycles_with_extents t extents

let ideal_cycles ~pes layer =
  Util.Int_math.ceil_div (Cnn.Layer.macs layer) pes

(* Table-indexed versions: the same Eq.-1 products computed from
   precomputed loop extents instead of per-call [Layer.out_shape]
   recomputation.  Integer products agree with [cycles_with_extents]
   exactly (same factors, and machine-int multiplication is
   order-independent), so results are bit-identical. *)

let cd = Util.Int_math.ceil_div

let layer_cycles_at t tbl i =
  let p = t.parallelism in
  let f d = Parallelism.factor p d in
  let ef, ec, eh, ew, ekh, ekw = Cnn.Table.extents tbl i in
  cd ef (f Parallelism.Filters)
  * cd ec (f Parallelism.Channels)
  * cd eh (f Parallelism.Height)
  * cd ew (f Parallelism.Width)
  * cd ekh (f Parallelism.Kernel_h)
  * cd ekw (f Parallelism.Kernel_w)

let tile_cycles_at t tbl i ~rows =
  let rows = max 1 rows in
  let p = t.parallelism in
  let f d = Parallelism.factor p d in
  let ef, ec, eh, ew, ekh, ekw = Cnn.Table.extents tbl i in
  cd ef (f Parallelism.Filters)
  * cd ec (f Parallelism.Channels)
  * cd (min rows eh) (f Parallelism.Height)
  * cd ew (f Parallelism.Width)
  * cd ekh (f Parallelism.Kernel_h)
  * cd ekw (f Parallelism.Kernel_w)

let ideal_cycles_at ~pes tbl i = cd (Cnn.Table.macs tbl i) pes

let utilization t layer =
  let actual = layer_cycles t layer in
  let ideal = ideal_cycles ~pes:t.pes layer in
  float_of_int ideal /. float_of_int actual

let average_utilization t layers =
  if layers = [] then invalid_arg "Engine.average_utilization: empty list";
  let weighted, total =
    List.fold_left
      (fun (w, tot) l ->
        let m = float_of_int (Cnn.Layer.macs l) in
        (w +. (m *. utilization t l), tot +. m))
      (0.0, 0.0) layers
  in
  weighted /. total

(* Mirrors [average_utilization]'s left-to-right float accumulation
   exactly (same additions in the same order on the same values), so
   the result is bit-identical to the list fold. *)
let average_utilization_at t tbl ~first ~last =
  if first > last then invalid_arg "Engine.average_utilization_at: empty range";
  let weighted = ref 0.0 and total = ref 0.0 in
  for i = first to last do
    let m = float_of_int (Cnn.Table.macs tbl i) in
    let u =
      float_of_int (ideal_cycles_at ~pes:t.pes tbl i)
      /. float_of_int (layer_cycles_at t tbl i)
    in
    weighted := !weighted +. (m *. u);
    total := !total +. m
  done;
  !weighted /. !total

let pp ppf t =
  Format.fprintf ppf "CE%d[%d PEs, %a, %a]" t.id t.pes Parallelism.pp
    t.parallelism Dataflow.pp t.dataflow
