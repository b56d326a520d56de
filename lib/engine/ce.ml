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
   order-independent), so results are bit-identical.  They read each
   extent and factor directly, so a call allocates nothing. *)

let cd = Util.Int_math.ceil_div

(* Eq. 1 with the height extent given, shared by whole layers and
   row tiles. *)
let cycles_at t tbl i ~height =
  let p = t.parallelism in
  let module P = Parallelism in
  cd (Cnn.Table.filters_extent tbl i) (P.factor p P.Filters)
  * cd (Cnn.Table.channels_extent tbl i) (P.factor p P.Channels)
  * cd height (P.factor p P.Height)
  * cd (Cnn.Table.width_extent tbl i) (P.factor p P.Width)
  * cd (Cnn.Table.kernel_h_extent tbl i) (P.factor p P.Kernel_h)
  * cd (Cnn.Table.kernel_w_extent tbl i) (P.factor p P.Kernel_w)

let layer_cycles_at t tbl i =
  cycles_at t tbl i ~height:(Cnn.Table.height_extent tbl i)

let tile_cycles_at t tbl i ~rows =
  cycles_at t tbl i ~height:(min (max 1 rows) (Cnn.Table.height_extent tbl i))

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

(* Everything but the display id: the fields every cost quantity
   reads, which makes it the engine part of a memo key. *)
type signature = {
  sig_pes : int;
  sig_par : Parallelism.t;
  sig_df : Dataflow.t;
}

let signature t =
  { sig_pes = t.pes; sig_par = t.parallelism; sig_df = t.dataflow }

let fingerprint h s =
  let module P = Parallelism in
  let module Fp = Util.Fingerprint in
  let p = s.sig_par in
  let h = Fp.int h s.sig_pes in
  let h = Fp.int h (P.factor p P.Filters) in
  let h = Fp.int h (P.factor p P.Channels) in
  let h = Fp.int h (P.factor p P.Height) in
  let h = Fp.int h (P.factor p P.Width) in
  let h = Fp.int h (P.factor p P.Kernel_h) in
  let h = Fp.int h (P.factor p P.Kernel_w) in
  Fp.int h
    (match s.sig_df with
    | Dataflow.Weight_stationary -> 0
    | Dataflow.Output_stationary -> 1
    | Dataflow.Input_stationary -> 2)

let pp ppf t =
  Format.fprintf ppf "CE%d[%d PEs, %a, %a]" t.id t.pes Parallelism.pp
    t.parallelism Dataflow.pp t.dataflow
