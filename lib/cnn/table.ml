(* Flat, precomputed per-layer scalar table.

   Every per-layer quantity the cost models read — MACs, weight/FM
   footprints, shapes, loop extents, streaming bands — is derived from
   [Layer.t] accessors that recompute [Shape.conv_output] (an
   allocation) on every call.  One O(n) pass at table-construction time
   hoists them all into unboxed int arrays, and prefix sums / a sparse
   range-max table turn the segment aggregates the models fold over
   ([sum MACs], [sum weights], [max FMs]) into O(1) array arithmetic.

   All stored quantities are integers computed by exactly the formulas
   in [Layer]/[Model], so any aggregate read through the table equals
   the list fold over those formulas bit for bit. *)

type t = {
  model : Model.t;
  n : int;
  macs : int array;
  weights : int array;          (* weight elements *)
  ifm : int array;              (* IFM elements *)
  ofm : int array;              (* OFM elements *)
  extra : int array;            (* extra resident elements *)
  fms : int array;              (* ifm + ofm + extra *)
  in_h : int array;
  in_w : int array;
  in_c : int array;
  out_h : int array;
  out_w : int array;
  out_c : int array;
  kernel : int array;
  stride : int array;
  padding : int array;
  is_dw : bool array;           (* kind = Depthwise *)
  (* The six Eq.-1 loop extents, in [Parallelism.all_dims] order. *)
  ext_f : int array;
  ext_c : int array;
  ext_h : int array;
  ext_w : int array;
  ext_kh : int array;
  ext_kw : int array;
  band1 : int array;
      (* IFM elements of the one-OFM-row streaming band:
         [Tiling.ifm_rows_for_ofm_rows ~rows:1 * in_w * in_c] *)
  macs_pfx : int array;         (* length n+1; macs_pfx.(i) = sum macs.(0..i-1) *)
  weights_pfx : int array;      (* likewise for weight elements *)
  fms_sparse : int array array;
      (* fms_sparse.(k).(i) = max fms.(i .. i + 2^k - 1) *)
  macs_sparse : int array array; (* likewise over macs *)
  log2 : int array;             (* log2.(l) = floor (log2 l), length n+1 *)
}

let of_model model =
  let n = Model.num_layers model in
  let geti f = Array.init n (fun i -> f (Model.layer model i)) in
  let macs = geti Layer.macs in
  let weights = geti Layer.weight_elements in
  let ifm = geti Layer.ifm_elements in
  let ofm = geti Layer.ofm_elements in
  let extra = geti (fun l -> l.Layer.extra_resident_elements) in
  let fms = geti Layer.fms_elements in
  let in_shape f = geti (fun l -> f l.Layer.in_shape) in
  let in_h = in_shape (fun s -> s.Shape.height) in
  let in_w = in_shape (fun s -> s.Shape.width) in
  let in_c = in_shape (fun s -> s.Shape.channels) in
  let out_shape f = geti (fun l -> f (Layer.out_shape l)) in
  let out_h = out_shape (fun s -> s.Shape.height) in
  let out_w = out_shape (fun s -> s.Shape.width) in
  let out_c = out_shape (fun s -> s.Shape.channels) in
  let kernel = geti (fun l -> l.Layer.kernel) in
  let stride = geti (fun l -> l.Layer.stride) in
  let padding = geti (fun l -> l.Layer.padding) in
  let is_dw = Array.init n (fun i ->
      (Model.layer model i).Layer.kind = Layer.Depthwise)
  in
  let ext d = geti (fun l -> Layer.loop_extent l d) in
  let ext_f = ext `Filters in
  let ext_c = ext `Channels in
  let ext_h = ext `Height in
  let ext_w = ext `Width in
  let ext_kh = ext `Kernel_h in
  let ext_kw = ext `Kernel_w in
  (* One-OFM-row IFM band (the [rows = 1] case of
     [Builder.Tiling.ifm_rows_for_ofm_rows], inlined — [Cnn] sits below
     [Builder]): [min kernel (in_h + 2 * padding)] rows of IFM. *)
  let band1 =
    Array.init n (fun i ->
        min kernel.(i) (in_h.(i) + (2 * padding.(i))) * in_w.(i) * in_c.(i))
  in
  let prefix a =
    let p = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      p.(i + 1) <- p.(i) + a.(i)
    done;
    p
  in
  let log2 = Array.make (n + 1) 0 in
  for l = 2 to n do
    log2.(l) <- log2.(l / 2) + 1
  done;
  let levels = log2.(n) + 1 in
  let sparse_max a =
    let s = Array.make levels [||] in
    s.(0) <- Array.copy a;
    for k = 1 to levels - 1 do
      let half = 1 lsl (k - 1) in
      let width = n - (1 lsl k) + 1 in
      let prev = s.(k - 1) in
      s.(k) <- Array.init (max 0 width) (fun i -> max prev.(i) prev.(i + half))
    done;
    s
  in
  let fms_sparse = sparse_max fms in
  let macs_sparse = sparse_max macs in
  {
    model;
    n; macs; weights; ifm; ofm; extra; fms;
    in_h; in_w; in_c; out_h; out_w; out_c;
    kernel; stride; padding; is_dw;
    ext_f; ext_c; ext_h; ext_w; ext_kh; ext_kw;
    band1;
    macs_pfx = prefix macs;
    weights_pfx = prefix weights;
    fms_sparse; macs_sparse; log2;
  }

let model t = t.model
let num_layers t = t.n

let check t m =
  if not (t.model == m) then
    invalid_arg "Cnn.Table: table built for a different model"

let check_range t ~first ~last =
  if first < 0 || last >= t.n || first > last then
    invalid_arg
      (Printf.sprintf "Cnn.Table: invalid layer range [%d, %d] (%d layers)"
         first last t.n)

(* Per-layer accessors (unchecked: the models already validate ranges). *)
let macs t i = t.macs.(i)
let weight_elements t i = t.weights.(i)
let ifm_elements t i = t.ifm.(i)
let ofm_elements t i = t.ofm.(i)
let extra_resident_elements t i = t.extra.(i)
let fms_elements t i = t.fms.(i)
let in_height t i = t.in_h.(i)
let in_width t i = t.in_w.(i)
let in_channels t i = t.in_c.(i)
let out_height t i = t.out_h.(i)
let out_width t i = t.out_w.(i)
let out_channels t i = t.out_c.(i)
let kernel t i = t.kernel.(i)
let stride t i = t.stride.(i)
let padding t i = t.padding.(i)
let is_depthwise t i = t.is_dw.(i)
let band1_elements t i = t.band1.(i)

let filters_extent t i = t.ext_f.(i)
let channels_extent t i = t.ext_c.(i)
let height_extent t i = t.ext_h.(i)
let width_extent t i = t.ext_w.(i)
let kernel_h_extent t i = t.ext_kh.(i)
let kernel_w_extent t i = t.ext_kw.(i)

(* Segment aggregates: O(1) from the precomputed structures.  Integer
   sums are order-independent, so they equal the list folds exactly. *)

let total_macs t = t.macs_pfx.(t.n)
let total_weights t = t.weights_pfx.(t.n)

let macs_range t ~first ~last =
  check_range t ~first ~last;
  t.macs_pfx.(last + 1) - t.macs_pfx.(first)

let weights_range t ~first ~last =
  check_range t ~first ~last;
  t.weights_pfx.(last + 1) - t.weights_pfx.(first)

let max_fms_range t ~first ~last =
  check_range t ~first ~last;
  let len = last - first + 1 in
  let k = t.log2.(len) in
  let row = t.fms_sparse.(k) in
  max row.(first) row.(last + 1 - (1 lsl k))

let max_macs_range t ~first ~last =
  check_range t ~first ~last;
  let len = last - first + 1 in
  let k = t.log2.(len) in
  let row = t.macs_sparse.(k) in
  max row.(first) row.(last + 1 - (1 lsl k))
