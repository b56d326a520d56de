(* The slow reference for Builder.Parallelism_select's search: the
   original list-based enumeration, kept without its memo.  It
   regenerates a sorted 7-smooth list for every (d1, h) pair and folds
   ceil divisions over every layer, so it is only fit for tests.  Its
   smooth-number helpers do not terminate near [max_int]; keep their
   arguments small. *)

module P = Engine.Parallelism

(* Ascending 7-smooth numbers up to [limit]. *)
let smooth_upto limit =
  if limit < 1 then []
  else begin
    let acc = ref [] in
    let rec loop7 v = if v <= limit then (acc := v :: !acc; loop7 (v * 7)) in
    let rec loop5 v = if v <= limit then (loop7 v; loop5 (v * 5)) in
    let rec loop3 v = if v <= limit then (loop5 v; loop3 (v * 3)) in
    let rec loop2 v = if v <= limit then (loop3 v; loop2 (v * 2)) in
    loop2 1;
    List.sort_uniq compare !acc
  end

let smooth_degree n =
  if n < 1 then 1 else List.fold_left max 1 (smooth_upto n)

(* Smallest 7-smooth number >= n.  A power of two always lies in
   [n, 2n), so searching up to 2n suffices. *)
let next_smooth_geq n =
  if n <= 1 then 1
  else List.find (fun s -> s >= n) (smooth_upto (2 * n))

let solve ~pes ~channel_mode ~terms =
  let cd = Util.Int_math.ceil_div in
  let max_of sel = List.fold_left (fun a t -> max a (sel t)) 1 terms in
  let max1 = max_of (fun (d, _, _, _) -> d) in
  let maxh = max_of (fun (_, h, _, _) -> h) in
  let maxw = max_of (fun (_, _, w, _) -> w) in
  let cost d1 h w =
    List.fold_left
      (fun acc (e1, eh, ew, rest) ->
        acc + (rest * cd e1 d1 * cd eh h * cd ew w))
      0 terms
  in
  let best = ref (cost 1 1 1, 1, 1, 1) in
  let consider d1 h w =
    let c = cost d1 h w in
    let bc, bd, bh, _ = !best in
    if c < bc || (c = bc && (d1 > bd || (d1 = bd && h > bh))) then
      best := (c, d1, h, w)
  in
  List.iter
    (fun d1 ->
      let rem = pes / d1 in
      List.iter
        (fun h ->
          let w = smooth_degree (min (rem / h) (next_smooth_geq maxw)) in
          consider d1 h w)
        (smooth_upto (min rem (next_smooth_geq maxh))))
    (smooth_upto (min pes (next_smooth_geq max1)));
  let _, d1, h, w = !best in
  P.of_factors
    (if channel_mode then [ (P.Channels, d1); (P.Height, h); (P.Width, w) ]
     else [ (P.Filters, d1); (P.Height, h); (P.Width, w) ])

let choose ~pes ~layers =
  if pes < 1 then invalid_arg "Parallelism_select.choose: pes < 1";
  match layers with
  | [] -> P.scalar
  | _ ->
    let dw_macs, total_macs =
      List.fold_left
        (fun (dw, tot) l ->
          let m = Cnn.Layer.macs l in
          ((if l.Cnn.Layer.kind = Cnn.Layer.Depthwise then dw + m else dw),
           tot + m))
        (0, 0) layers
    in
    let channel_mode = 2 * dw_macs >= total_macs in
    (* Per layer: (first-dim extent, height, width, product of the
       un-unrolled extents). *)
    let terms =
      List.map
        (fun l ->
          let e d = Cnn.Layer.loop_extent l d in
          let k2 = e `Kernel_h * e `Kernel_w in
          let h = e `Height and w = e `Width in
          if channel_mode then (e `Channels, h, w, e `Filters * k2)
          else (e `Filters, h, w, e `Channels * k2))
        layers
    in
    solve ~pes ~channel_mode ~terms
