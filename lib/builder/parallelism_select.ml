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

(* choose is on the DSE hot path (thousands of engines per sweep) and
   candidate evaluation is pure, so results are memoised by the engine's
   PE count and the layers' loop-extent signature.  Exploration runs in
   parallel domains; the table is mutex-protected. *)
let cache :
    (int * bool * (int * int * int * int) list, P.t) Hashtbl.t =
  Hashtbl.create 64

let cache_lock = Mutex.create ()

(* The search proper, keyed by the loop-extent signature.  [choose] and
   [choose_indices] build identical (pes, channel_mode, terms) keys from
   the layer list and the table respectively, so the two entry points
   share memoised results. *)
let solve ~pes ~channel_mode ~terms =
    let key = (pes, channel_mode, terms) in
    let cached =
      Mutex.lock cache_lock;
      let r = Hashtbl.find_opt cache key in
      Mutex.unlock cache_lock;
      r
    in
    match cached with
    | Some p -> p
    | None ->
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
      let p =
        P.of_factors
          (if channel_mode then [ (P.Channels, d1); (P.Height, h); (P.Width, w) ]
           else [ (P.Filters, d1); (P.Height, h); (P.Width, w) ])
      in
      Mutex.lock cache_lock;
      (if not (Hashtbl.mem cache key) then Hashtbl.add cache key p);
      Mutex.unlock cache_lock;
      p

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

(* ------------------------------------------------------ cycle floors *)

(* Divisor candidates for minimising [d -> ceil_div e d] under a cap:
   the O(sqrt e) quotient breakpoints (smallest d per quotient) plus
   the cap itself. *)
let ceil_candidates e cap =
  let m = max 1 (min e cap) in
  let acc = ref [ m ] in
  let q = ref 1 in
  let continue = ref (e >= 1) in
  while !continue do
    let d = Util.Int_math.ceil_div e !q in
    if d <= m then acc := d :: !acc;
    if d <= 1 then continue := false
    else begin
      let q' = Util.Int_math.ceil_div e (d - 1) in
      if q' <= !q then continue := false else q := q'
    end
  done;
  List.sort_uniq compare !acc

(* Minimum Eq.-1 cycles of one layer over every (d1, h, w) with
   [d1 * h * w <= budget]: [rest] covers the never-unrolled extents.
   This really is the minimum, not just a bound: for a fixed ceil
   quotient the smallest divisor achieving it dominates (it leaves the
   most budget to the later dimensions), and for fixed (d1, h) the
   cost only falls as w grows, so the largest feasible w dominates. *)
let min_cycles_mode ~budget ~e1 ~eh ~ew ~rest =
  let cd = Util.Int_math.ceil_div in
  let best = ref max_int in
  List.iter
    (fun d1 ->
      let rem = budget / d1 in
      if rem >= 1 then
        List.iter
          (fun h ->
            let w = max 1 (min ew (rem / h)) in
            if rem / h >= 1 then begin
              let c = rest * cd e1 d1 * cd eh h * cd ew w in
              if c < !best then best := c
            end)
          (ceil_candidates eh rem))
    (ceil_candidates e1 budget);
  !best

(* Floors are probed repeatedly with per-layer budgets by the DSE bound
   precomputation; same mutex-protected memo idiom as the cache above.
   The key is the layer's content — the budget and the loop extents the
   floor reads — so repeated layers (ResNet blocks) and equal models
   resolved afresh share entries, and the table stays bounded by the
   distinct layer shapes ever probed. *)
let floor_cache : (int * int * int * int * int * int, int) Hashtbl.t =
  Hashtbl.create 256

let floor_lock = Mutex.create ()

let cycle_floor ~pes table i =
  if pes < 1 then invalid_arg "Parallelism_select.cycle_floor: pes < 1";
  let ef, ec, eh, ew, ekh, ekw = Cnn.Table.extents table i in
  let k2 = ekh * ekw in
  let key = (pes, ef, ec, eh, ew, k2) in
  let cached =
    Mutex.lock floor_lock;
    let r = Hashtbl.find_opt floor_cache key in
    Mutex.unlock floor_lock;
    r
  in
  match cached with
  | Some c -> c
  | None ->
    (* Engines unroll (Filters, Height, Width) or (Channels, Height,
       Width); the floor takes the min over both modes, so it holds
       whichever mode [choose]/[choose_indices] (or the naive-cube
       ablation) ends up in. *)
    let c =
      min
        (min_cycles_mode ~budget:pes ~e1:ef ~eh ~ew ~rest:(ec * k2))
        (min_cycles_mode ~budget:pes ~e1:ec ~eh ~ew ~rest:(ef * k2))
    in
    Mutex.lock floor_lock;
    (if not (Hashtbl.mem floor_cache key) then Hashtbl.add floor_cache key c);
    Mutex.unlock floor_lock;
    c

let utilization_ceiling ~pes table i =
  let floor = cycle_floor ~pes table i in
  if floor <= 0 then 1.0
  else
    let ideal = float_of_int (Cnn.Table.macs table i) /. float_of_int pes in
    Float.min 1.0 (ideal /. float_of_int floor)

let choose_indices ~pes table indices =
  if pes < 1 then invalid_arg "Parallelism_select.choose_indices: pes < 1";
  match indices with
  | [] -> P.scalar
  | _ ->
    let dw_macs, total_macs =
      List.fold_left
        (fun (dw, tot) i ->
          let m = Cnn.Table.macs table i in
          ((if Cnn.Table.is_depthwise table i then dw + m else dw), tot + m))
        (0, 0) indices
    in
    let channel_mode = 2 * dw_macs >= total_macs in
    let terms =
      List.map
        (fun i ->
          let ef, ec, eh, ew, ekh, ekw = Cnn.Table.extents table i in
          let k2 = ekh * ekw in
          if channel_mode then (ec, eh, ew, ef * k2)
          else (ef, eh, ew, ec * k2))
        indices
    in
    solve ~pes ~channel_mode ~terms
