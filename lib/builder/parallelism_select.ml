module P = Engine.Parallelism

(* ---------------------------------------------------- 7-smooth table *)

(* Every 7-smooth number <= [limit] (>= 1), ascending.  Each multiply is
   guarded ([v <= limit / k] before [v * k]), so the walk stops at
   [max_int] instead of wrapping: there are 75,711 7-smooth ints. *)
let smooth_upto limit =
  let acc = ref [] in
  let rec walk k next v =
    next v;
    if v <= limit / k then walk k next (v * k)
  in
  walk 2 (walk 3 (walk 5 (walk 7 (fun v -> acc := v :: !acc)))) 1;
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

(* [values] is every 7-smooth number <= [limit], ascending. *)
type table = { limit : int; values : int array }

(* One process-wide table, grown on demand and shared by every domain.
   A published table is immutable and only ever replaced by one with a
   larger [limit], so it is a prefix-extension of its predecessor and an
   index read from one stays valid in every later one. *)
let table = Atomic.make { limit = 1; values = [| 1 |] }

let rec covering n =
  let t = Atomic.get table in
  if t.limit >= n then t
  else begin
    let doubled = if t.limit > max_int / 2 then max_int else 2 * t.limit in
    let limit = max n doubled in
    let t' = { limit; values = smooth_upto limit } in
    if Atomic.compare_and_set table t t' then t' else covering n
  end

(* Number of entries <= [n] of an ascending array. *)
let count_le values n =
  let lo = ref 0 and hi = ref (Array.length values) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if values.(mid) <= n then lo := mid + 1 else hi := mid
  done;
  !lo

let smooth_degree n =
  if n < 1 then 1
  else
    let t = covering n in
    t.values.(count_le t.values n - 1)

(* Smallest 7-smooth number >= n, or [max_int] above the largest one.
   A power of two always lies in [n, 2n), so a table covering 2n
   (saturated at [max_int]) holds the answer when there is one. *)
let next_smooth_geq n =
  if n <= 1 then 1
  else
    let t = covering (if n > max_int / 2 then max_int else 2 * n) in
    let i = count_le t.values (n - 1) in
    if i < Array.length t.values then t.values.(i) else max_int

(* ------------------------------------------------------------ search *)

(* choose is on the DSE hot path (thousands of engines per sweep) and
   candidate evaluation is pure, so results are memoised by the engine's
   PE count and the layers' loop-extent signature.  Exploration runs in
   parallel domains; the memo is mutex-protected. *)
let cache :
    (int * bool * (int * int * int * int) list, P.t) Hashtbl.t =
  Hashtbl.create 64

let cache_lock = Mutex.create ()

(* The argmin over 7-smooth (d1, h, w) of
   [sum rest * ceil(e1/d1) * ceil(eh/h) * ceil(ew/w)], enumerated d1
   ascending, then h ascending, with w the largest smooth degree that
   fits [pes / d1 / h] and the layers' widths; ties go to the larger
   d1, then the larger h, from the seed (cost 1 1 1, 1, 1, 1).

   Terms with equal (e1, eh, ew) are merged by summing [rest]: the cost
   is linear in [rest], so the merge is exact in (wrapping) int
   arithmetic.  The h and w ceil quotients are precomputed once per
   candidate degree into flat arrays, and the d1 ones (pre-multiplied
   by [rest]) once per d1, so each (d1, h) pair is a division-free,
   allocation-free multiply-add over the groups. *)
let search ~pes terms =
  let groups =
    let rec merge = function
      | (e1, eh, ew, r) :: (e1', eh', ew', r') :: tl
        when e1 = e1' && eh = eh' && ew = ew' ->
        merge ((e1, eh, ew, r + r') :: tl)
      | t :: tl -> t :: merge tl
      | [] -> []
    in
    Array.of_list (merge (List.sort compare terms))
  in
  let g = Array.length groups in
  let max_of sel = Array.fold_left (fun a t -> max a (sel t)) 1 groups in
  let cap1 = next_smooth_geq (max_of (fun (d, _, _, _) -> d)) in
  let caph = next_smooth_geq (max_of (fun (_, h, _, _) -> h)) in
  let capw = next_smooth_geq (max_of (fun (_, _, w, _) -> w)) in
  (* Every cap is in the table (or it is [max_int] and the table is
     full), so the table read last covers all three. *)
  let s = (Atomic.get table).values in
  let n1 = count_le s (min pes cap1) in
  let nh = count_le s (min pes caph) in
  let nw = count_le s (min pes capw) in
  (* q.(j * g + k): group k's ceil quotient at candidate degree s.(j). *)
  let quotients n f =
    let q = Array.make (n * g) 0 in
    for j = 0 to n - 1 do
      for k = 0 to g - 1 do
        q.((j * g) + k) <- f groups.(k) s.(j)
      done
    done;
    q
  in
  let cd = Util.Int_math.ceil_div in
  let qh = quotients nh (fun (_, eh, _, _) h -> cd eh h) in
  let qw = quotients nw (fun (_, _, ew, _) w -> cd ew w) in
  (* q1.(k): group k's [rest * ceil(e1 / d1)] at the current d1. *)
  let q1 = Array.make g 0 in
  let set_d1 d1 =
    for k = 0 to g - 1 do
      let e1, _, _, rest = groups.(k) in
      q1.(k) <- rest * cd e1 d1
    done
  in
  let cost j k =
    let b = j * g and c = k * g in
    let acc = ref 0 in
    for x = 0 to g - 1 do
      acc := !acc + (q1.(x) * qh.(b + x) * qw.(c + x))
    done;
    !acc
  in
  set_d1 1;
  let bc = ref (cost 0 0) and bd = ref 1 and bh = ref 1 and bw = ref 1 in
  (* h's top index only moves down as d1 grows: [pes / d1] falls. *)
  let hi = ref (nh - 1) in
  for i = 0 to n1 - 1 do
    let d1 = s.(i) in
    let rem = pes / d1 in
    set_d1 d1;
    while s.(!hi) > rem do decr hi done;
    (* w's index only moves down as h grows: [rem / h] falls.  The test
       [s.(w) * h > rem] is [s.(w) > rem / h] without the division; the
       product never exceeds 2 * rem (the previous h kept
       [s.(w) * h' <= rem], and consecutive smooth numbers are at most
       a factor 2 apart), so an overflow shows up as a negative one. *)
    let w = ref (nw - 1) in
    for j = 0 to !hi do
      let h = s.(j) in
      while
        let p = s.(!w) * h in
        p > rem || p < 0
      do
        decr w
      done;
      let c = cost j !w in
      if c < !bc || (c = !bc && (d1 > !bd || (d1 = !bd && h > !bh))) then begin
        bc := c;
        bd := d1;
        bh := h;
        bw := s.(!w)
      end
    done
  done;
  (!bd, !bh, !bw)

(* The memoised search, keyed by the loop-extent signature.  [choose]
   and [choose_indices] build identical (pes, channel_mode, terms) keys
   from the layer list and the table respectively, so the two entry
   points share memoised results. *)
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
    let d1, h, w = search ~pes terms in
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
  let ef = Cnn.Table.filters_extent table i
  and ec = Cnn.Table.channels_extent table i
  and eh = Cnn.Table.height_extent table i
  and ew = Cnn.Table.width_extent table i in
  let k2 =
    Cnn.Table.kernel_h_extent table i * Cnn.Table.kernel_w_extent table i
  in
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
          let ef = Cnn.Table.filters_extent table i
          and ec = Cnn.Table.channels_extent table i
          and eh = Cnn.Table.height_extent table i
          and ew = Cnn.Table.width_extent table i in
          let k2 =
            Cnn.Table.kernel_h_extent table i
            * Cnn.Table.kernel_w_extent table i
          in
          if channel_mode then (ec, eh, ew, ef * k2)
          else (ef, eh, ew, ec * k2))
        indices
    in
    solve ~pes ~channel_mode ~terms
