(* Tight admissible lower bounds on custom-design segment times, built
   from the Cnn.Table prefix aggregates.

   Everything here bounds the exact model from below (cycles/seconds)
   or above (throughput).  The floors rest on four facts about any
   design the builder produces from a custom spec under the default
   (proportional) PE allocation:

   - per-layer quantization floor: an engine with at most [p] PEs needs
     at least [Parallelism_select.cycle_floor ~pes:p] cycles on a layer
     — the minimum of Eq. 1 over every 3-D parallelism of degree <= p;
   - PE-share ceiling: [Pe_allocation.distribute] gives an engine with
     workload [m] out of [total] at most
     [share_upper_bound ~budget:dsps ~engines:ces ~workload:m ~total]
     PEs, and never more than [dsps - ces + 1] (every other engine
     keeps its floor PE).  Both caps are nondecreasing in [m]; the
     real-valued relaxation of the share cap additionally makes
     [m / cap m] monotone (see [alloc_floor_f] vs [alloc_floor_int]);
   - work conservation: an engine's busy cycles times its PE count is
     at least its MAC count (Eq. 1 again), so a block's interval is at
     least [macs / pes] and the whole design's interval is at least
     [total_macs / dsps] (mediant inequality over the blocks);
   - memory floor: every weight byte and the network's input and
     output feature maps cross the off-chip port at least once per
     image, whatever the buffer plan.

   Every floor query is scaled by [1 - eps] before it is returned.  The
   slack is needed because the exact evaluator does not compute a
   block's interval as [float (sum cycles) /. clock]: a single-CE
   block's interval is a per-layer float sum of
   [max compute_s memory_s] terms, which can round an ulp below the
   floor's integer-sum-then-divide — an unguarded floor would then
   exceed the exact value it claims to bound.  The chain's true
   relative rounding error is bounded by a few hundred ulps (~1e-14);
   [eps = 1e-9] dominates it by five orders of magnitude while costing
   under a thousandth of a cycle per million.  The slack only ever
   RELAXES a floor, so it cannot break admissibility — it merely leaves
   a 1e-9-wide score band un-prunable. *)

let eps = 1e-9

(* Applied to every returned floor; see the header. *)
let guard x = x *. (1.0 -. eps)

type t = {
  table : Cnn.Table.t;
  board : Platform.Board.t;
  clock : float;
  peak : float;                 (* dsps * clock, MACs/s *)
  mem_floor_s : float;          (* (weights + net input + output) / bw *)
  dsps : int;
  total_macs : int;
  lock : Mutex.t;
  mutable contexts : (int * ctx) list;
}

(* Per-CE-count context: the quantization floors depend on the PE cap
   [dsps - ces + 1] and the head floors on the per-layer share ceiling,
   both functions of [ces] alone given the table and board. *)
and ctx = {
  cx_owner : t;
  cx_cap : int;                 (* dsps - ces + 1, at least 1 *)
  cx_spare : int;               (* dsps - ces, at least 0 *)
  cx_levels : int array;
      (* descending PE levels, a geometric grid from the cap down to 1:
         a segment's quantization floor is read at the smallest level
         at least its share ceiling (floors only weaken with more PEs,
         so rounding the ceiling up a level stays admissible) *)
  cx_qlvl_pfx : int array array;
      (* per level, length n+1: prefix sums of cycle_floor at that
         level's PE count *)
  cx_qlvl_sfxmax : int array array;
      (* per level, length n+1: max leveled floor over layers >= i *)
  cx_head_pfxmax : float array;
      (* length n+1: max over layers < i of the layer's floor at its
         own head-engine share ceiling *)
  cx_head_ceil_pfx : int array;
      (* length n+1: summed per-layer integer share ceilings of layers
         < i — caps the head's total PE count tighter than the
         real-valued formula *)
}

let create table board =
  let n = Cnn.Table.num_layers table in
  let bpe = board.Platform.Board.bytes_per_element in
  let mem_bytes =
    (Cnn.Table.total_weights table + Cnn.Table.ifm_elements table 0
    + Cnn.Table.ofm_elements table (n - 1))
    * bpe
  in
  {
    table;
    board;
    clock = board.Platform.Board.clock_hz;
    peak =
      float_of_int board.Platform.Board.dsps *. board.Platform.Board.clock_hz;
    mem_floor_s = Platform.Board.bytes_to_seconds board mem_bytes;
    dsps = board.Platform.Board.dsps;
    total_macs = Cnn.Table.total_macs table;
    lock = Mutex.create ();
    contexts = [];
  }

let table t = t.table
let clock_hz t = t.clock
let mem_floor_s t = t.mem_floor_s

let global_ii_cycles t =
  if t.dsps > 0 then float_of_int t.total_macs /. float_of_int t.dsps else 0.0

let make_ctx t ces =
  let n = Cnn.Table.num_layers t.table in
  let cap = max 1 (t.dsps - ces + 1) in
  let spare = max 0 (t.dsps - ces) in
  (* Geometric PE grid (ratio ~1.1) from the cap down to a single PE.
     Rounding a segment's share ceiling up to the next level costs at
     most one grid step of tightness; evaluating each layer's floor at
     every level is what makes the leveled queries O(1). *)
  let levels =
    let rec go acc v = if v <= 1 then List.rev (1 :: acc) else go (v :: acc) (min (v - 1) (v * 10 / 11)) in
    Array.of_list (if cap <= 1 then [ 1 ] else go [] cap)
  in
  let nl = Array.length levels in
  let qlvl_pfx = Array.make_matrix nl (n + 1) 0 in
  let qlvl_sfxmax = Array.make_matrix nl (n + 1) 0 in
  for k = 0 to nl - 1 do
    let q =
      Array.init n (fun i ->
          Builder.Parallelism_select.cycle_floor ~pes:levels.(k) t.table i)
    in
    for i = 0 to n - 1 do
      qlvl_pfx.(k).(i + 1) <- qlvl_pfx.(k).(i) + q.(i)
    done;
    for i = n - 1 downto 0 do
      qlvl_sfxmax.(k).(i) <- max qlvl_sfxmax.(k).(i + 1) q.(i)
    done
  done;
  let head_pfxmax = Array.make (n + 1) 0.0 in
  let head_ceil_pfx = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    (* A head engine runs exactly one layer, so its workload in the
       builder's distribute call is that layer's MACs: the share
       ceiling is per-layer exact. *)
    let p =
      if t.dsps >= ces then
        Builder.Pe_allocation.share_upper_bound ~budget:t.dsps ~engines:ces
          ~workload:(Cnn.Table.macs t.table i) ~total:t.total_macs
      else 1
    in
    let p = max 1 p in
    let fl = Builder.Parallelism_select.cycle_floor ~pes:p t.table i in
    head_pfxmax.(i + 1) <- Float.max head_pfxmax.(i) (float_of_int fl);
    head_ceil_pfx.(i + 1) <- head_ceil_pfx.(i) + p
  done;
  {
    cx_owner = t;
    cx_cap = cap;
    cx_spare = spare;
    cx_levels = levels;
    cx_qlvl_pfx = qlvl_pfx;
    cx_qlvl_sfxmax = qlvl_sfxmax;
    cx_head_pfxmax = head_pfxmax;
    cx_head_ceil_pfx = head_ceil_pfx;
  }

let context t ~ces =
  if ces < 2 then invalid_arg "Bounds.context: ces < 2";
  let existing =
    Mutex.lock t.lock;
    let r = List.assoc_opt ces t.contexts in
    Mutex.unlock t.lock;
    r
  in
  match existing with
  | Some c -> c
  | None ->
    let c = make_ctx t ces in
    Mutex.lock t.lock;
    let r =
      match List.assoc_opt ces t.contexts with
      | Some c' -> c'
      | None ->
        t.contexts <- (ces, c) :: t.contexts;
        c
    in
    Mutex.unlock t.lock;
    r

(* Real-valued allocation floor: cycles of a single-CE segment with
   [m] MACs are at least [m / min (cap, 2 + spare * m / total)] — the
   engine's PE count is bounded by both caps, and the real-valued
   denominator dominates the integer share ceiling.  Monotone in [m]
   (numerator and the min of two nondecreasing denominators).  The
   [1 - eps] scale absorbs the divisions' float rounding. *)
let alloc_floor_f ctx mf =
  if mf <= 0.0 then 0.0
  else begin
    let t = ctx.cx_owner in
    let cap = float_of_int ctx.cx_cap in
    let denom =
      if t.total_macs <= 0 then cap
      else
        Float.min cap
          (2.0
          +. float_of_int ctx.cx_spare *. mf /. float_of_int t.total_macs)
    in
    mf /. denom
  end

(* Integer share ceiling of a single-CE segment holding [m] MACs —
   [Pe_allocation.share_upper_bound] without its argument checks.
   Nondecreasing in [m]. *)
let seg_ceiling ctx m =
  let t = ctx.cx_owner in
  if t.total_macs <= 0 || m >= t.total_macs then ctx.cx_cap
  else min ctx.cx_cap (2 + (ctx.cx_spare * m / t.total_macs))

(* Allocation floor at the integer share ceiling — tighter than the
   real-valued [alloc_floor_f] by up to one PE's worth, and subadditive
   ([sum m_j / g (sum m_j) <= sum (m_j / g m_j)] needs only [g]
   nondecreasing).  NOT monotone in [m]: [m / g m] drops where the
   integer ceiling steps up ([m / (p + 1)] can undercut [(m - 1) / p]),
   so the monotone core and the suffix widest-layer term — whose
   admissibility arguments compare floors at different MAC counts —
   must keep [alloc_floor_f]. *)
let alloc_floor_int ctx m =
  if m <= 0 then 0.0
  else float_of_int m /. float_of_int (seg_ceiling ctx m)

(* Smallest grid level at least [c] PEs: rightmost index of the
   descending [cx_levels] whose value is >= c. *)
let level_index ctx c =
  let levels = ctx.cx_levels in
  let lo = ref 0 and hi = ref (Array.length levels - 1) in
  if levels.(!hi) >= c then !hi
  else begin
    (* invariant: levels.(lo) >= c > levels.(hi) *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if levels.(mid) >= c then lo := mid else hi := mid
    done;
    !lo
  end

(* Summed leveled quantization floors of layers [first, last] for an
   engine holding at most [m_ceiling_of] MACs' proportional share. *)
let leveled_qsum ctx ~first ~last ~m_ceiling_of =
  let k = level_index ctx (seg_ceiling ctx m_ceiling_of) in
  ctx.cx_qlvl_pfx.(k).(last + 1) - ctx.cx_qlvl_pfx.(k).(first)

let segment_ii_floor ctx ~first ~last =
  let t = ctx.cx_owner in
  let m = Cnn.Table.macs_range t.table ~first ~last in
  let q = float_of_int (leveled_qsum ctx ~first ~last ~m_ceiling_of:m) in
  guard (Float.max q (alloc_floor_int ctx m))

let segment_ii_floor_monotone ctx ~first ~last =
  let t = ctx.cx_owner in
  let m = Cnn.Table.macs_range t.table ~first ~last in
  let q = float_of_int (ctx.cx_qlvl_pfx.(0).(last + 1) - ctx.cx_qlvl_pfx.(0).(first)) in
  guard (Float.max q (alloc_floor_f ctx (float_of_int m)))

let head_ii_floor ctx ~f =
  if f <= 0 then 0.0
  else begin
    let t = ctx.cx_owner in
    let mh = float_of_int (Cnn.Table.macs_range t.table ~first:0 ~last:(f - 1)) in
    (* The bottleneck engine is at least the largest per-layer floor,
       and at least the head's mean: summed head PE counts are at most
       f + spare (every other engine keeps a PE) and at most the summed
       per-layer integer share ceilings. *)
    let pes = min (f + ctx.cx_spare) ctx.cx_head_ceil_pfx.(f) in
    let mean = if pes > 0 then mh /. float_of_int pes else 0.0 in
    guard (Float.max ctx.cx_head_pfxmax.(f) mean)
  end

let suffix_ii_floor ctx ~first ~segments =
  let t = ctx.cx_owner in
  let n = Cnn.Table.num_layers t.table in
  if first >= n || segments < 1 then 0.0
  else begin
    let msuf = Cnn.Table.macs_range t.table ~first ~last:(n - 1) in
    let mmax = Cnn.Table.max_macs_range t.table ~first ~last:(n - 1) in
    (* Every tail segment holds at most the whole suffix's MACs, so the
       suffix-level grid row is admissible for each of them. *)
    let k = level_index ctx (seg_ceiling ctx msuf) in
    let qsum = ctx.cx_qlvl_pfx.(k).(n) - ctx.cx_qlvl_pfx.(k).(first) in
    let sm = float_of_int segments in
    (* Four ways the slowest of the [segments] tail segments is pinned
       from below: the segment holding any given layer pays its leveled
       floor; the one holding the widest layer pays its allocation
       floor; and the slowest is at least the mean of both floor
       families. *)
    guard
      (Float.max
         (float_of_int ctx.cx_qlvl_sfxmax.(k).(first))
         (Float.max
            (* [alloc_floor_f], not the tighter integer floor: the
               segment holding the widest layer has [m_j >= mmax], and
               only the real floor is monotone across that
               comparison. *)
            (alloc_floor_f ctx (float_of_int mmax))
            (Float.max
               (float_of_int qsum /. sm)
               (alloc_floor_f ctx (float_of_int msuf /. sm)))))
  end

let suffix_latency_floor ctx ~first =
  let t = ctx.cx_owner in
  let n = Cnn.Table.num_layers t.table in
  if first >= n then 0.0
  else begin
    let msuf_i = Cnn.Table.macs_range t.table ~first ~last:(n - 1) in
    let qsum =
      float_of_int (leveled_qsum ctx ~first ~last:(n - 1) ~m_ceiling_of:msuf_i)
    in
    (* Summed segment floors: the quantization floors add up, and the
       allocation floor is subadditive (nondecreasing integer share
       ceiling), so its value on the whole suffix bounds any split's
       sum.  Guarded twice: it stands for a float sum of once-guarded
       segment floors, which can round an ulp below the guarded
       total. *)
    guard (guard (Float.max qsum (alloc_floor_int ctx msuf_i)))
  end

(* ------------------------------------------- composed partial bounds *)

(* No search calls these two; they stay for perfbench/, which times
   them (see the interface).

   The conversion chain below — [_ /. clock], [Float.max], [1.0 /. _] —
   is the exact model's own ([Platform.Board.cycles_to_seconds], the
   block fold in [Mccm.Evaluate]); every op is monotone, so a floor
   cycle count that never exceeds the exact block's yields a bound that
   never undercuts (throughput) the exact score, bit-for-bit, with no
   slack factor. *)

let partial_throughput_bound ctx ~worst_cycles ~first ~segments =
  let t = ctx.cx_owner in
  let cyc =
    Float.max
      (Float.max worst_cycles (suffix_ii_floor ctx ~first ~segments))
      (global_ii_cycles t *. (1.0 -. eps))
  in
  let ii = Float.max (cyc /. t.clock) t.mem_floor_s in
  if ii <= 0.0 then infinity else 1.0 /. ii

let partial_latency_bound ctx ~latency_cycles ~sum_sqrt_macs ~first =
  let t = ctx.cx_owner in
  let n = Cnn.Table.num_layers t.table in
  let cyc = latency_cycles +. suffix_latency_floor ctx ~first in
  let sq =
    sum_sqrt_macs
    +.
    if first < n then
      sqrt (float_of_int (Cnn.Table.macs_range t.table ~first ~last:(n - 1)))
    else 0.0
  in
  (* Latency floors cross a many-term float sum, so one global [1 - eps]
     scale covers the whole chain's rounding. *)
  Float.max
    (Float.max (cyc /. t.clock) (sq *. sq /. t.peak))
    t.mem_floor_s
  *. (1.0 -. eps)

(* ---------------------------------------------- whole-spec bounds *)

(* The scan hot loop reads specs straight out of a [Space.Flat] buffer:
   the row is walked in place, so a bound costs no allocation, and the
   caller hoists the [ctx] lookup (one mutex round per scan, not per
   spec). *)

let compute_ii_floor_cycles_flat ctx buf ~width i =
  let t = ctx.cx_owner in
  let n = Cnn.Table.num_layers t.table in
  let f = Space.Flat.pipelined buf ~width i in
  let worst = ref (head_ii_floor ctx ~f) in
  let first = ref f in
  let k = ref 0 in
  let more = ref true in
  while !more && !k <= width - 2 do
    let b = Space.Flat.boundary buf ~width i ~k:!k in
    if b = 0 then more := false
    else begin
      worst := Float.max !worst (segment_ii_floor ctx ~first:!first ~last:(b - 1));
      first := b;
      incr k
    end
  done;
  worst := Float.max !worst (segment_ii_floor ctx ~first:!first ~last:(n - 1));
  Float.max !worst (global_ii_cycles t *. (1.0 -. eps))

let throughput_upper_bound_flat ctx buf ~width i =
  let t = ctx.cx_owner in
  let cyc = compute_ii_floor_cycles_flat ctx buf ~width i in
  let ii = Float.max (cyc /. t.clock) t.mem_floor_s in
  if ii <= 0.0 then infinity else 1.0 /. ii

let latency_lower_bound_flat ctx buf ~width i =
  let t = ctx.cx_owner in
  let n = Cnn.Table.num_layers t.table in
  let f = Space.Flat.pipelined buf ~width i in
  let compute = ref (head_ii_floor ctx ~f) in
  let sq =
    ref (sqrt (float_of_int (Cnn.Table.macs_range t.table ~first:0 ~last:(f - 1))))
  in
  let first = ref f in
  let k = ref 0 in
  let more = ref true in
  while !more && !k <= width - 2 do
    let b = Space.Flat.boundary buf ~width i ~k:!k in
    if b = 0 then more := false
    else begin
      compute := !compute +. segment_ii_floor ctx ~first:!first ~last:(b - 1);
      sq :=
        !sq
        +. sqrt
             (float_of_int
                (Cnn.Table.macs_range t.table ~first:!first ~last:(b - 1)));
      first := b;
      incr k
    end
  done;
  compute := !compute +. segment_ii_floor ctx ~first:!first ~last:(n - 1);
  sq :=
    !sq
    +. sqrt
         (float_of_int (Cnn.Table.macs_range t.table ~first:!first ~last:(n - 1)));
  Float.max
    (Float.max (!compute /. t.clock) (!sq *. !sq /. t.peak))
    t.mem_floor_s
  *. (1.0 -. eps)
