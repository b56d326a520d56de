type layer_result = {
  layer_index : int;
  compute_cycles : int;
  accesses : Access.t;
  ifm_on_chip : bool;
  ofm_stays_on_chip : bool;
}

type result = {
  compute_cycles : int;
  accesses : Access.t;
  compute_s : float;
  memory_s : float;
  latency_s : float;
  utilization : float;
  cap_lo : int;
  cap_hi : int;
}

(* Two-state dynamic program over the layer chain.  A state is whether a
   layer's IFM is resident in the block's FM capacity (1) or not (0).
   Each state keeps only the running totals of the cheapest chain into
   it, so a call allocates this record and a few two-slot arrays,
   whatever the segment length; [back] holds per-layer back-pointers
   only when a trace is asked for.

   The evaluator reads its buffer plan only through the capacity [cap],
   and every use is either a threshold test ([t <= cap]) or a ceiling
   division of a constant by a window carved out of the capacity — so
   the result is a piecewise-constant function of the capacity.  [lo]
   and [hi] record, as the DP runs, the inclusive capacity interval on
   which every branch taken and every quotient computed stays the same;
   any capacity inside the interval provably yields a bit-identical
   result.  {!Seg_cache} uses this to survive the byte-granular churn of
   the planner's global proportional grants. *)
type dp = {
  cap : int;
  mutable lo : int;
  mutable hi : int;
  (* The cheapest chain into each state of the current layer: its weight
     and FM bytes ([w.(s) < 0]: unreachable) and its latency, summed in
     layer order. *)
  w : int array;
  f : int array;
  lat : float array;
  (* The cheapest decision into each state of the next layer: the state
     it extends, this layer's weight and FM bytes, and the chain's
     totals. *)
  src : int array;
  lw : int array;
  lf : int array;
  nw : int array;
  nf : int array;
  mutable from : int; (* the state whose decisions are being offered *)
  mutable store : int; (* OFM store a last layer's resident OFM pays *)
  back : int array; (* per layer and next state: src, lw, lf; or [||] *)
}

(* Outcome-preserving threshold test: [t <= cap], narrowing the validity
   interval to the capacities that decide the same way. *)
let le_cap dp t =
  if t <= dp.cap then begin
    if t > dp.lo then dp.lo <- t;
    true
  end
  else begin
    if t - 1 < dp.hi then dp.hi <- t - 1;
    false
  end

(* Value-preserving [ceil_div x avail] for [avail = max 1 (cap - reserved)]:
   narrows the validity interval to the capacities producing the same
   quotient. *)
let cd_window dp ~reserved x =
  let cap = dp.cap in
  let n = Util.Int_math.ceil_div x (max 1 (cap - reserved)) in
  if cap - reserved < 1 then begin
    (* Clamp active: any capacity <= reserved gives the same window. *)
    if reserved < dp.hi then dp.hi <- reserved
  end
  else begin
    if reserved + 1 > dp.lo then dp.lo <- reserved + 1;
    if x > 0 then begin
      let alo = Util.Int_math.ceil_div x n in
      if reserved + alo > dp.lo then dp.lo <- reserved + alo;
      if n > 1 then begin
        let ahi = (x - 1) / (n - 1) in
        if reserved + ahi < dp.hi then dp.hi <- reserved + ahi
      end
    end
  end;
  n

(* Offer one legal decision from state [dp.from]: it costs [lw] weight
   and [lf] FM bytes and leaves the OFM resident when [stays].  It
   replaces the incumbent of its next state only when its chain is
   strictly cheaper, so on a tie the earlier offer wins: state 0's
   before state 1's, then the order [decisions] makes them in. *)
let offer dp lw lf stays =
  (* A last layer writing off-chip does not leave its OFM for anyone. *)
  let lf = if stays then lf + dp.store else lf in
  let j = if stays then 1 else 0 in
  let w = dp.w.(dp.from) + lw and f = dp.f.(dp.from) + lf in
  if dp.nw.(j) < 0 || w + f < dp.nw.(j) + dp.nf.(j) then begin
    dp.src.(j) <- dp.from;
    dp.lw.(j) <- lw;
    dp.lf.(j) <- lf;
    dp.nw.(j) <- w;
    dp.nf.(j) <- f
  end

(* Streaming regime: charge the cheaper of Eq. 6's two options under one
   reservation of the capacity. *)
let stream dp ~w ~ifm ~ofm ~extra ~ofm_to_interseg ~extra_kept ~keep_ofm =
  let reserved =
    (if extra_kept then extra else 0) + if keep_ofm then ofm else 0
  in
  let es = if extra_kept then 0 else extra in
  (* Option 1 — OS, locally input-stationary: each IFM chunk is loaded
     once and the weights re-streamed per chunk. *)
  let opt1_w = w * cd_window dp ~reserved ifm in
  (* Option 2 — OS, locally weight-stationary: each weight chunk is
     loaded once and the IFM re-streamed per chunk. *)
  let opt2_fm = ifm * cd_window dp ~reserved w in
  let opt1 = opt1_w + ifm <= w + opt2_fm in
  let ofm_acc = if keep_ofm || ofm_to_interseg then 0 else ofm in
  offer dp
    (if opt1 then opt1_w else w)
    (es + (if opt1 then ifm else opt2_fm) + ofm_acc)
    (keep_ofm || ofm_to_interseg)

(* Eq. 6 for one layer, as the set of legal buffering decisions rather
   than a single greedy pick, each offered to the DP.  [ifm_in_cap] is
   true when the IFM occupies this block's FM capacity (it was produced
   by the previous layer); when the IFM sits in an inter-segment buffer
   it is on-chip but costs no capacity.  [ofm_to_interseg] frees the OFM
   from the capacity and forbids spilling it.  [band] is the
   one-OFM-row IFM streaming band. *)
let decisions dp ~w ~ifm ~ofm ~extra ~band ~ifm_on_chip ~ifm_in_cap
    ~ofm_to_interseg =
  let ifm_cap_bytes = if ifm_in_cap then ifm else 0 in
  let ofm_cap_bytes = if ofm_to_interseg then 0 else ofm in
  (* A resident shortcut stays on-chip only while everything fits; when a
     layer spills, the shortcut spills too, at roughly one pass of its
     bytes per carrying layer (a residual chain of two carrying layers
     pays its store once and its reload once). *)
  if ifm_on_chip then begin
    if le_cap dp (ifm_cap_bytes + ofm_cap_bytes + extra) then begin
      (* Ideal case: one access per weight. *)
      offer dp w 0 true;
      (* Voluntarily spilling the OFM can still pay off when the next
         layer would otherwise be squeezed out of its capacity. *)
      if not ofm_to_interseg then offer dp w ofm false
    end
    else begin
      (* Keep the OFM resident by evicting the shortcut instead. *)
      if extra > 0 && le_cap dp (ifm_cap_bytes + ofm_cap_bytes) then
        offer dp w extra true;
      (* IFM is resident but the OFM cannot stay: stream it out.  The
         shortcut only spills if it no longer fits beside the IFM. *)
      let es = if le_cap dp (ifm_cap_bytes + extra) then 0 else extra in
      offer dp w
        (es + if ofm_to_interseg then 0 else ofm)
        ofm_to_interseg
    end
  end
  else if le_cap dp (ifm + ofm_cap_bytes + extra) then begin
    (* Load the IFM once; everything is buffered afterwards. *)
    offer dp w ifm true;
    if not ofm_to_interseg then offer dp w (ifm + ofm) false
  end
  else begin
    if extra > 0 && le_cap dp (ifm + ofm_cap_bytes) then
      offer dp w (ifm + extra) true;
    let extra_fits = le_cap dp (extra + ofm_cap_bytes + band) in
    stream dp ~w ~ifm ~ofm ~extra ~ofm_to_interseg ~extra_kept:false
      ~keep_ofm:false;
    if extra_fits then
      stream dp ~w ~ifm ~ofm ~extra ~ofm_to_interseg ~extra_kept:true
        ~keep_ofm:false;
    (* Keeping the OFM needs it, the reserved shortcut and the band to
       fit. *)
    if (not ofm_to_interseg) && le_cap dp (ofm + band) then
      stream dp ~w ~ifm ~ofm ~extra ~ofm_to_interseg ~extra_kept:false
        ~keep_ofm:true;
    if extra_fits && (not ofm_to_interseg) && le_cap dp (ofm + extra + band)
    then
      stream dp ~w ~ifm ~ofm ~extra ~ofm_to_interseg ~extra_kept:true
        ~keep_ofm:true
  end

(* Charging the cheapest chain (not a per-layer greedy) keeps the
   modelled traffic monotone in the capacity: a keep-the-OFM decision
   that squeezes a later layer's streaming window is outbid by the spill
   chain.  Returns the aggregate and the final state. *)
let run dp ~table ~board ~engine ~first ~last ~input_on_chip ~output_on_chip =
  if first > last then invalid_arg "Single_ce_model: empty layer range";
  let bpe = board.Platform.Board.bytes_per_element in
  let pes = engine.Engine.Ce.pes in
  (* The block input arrives either off-chip or through an inter-segment
     buffer: on-chip but outside the capacity. *)
  let s0 = if input_on_chip then 1 else 0 in
  dp.w.(s0) <- 0;
  dp.f.(s0) <- 0;
  dp.w.(1 - s0) <- -1;
  let cycles = ref 0 and weighted = ref 0.0 and macs = ref 0.0 in
  for i = first to last do
    let cyc = Engine.Ce.layer_cycles_at engine table i in
    cycles := !cycles + cyc;
    (* MAC-weighted utilization, accumulated exactly as
       [Engine.Ce.average_utilization] folds it over the range (the same
       float operations in the same order), from the cycles above. *)
    let m = float_of_int (Cnn.Table.macs table i) in
    let u =
      float_of_int (Engine.Ce.ideal_cycles_at ~pes table i)
      /. float_of_int cyc
    in
    weighted := !weighted +. (m *. u);
    macs := !macs +. m;
    let w = Cnn.Table.weight_elements table i * bpe in
    let ifm = Cnn.Table.ifm_elements table i * bpe in
    let ofm = Cnn.Table.ofm_elements table i * bpe in
    let extra = Cnn.Table.extra_resident_elements table i * bpe in
    let band = Cnn.Table.band1_elements table i * bpe in
    let is_last = i = last in
    dp.store <- (if is_last && not output_on_chip then ofm else 0);
    dp.nw.(0) <- -1;
    dp.nw.(1) <- -1;
    for s = 0 to 1 do
      if dp.w.(s) >= 0 then begin
        dp.from <- s;
        decisions dp ~w ~ifm ~ofm ~extra ~band ~ifm_on_chip:(s = 1)
          ~ifm_in_cap:(i > first)
          ~ofm_to_interseg:(is_last && output_on_chip)
      end
    done;
    (* Per-layer overlap of compute and transfer (double-buffered
       streams).  Both next states read the current latencies, so both
       are computed before either is stored. *)
    let c = Platform.Board.cycles_to_seconds board cyc in
    let m0 = Platform.Board.bytes_to_seconds board (dp.lw.(0) + dp.lf.(0)) in
    let m1 = Platform.Board.bytes_to_seconds board (dp.lw.(1) + dp.lf.(1)) in
    let lat0 = dp.lat.(dp.src.(0)) +. Float.max c m0 in
    let lat1 = dp.lat.(dp.src.(1)) +. Float.max c m1 in
    dp.lat.(0) <- lat0;
    dp.lat.(1) <- lat1;
    for j = 0 to 1 do
      dp.w.(j) <- dp.nw.(j);
      dp.f.(j) <- dp.nf.(j);
      if Array.length dp.back > 0 then begin
        let k = (6 * (i - first)) + (3 * j) in
        dp.back.(k) <- dp.src.(j);
        dp.back.(k + 1) <- dp.lw.(j);
        dp.back.(k + 2) <- dp.lf.(j)
      end
    done
  done;
  (* State 0 wins the final tie. *)
  let k =
    if
      dp.w.(0) >= 0
      && (dp.w.(1) < 0 || dp.w.(0) + dp.f.(0) <= dp.w.(1) + dp.f.(1))
    then 0
    else 1
  in
  let accesses = { Access.weights_bytes = dp.w.(k); fms_bytes = dp.f.(k) } in
  ( {
      compute_cycles = !cycles;
      accesses;
      compute_s = Platform.Board.cycles_to_seconds board !cycles;
      memory_s = Platform.Board.bytes_to_seconds board (Access.total accesses);
      latency_s = dp.lat.(k);
      utilization = !weighted /. !macs;
      cap_lo = dp.lo;
      cap_hi = dp.hi;
    },
    k )

let create ~plan ~back =
  {
    cap = plan.Builder.Buffer_alloc.fm_capacity_bytes;
    lo = 0;
    hi = max_int;
    w = [| 0; 0 |];
    f = [| 0; 0 |];
    lat = [| 0.0; 0.0 |];
    src = [| 0; 0 |];
    lw = [| 0; 0 |];
    lf = [| 0; 0 |];
    nw = [| 0; 0 |];
    nf = [| 0; 0 |];
    from = 0;
    store = 0;
    back;
  }

let evaluate ~table ~board ~engine ~plan ~first ~last ~input_on_chip
    ~output_on_chip () =
  fst
    (run (create ~plan ~back:[||]) ~table ~board ~engine ~first ~last
       ~input_on_chip ~output_on_chip)

let trace ~table ~board ~engine ~plan ~first ~last ~input_on_chip
    ~output_on_chip () =
  let dp = create ~plan ~back:(Array.make (6 * max 0 (last - first + 1)) 0) in
  let r, k =
    run dp ~table ~board ~engine ~first ~last ~input_on_chip ~output_on_chip
  in
  (* Walk the back-pointers from the chosen final state. *)
  let rec walk i k acc =
    if i < first then acc
    else begin
      let b = (6 * (i - first)) + (3 * k) in
      let src = dp.back.(b) in
      let l =
        {
          layer_index = i;
          compute_cycles = Engine.Ce.layer_cycles_at engine table i;
          accesses =
            { Access.weights_bytes = dp.back.(b + 1);
              fms_bytes = dp.back.(b + 2) };
          ifm_on_chip = src = 1;
          ofm_stays_on_chip = k = 1;
        }
      in
      walk (i - 1) src (l :: acc)
    end
  in
  (r, walk last k [])
