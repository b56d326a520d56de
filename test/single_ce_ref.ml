(* The slow reference for Mccm.Single_ce_model's two-state Eq. 6 DP:
   the original list-based version.  [layer_candidates] builds each
   layer's legal buffering decisions as a list of (accesses, stays)
   pairs, and the DP threads an option of (total, trace) per state,
   consing a [layer_result] per candidate, and it folds utilization
   over [Layer.t] values with [Engine.Ce.average_utilization].  Its
   chain, aggregates and validity interval are what the library's DP
   must reproduce bit for bit; it is only fit for tests. *)

module Access = Mccm.Access

type layer_result = {
  layer_index : int;
  compute_cycles : int;
  accesses : Access.t;
  ifm_on_chip : bool;
  ofm_stays_on_chip : bool;
}

type result = {
  layers : layer_result list;
  compute_cycles : int;
  accesses : Access.t;
  compute_s : float;
  memory_s : float;
  latency_s : float;
  utilization : float;
}

(* The evaluator reads its buffer plan only through [fm_capacity_bytes],
   and every use is either a threshold test ([t <= cap]) or a ceiling
   division of a constant by a window carved out of the capacity — so
   the result is a piecewise-constant function of the capacity.  A
   [validity] accumulator records, as the DP runs, the inclusive
   capacity interval on which every branch taken and every quotient
   computed stays the same; any capacity inside the interval provably
   yields a bit-identical result.  {!Seg_cache} uses this to survive the
   byte-granular churn of the planner's global proportional grants. *)
type validity = { mutable lo : int; mutable hi : int }

(* Outcome-preserving threshold test: [t <= cap], narrowing [v] to the
   capacities that decide the same way. *)
let le_cap v cap t =
  if t <= cap then begin
    if t > v.lo then v.lo <- t;
    true
  end
  else begin
    if t - 1 < v.hi then v.hi <- t - 1;
    false
  end

(* Value-preserving [ceil_div x avail] for [avail = max 1 (cap - reserved)]:
   narrows [v] to the capacities producing the same quotient. *)
let cd_window v cap ~reserved x =
  let avail = max 1 (cap - reserved) in
  if cap - reserved < 1 then begin
    (* Clamp active: any capacity <= reserved gives the same window. *)
    if reserved < v.hi then v.hi <- reserved
  end
  else begin
    if reserved + 1 > v.lo then v.lo <- reserved + 1;
    if x > 0 then begin
      let n = Util.Int_math.ceil_div x avail in
      let alo = Util.Int_math.ceil_div x n in
      if reserved + alo > v.lo then v.lo <- reserved + alo;
      if n > 1 then begin
        let ahi = (x - 1) / (n - 1) in
        if reserved + ahi < v.hi then v.hi <- reserved + ahi
      end
    end
  end;
  Util.Int_math.ceil_div x avail

(* Eq. 6 for one layer, as a set of legal buffering decisions rather
   than a single greedy pick.  Each candidate is [(accesses, stays)]:
   the off-chip traffic the decision costs and whether it leaves the
   OFM resident for the next layer.  [ifm_in_cap] is true when the IFM
   occupies this block's FM capacity (it was produced by the previous
   layer); when the IFM sits in an inter-segment buffer it is on-chip
   but costs no capacity.  [ofm_to_interseg] frees the OFM from the
   capacity and forbids spilling it. *)
let layer_candidates ~validity ~plan ~w ~ifm ~ofm ~extra ~band ~ifm_on_chip
    ~ifm_in_cap ~ofm_to_interseg =
  let cap = plan.Builder.Buffer_alloc.fm_capacity_bytes in
  let le_cap t = le_cap validity cap t in
  let ifm_cap_bytes = if ifm_in_cap then ifm else 0 in
  let ofm_cap_bytes = if ofm_to_interseg then 0 else ofm in
  (* A resident shortcut stays on-chip only while everything fits; when a
     layer spills, the shortcut spills too, at roughly one pass of its
     bytes per carrying layer (a residual chain of two carrying layers
     pays its store once and its reload once). *)
  let extra_spill = Access.fms extra in
  let cands = ref [] in
  let add acc stays = cands := (acc, stays) :: !cands in
  if ifm_on_chip then begin
    if le_cap (ifm_cap_bytes + ofm_cap_bytes + extra) then begin
      (* Ideal case: one access per weight. *)
      add (Access.weights w) true;
      (* Voluntarily spilling the OFM can still pay off when the next
         layer would otherwise be squeezed out of its capacity. *)
      if not ofm_to_interseg then
        add (Access.add (Access.weights w) (Access.fms ofm)) false
    end
    else begin
      (* Keep the OFM resident by evicting the shortcut instead. *)
      if extra > 0 && le_cap (ifm_cap_bytes + ofm_cap_bytes) then
        add (Access.add (Access.weights w) extra_spill) true;
      (* IFM is resident but the OFM cannot stay: stream it out.  The
         shortcut only spills if it no longer fits beside the IFM. *)
      let es =
        if le_cap (ifm_cap_bytes + extra) then Access.zero else extra_spill
      in
      add
        (Access.add
           (Access.add (Access.weights w) es)
           (if ofm_to_interseg then Access.zero else Access.fms ofm))
        ofm_to_interseg
    end
  end
  else begin
    (* IFM off-chip; [band] is the one-OFM-row IFM streaming band. *)
    let ifm_band = band in
    if le_cap (ifm + ofm_cap_bytes + extra) then begin
      (* Load the IFM once; everything is buffered afterwards. *)
      add (Access.add (Access.weights w) (Access.fms ifm)) true;
      if not ofm_to_interseg then
        add (Access.add (Access.weights w) (Access.fms (ifm + ofm))) false
    end
    else begin
      if extra > 0 && le_cap (ifm + ofm_cap_bytes) then
        add
          (Access.add (Access.weights w)
             (Access.add (Access.fms ifm) extra_spill))
          true;
      (* Streaming regime: charge the cheaper of Eq. 6's two options
         under each feasible reservation of the capacity. *)
      let stream ~extra_kept ~keep_ofm =
        let extra_reserved = if extra_kept then extra else 0 in
        let es = if extra_kept then Access.zero else extra_spill in
        let reserved = extra_reserved + if keep_ofm then ofm else 0 in
        (* Option 1 — OS, locally input-stationary: each IFM chunk is
           loaded once and the weights re-streamed per chunk. *)
        let opt1_w = w * cd_window validity cap ~reserved ifm in
        let opt1_fm = ifm in
        (* Option 2 — OS, locally weight-stationary: each weight chunk is
           loaded once and the IFM re-streamed per chunk. *)
        let opt2_w = w in
        let opt2_fm = ifm * cd_window validity cap ~reserved w in
        let w_acc, ifm_acc =
          if opt1_w + opt1_fm <= opt2_w + opt2_fm then (opt1_w, opt1_fm)
          else (opt2_w, opt2_fm)
        in
        let ofm_acc = if keep_ofm || ofm_to_interseg then 0 else ofm in
        add
          (Access.add es
             (Access.add (Access.weights w_acc) (Access.fms (ifm_acc + ofm_acc))))
          (keep_ofm || ofm_to_interseg)
      in
      let extra_fits = le_cap (extra + ofm_cap_bytes + ifm_band) in
      let keep_fits ~extra_reserved =
        (not ofm_to_interseg) && le_cap (ofm + extra_reserved + ifm_band)
      in
      stream ~extra_kept:false ~keep_ofm:false;
      if extra_fits then stream ~extra_kept:true ~keep_ofm:false;
      if keep_fits ~extra_reserved:0 then stream ~extra_kept:false ~keep_ofm:true;
      if extra_fits && keep_fits ~extra_reserved:extra then
        stream ~extra_kept:true ~keep_ofm:true
    end
  end;
  List.rev !cands

let evaluate_with_validity ~table ~board ~engine ~plan ~first ~last
    ~input_on_chip ~output_on_chip () =
  let bpe = board.Platform.Board.bytes_per_element in
  let validity = { lo = 0; hi = max_int } in
  (* Per-layer scalar view, in bytes: (weights, ifm, ofm, extra,
     one-row IFM band, Eq.-1 cycles). *)
  let view i =
    ( Cnn.Table.weight_elements table i * bpe,
      Cnn.Table.ifm_elements table i * bpe,
      Cnn.Table.ofm_elements table i * bpe,
      Cnn.Table.extra_resident_elements table i * bpe,
      Cnn.Table.band1_elements table i * bpe,
      Engine.Ce.layer_cycles_at engine table i )
  in
  (* Two-state DP over the layer chain: a state is whether the layer's
     IFM is resident in the block's FM capacity.  Charging the cheapest
     chain (not a per-layer greedy) keeps the modelled traffic monotone
     in the capacity: a keep-the-OFM decision that squeezes a later
     layer's streaming window is outbid by the spill chain. *)
  let better a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some (ta, _), Some (tb, _) ->
      if Access.total ta <= Access.total tb then a else b
  in
  let step i states =
    let w, ifm, ofm, extra, band, compute_cycles = view i in
    let is_last = i = last in
    let ofm_to_interseg = is_last && output_on_chip in
    let next = [| None; None |] in
    List.iter
      (fun (ifm_on_chip, ifm_in_cap, state) ->
        match state with
        | None -> ()
        | Some (total, trace) ->
          List.iter
            (fun (accesses, stays) ->
              (* A last layer writing off-chip does not leave its OFM for
                 anyone. *)
              let accesses =
                if is_last && (not output_on_chip) && stays then
                  Access.add accesses (Access.fms ofm)
                else accesses
              in
              let r =
                {
                  layer_index = i;
                  compute_cycles;
                  accesses;
                  ifm_on_chip;
                  ofm_stays_on_chip = stays;
                }
              in
              let j = if stays then 1 else 0 in
              next.(j) <-
                better next.(j) (Some (Access.add total accesses, r :: trace)))
            (layer_candidates ~validity ~plan ~w ~ifm ~ofm ~extra ~band
               ~ifm_on_chip ~ifm_in_cap ~ofm_to_interseg))
      states;
    next
  in
  (* The block input arrives either off-chip or through an inter-segment
     buffer: on-chip but outside the capacity. *)
  let after_first =
    step first
      [ (input_on_chip, false, Some (Access.zero, [])) ]
  in
  let final =
    let rec loop i states =
      if i > last then states
      else
        loop (i + 1)
          (step i [ (false, true, states.(0)); (true, true, states.(1)) ])
    in
    loop (first + 1) after_first
  in
  let layers =
    match better final.(0) final.(1) with
    | Some (_, trace) -> List.rev trace
    | None -> assert false (* every layer contributes >= 1 candidate *)
  in
  let compute_cycles =
    List.fold_left (fun a (r : layer_result) -> a + r.compute_cycles) 0 layers
  in
  let accesses =
    Access.sum (List.map (fun (r : layer_result) -> r.accesses) layers)
  in
  let compute_s = Platform.Board.cycles_to_seconds board compute_cycles in
  let memory_s = Platform.Board.bytes_to_seconds board (Access.total accesses) in
  (* Per-layer overlap of compute and transfer (double-buffered streams). *)
  let latency_s =
    List.fold_left
      (fun acc (r : layer_result) ->
        let c = Platform.Board.cycles_to_seconds board r.compute_cycles in
        let m =
          Platform.Board.bytes_to_seconds board (Access.total r.accesses)
        in
        acc +. Float.max c m)
      0.0 layers
  in
  let utilization =
    Engine.Ce.average_utilization engine
      (Cnn.Model.layers_in_range (Cnn.Table.model table) ~first ~last)
  in
  ( { layers; compute_cycles; accesses; compute_s; memory_s; latency_s;
      utilization },
    (validity.lo, validity.hi) )
