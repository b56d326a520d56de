let cd = Util.Int_math.ceil_div

let c_floor_hit = Mccm_obs.Metric.counter "plan.floor.hit"
let c_floor_miss = Mccm_obs.Metric.counter "plan.floor.miss"


type single_plan = {
  weights_tile_bytes : int;
  fm_capacity_bytes : int;
  fm_ideal_bytes : int;
}

type pipelined_plan = {
  tiles_per_image : int;
  width_split : int;
  tile_rows : int array;
  fm_tile_bytes : int array;
  weights_retained : bool array;
  weights_staging_bytes : int;
}

type block_plan =
  | Plan_single of single_plan
  | Plan_pipelined of pipelined_plan

type t = {
  block_plans : block_plan array;
  inter_seg_on_chip : bool array;
  inter_seg_bytes : int array;
  total_bytes : int;
  feasible : bool;
}

(* Working representation while the greedy passes mutate decisions. *)
type wsingle = {
  s_weights_tile : int;
  s_fm_min : int;
  s_fm_ideal : int;
  mutable s_fm_cap : int;
}

type wpipe = {
  p_first : int;
  p_engs : Engine.Ce.t array;
  p_ws : int;
  mutable p_rows : int array;
  mutable p_fm_tile : int array;
  p_aligned_min : int array;
      (* smallest unroll-aligned rows; the preferred fallback when the
         board has room for it *)
  p_retained : bool array;
  mutable p_staging : int;
}

type wblock = Wsingle of wsingle | Wpipe of wpipe

let fm_tile_bytes_of ~bpe ~width_split layer ~rows =
  let o = Cnn.Layer.out_shape layer in
  cd (rows * o.Cnn.Shape.width * o.Cnn.Shape.channels * bpe) width_split

(* Weight streams are double-buffered at burst granularity, not at full
   filter-group granularity: the carved-out buffer caps at this many
   elements per copy.  The access model is unaffected (weights move the
   same number of times); only the BRAM carve-out shrinks. *)
let weight_stream_granule_elements = 16384

(* ------------------------------------------------------------ cache *)

(* The pipelined tile-count/width-split search is the planner's hot spot
   and a pure function of the block's layer range and its engines'
   parallelisms for a fixed (model, board): its soft BRAM budget derives
   from the block's own MAC share, never from the rest of the
   architecture.  A cache is scoped to one (model, board) pair by its
   owner (an evaluation session), so keys carry only the layer range and
   the engine signatures; the greedy passes that later mutate the floor
   stay per-architecture and uncached. *)

type block_key = {
  k_fp : int;
  k_first : int;
  k_last : int;
  k_engs : Engine.Ce.signature array;
}

let block_key ~first ~last engs =
  let h = Util.Fingerprint.empty in
  let h = Util.Fingerprint.int h first in
  let h = Util.Fingerprint.int h last in
  let h = Util.Fingerprint.array Engine.Ce.fingerprint h engs in
  { k_fp = Util.Fingerprint.to_int h; k_first = first; k_last = last;
    k_engs = engs }

module Block_tbl = Hashtbl.Make (struct
  type t = block_key

  let hash k = k.k_fp

  let equal a b =
    a.k_fp = b.k_fp && a.k_first = b.k_first && a.k_last = b.k_last
    && a.k_engs = b.k_engs
end)

(* Immutable floors; the working copies handed to the greedy passes are
   rebuilt fresh on every hit. *)
type pipe_floor = {
  pf_ws : int;
  pf_rows : int array;
  pf_fm_tile : int array;
  pf_aligned_min : int array;
}

type single_floor = {
  sf_weights_tile : int;
  sf_fm_min : int;
  sf_fm_ideal : int;
}

type cache = {
  pipes : pipe_floor Block_tbl.t;
  singles : single_floor Block_tbl.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
}

let create_cache () =
  { pipes = Block_tbl.create 128; singles = Block_tbl.create 128;
    cache_hits = 0; cache_misses = 0 }

let cache_hits c = c.cache_hits
let cache_misses c = c.cache_misses

(* The planning floor (row-streaming minima and tiling search) is the
   expensive part of a plan; wrap its computation in a span so traces
   separate floor time from the greedy capacity passes, and count
   hits/misses in the global registry next to the per-cache counters. *)
let timed_floor compute =
  Mccm_obs.span ~cat:"build" "build.planning_floor" compute

let memo_block tbl cache key compute =
  match cache with
  | None -> timed_floor compute
  | Some c -> (
    let tbl = tbl c in
    match Block_tbl.find_opt tbl key with
    | Some v ->
      c.cache_hits <- c.cache_hits + 1;
      Mccm_obs.Metric.incr c_floor_hit;
      v
    | None ->
      c.cache_misses <- c.cache_misses + 1;
      Mccm_obs.Metric.incr c_floor_miss;
      let v = timed_floor compute in
      Block_tbl.add tbl key v;
      v)

let plan ?(minimal = false) ?cache ~table board archi ~engines =
  let bpe = board.Platform.Board.bytes_per_element in
  let bram = board.Platform.Board.bram_bytes in
  let blocks = Array.of_list archi.Arch.Block.blocks in
  let nb = Array.length blocks in
  let total_macs = max 1 (Cnn.Table.total_macs table) in
  let weight_bytes i = bpe * Cnn.Table.weight_elements table i in
  let fm_tile_at ~width_split i ~rows =
    let row_bytes =
      Cnn.Table.out_width table i * Cnn.Table.out_channels table i * bpe
    in
    cd (rows * row_bytes) width_split
  in
  let make_single ~ce ~first ~last =
    let engine = engines.(ce) in
    let floor =
      memo_block
        (fun c -> c.singles)
        cache
        (block_key ~first ~last [| Engine.Ce.signature engine |])
        (fun () ->
          let wt = ref 1 and mf = ref 1 in
          for i = first to last do
            wt := max !wt (Tiling.weight_tile_elements_at engine table i);
            mf := max !mf (Tiling.min_fm_elements_at table i)
          done;
          let fm_ideal = bpe * Cnn.Table.max_fms_range table ~first ~last in
          { sf_weights_tile = 2 * bpe * min weight_stream_granule_elements !wt;
            sf_fm_min = min fm_ideal (bpe * !mf);
            sf_fm_ideal = fm_ideal })
    in
    Wsingle
      { s_weights_tile = floor.sf_weights_tile; s_fm_min = floor.sf_fm_min;
        s_fm_ideal = floor.sf_fm_ideal; s_fm_cap = floor.sf_fm_min }
  in
  let pipe_floor ~engs ~first ~last () =
    let ces = Array.length engs in
    let n = last - first + 1 in
    let out_h i = Cnn.Table.out_height table (first + i) in
    let par_h i =
      max 1
        (Engine.Parallelism.factor
           engs.(i mod ces).Engine.Ce.parallelism
           Engine.Parallelism.Height)
    in
    (* Tile rows are aligned to the engine's height unrolling so no tile
       wastes unroll lanes, except possibly the layer-sized last band. *)
    let aligned i target =
      let oh = out_h i in
      if target >= oh then oh
      else
        let r = Util.Int_math.round_up_to ~multiple:(par_h i) (max 1 target) in
        if r >= oh then oh else r
    in
    let rows_for t = Array.init n (fun i -> aligned i (cd (out_h i) t)) in
    let bytes_of ~ws rows =
      let s = ref 0 in
      Array.iteri
        (fun i r -> s := !s + (2 * fm_tile_at ~width_split:ws (first + i) ~rows:r))
        rows;
      !s
    in
    let max_t = ref 1 in
    for i = 0 to n - 1 do
      max_t := max !max_t (out_h i)
    done;
    let unaligned_rows_for t =
      Array.init n (fun i -> max 1 (cd (out_h i) t))
    in
    (* Tiling trades pipeline-fill skew (Eq. 2: more tiles overlap
       better) against weight traffic (Eq. 7: streamed weights are
       re-fetched once per tile) and against the BRAM left for weight
       retention.  Each candidate tiling is scored with a closed-form
       latency estimate - max of the skewed compute schedule and the
       off-chip traffic it implies at the retention its FM tiles leave
       room for - and the cheapest feasible one wins. *)
    let hard = bram * Cnn.Table.macs_range table ~first ~last / total_macs in
    let w_b = Array.init n (fun i -> weight_bytes (first + i)) in
    let num_rounds = cd n ces in
    let staging_est =
      let best = ref 1 in
      for i = 0 to n - 1 do
        best :=
          max !best
            (Tiling.weight_tile_elements_at engs.(i mod ces) table (first + i))
      done;
      2 * bpe * min weight_stream_granule_elements !best
    in
    let bytes_per_cycle =
      board.Platform.Board.bandwidth_bytes_per_sec
      /. board.Platform.Board.clock_hz
    in
    let estimate ~ws rows =
      let fm = bytes_of ~ws rows in
      if fm + staging_est > hard then None
      else begin
        let tiles i =
          Tiling.num_row_tiles_at table (first + i) ~rows:rows.(i) * ws
        in
        (* Mirror the greedy's tier-1 order: most re-fetches avoided per
           retained byte first. *)
        let avail = ref (hard - fm - staging_est) in
        let retained = Array.make n false in
        List.init n Fun.id
        |> List.filter (fun i -> tiles i > 1)
        |> List.sort (fun a b ->
               match compare (tiles b) (tiles a) with
               | 0 -> (
                   match compare w_b.(b) w_b.(a) with
                   | 0 -> compare a b
                   | c -> c)
               | c -> c)
        |> List.iter (fun i ->
               if w_b.(i) <= !avail then begin
                 retained.(i) <- true;
                 avail := !avail - w_b.(i)
               end);
        let traffic = ref 0 in
        for i = 0 to n - 1 do
          traffic := !traffic + (w_b.(i) * if retained.(i) then 1 else tiles i)
        done;
        (* Actual per-layer pace: tiles x per-tile cycles, which also
           prices the unroll lanes a misaligned band wastes. *)
        let paced i =
          tiles i
          * cd
              (Engine.Ce.tile_cycles_at engs.(i mod ces) table (first + i)
                 ~rows:rows.(i))
              ws
        in
        let compute = ref 0.0 in
        for r = 0 to num_rounds - 1 do
          let lo = r * ces and hi = min (n - 1) ((r * ces) + ces - 1) in
          let rmax = ref 0 and tmin = ref max_int in
          for i = lo to hi do
            rmax := max !rmax (paced i);
            tmin := min !tmin (tiles i)
          done;
          (* Pipeline fill: trailing engines wait ~one tile of the pacing
             layer per stage before streaming in earnest. *)
          compute :=
            !compute
            +. float_of_int !rmax
            +. (float_of_int ((hi - lo) * !rmax) /. float_of_int (max 1 !tmin))
        done;
        Some (Float.max !compute (float_of_int !traffic /. bytes_per_cycle))
      end
    in
    let pick ~ws rows_of =
      let best = ref None in
      let prev = ref [||] in
      for t = 1 to !max_t do
        let rows = rows_of t in
        if rows <> !prev then begin
          prev := rows;
          match estimate ~ws rows with
          | None -> ()
          | Some e -> (
              match !best with
              | Some (be, _) when be <= e -> ()
              | _ -> best := Some (e, rows))
        end
      done;
      Option.map snd !best
    in
    let aligned_min = rows_for !max_t in
    let rows, ws =
      (* Preference order: unroll-aligned bands first (splitting the
         width instead of shrinking rows below the H unroll keeps the
         lanes busy), then unaligned bands as a last resort. *)
      let rec widen rows_of ws =
        if ws > 64 then None
        else
          match pick ~ws rows_of with
          | Some rows -> Some (rows, ws)
          | None -> widen rows_of (ws + 1)
      in
      match widen rows_for 1 with
      | Some r -> r
      | None -> (
          match widen unaligned_rows_for 1 with
          | Some r -> r
          | None -> (unaligned_rows_for !max_t, 1))
    in
    let fm_tile rows =
      Array.init n (fun i -> fm_tile_at ~width_split:ws (first + i) ~rows:rows.(i))
    in
    { pf_ws = ws; pf_rows = rows; pf_fm_tile = fm_tile rows;
      pf_aligned_min = aligned_min }
  in
  let make_pipe ~ce_first ~ce_last ~first ~last =
    let ces = ce_last - ce_first + 1 in
    let engs = Array.sub engines ce_first ces in
    let floor =
      memo_block
        (fun c -> c.pipes)
        cache
        (block_key ~first ~last (Array.map Engine.Ce.signature engs))
        (pipe_floor ~engs ~first ~last)
    in
    (* The greedy passes mutate rows/tiles in place; the cached floor must
       stay pristine, so hand them copies.  [pf_aligned_min] is read-only
       downstream and may be shared. *)
    Wpipe
      { p_first = first; p_engs = engs; p_ws = floor.pf_ws;
        p_rows = Array.copy floor.pf_rows;
        p_fm_tile = Array.copy floor.pf_fm_tile;
        p_aligned_min = floor.pf_aligned_min;
        p_retained = Array.make (last - first + 1) false; p_staging = 0 }
  in
  let work =
    Array.map
      (function
        | Arch.Block.Single { ce; first; last } -> make_single ~ce ~first ~last
        | Arch.Block.Pipelined { ce_first; ce_last; first; last } ->
          make_pipe ~ce_first ~ce_last ~first ~last)
      blocks
  in
  let inter_bytes =
    Array.init (max 0 (nb - 1)) (fun i ->
        let _, last = Arch.Block.layer_range blocks.(i) in
        bpe * Cnn.Table.ofm_elements table last)
  in
  let inter_on = Array.make (max 0 (nb - 1)) false in
  let restage p =
    let ces = Array.length p.p_engs in
    let best = ref 0 in
    Array.iteri
      (fun i retained ->
        if not retained then
          best :=
            max !best
              (Tiling.weight_tile_elements_at p.p_engs.(i mod ces) table
                 (p.p_first + i)))
      p.p_retained;
    p.p_staging <- 2 * bpe * min weight_stream_granule_elements !best
  in
  Array.iter (function Wpipe p -> restage p | Wsingle _ -> ()) work;
  let total () =
    let s = ref 0 in
    Array.iter
      (function
        | Wsingle b -> s := !s + b.s_weights_tile + b.s_fm_cap
        | Wpipe p ->
          Array.iteri
            (fun i tile ->
              s := !s + (2 * tile);
              if p.p_retained.(i) then s := !s + weight_bytes (p.p_first + i))
            p.p_fm_tile;
          if Array.exists not p.p_retained then s := !s + p.p_staging)
      work;
    Array.iteri (fun i on -> if on then s := !s + (2 * inter_bytes.(i))) inter_on;
    !s
  in
  if not minimal then begin
    (* Blocks that were forced below unroll-aligned tile rows by their
       soft budget get upgraded to the aligned minimum when the board as
       a whole still fits: fewer tiles mean fewer weight re-fetches. *)
    Array.iter
      (function
        | Wsingle _ -> ()
        | Wpipe p when p.p_ws > 1 -> ()
        | Wpipe p ->
          let tile_sum rows =
            let s = ref 0 in
            Array.iteri
              (fun i r ->
                s := !s + (2 * fm_tile_at ~width_split:1 (p.p_first + i) ~rows:r))
              rows;
            !s
          in
          let delta = tile_sum p.p_aligned_min - tile_sum p.p_rows in
          if delta > 0 && total () + delta <= bram then begin
            p.p_rows <- Array.copy p.p_aligned_min;
            p.p_fm_tile <-
              Array.init (Array.length p.p_rows) (fun i ->
                  fm_tile_at ~width_split:1 (p.p_first + i) ~rows:p.p_rows.(i))
          end)
      work;
    let leftover = ref (bram - total ()) in
    (* Retention candidates: (tiles, weight bytes, ordinal, block, layer). *)
    let candidates =
      let acc = ref [] and ord = ref 0 in
      Array.iter
        (function
          | Wsingle _ -> ()
          | Wpipe p ->
            Array.iteri
              (fun i rows ->
                let tiles =
                  Tiling.num_row_tiles_at table (p.p_first + i) ~rows * p.p_ws
                in
                incr ord;
                acc := (tiles, weight_bytes (p.p_first + i), !ord, p, i) :: !acc)
              p.p_rows)
        work;
      List.rev !acc
    in
    let retain_pass keep order_cmp =
      List.iter
        (fun (_, w, _, p, i) ->
          if (not p.p_retained.(i)) && w <= !leftover then begin
            p.p_retained.(i) <- true;
            leftover := !leftover - w
          end)
        (List.sort order_cmp (List.filter keep candidates))
    in
    (* 1. Retain multi-tile weights: most re-fetches avoided per byte
       first (Eq. 7 streams a layer's weights once per tile). *)
    retain_pass
      (fun (tiles, _, _, _, _) -> tiles > 1)
      (fun (t1, w1, o1, _, _) (t2, w2, o2, _, _) ->
        match compare t2 t1 with
        | 0 -> ( match compare w2 w1 with 0 -> compare o1 o2 | c -> c)
        | c -> c);
    (* 2. Grow single-CE FM capacities toward their ideals, proportional
       to each block's deficit. *)
    let singles =
      Array.to_list work
      |> List.filter_map (function Wsingle b -> Some b | Wpipe _ -> None)
    in
    let deficit b = b.s_fm_ideal - b.s_fm_cap in
    let sumd = List.fold_left (fun a b -> a + deficit b) 0 singles in
    if sumd > 0 && !leftover > 0 then
      if sumd <= !leftover then begin
        List.iter (fun b -> b.s_fm_cap <- b.s_fm_ideal) singles;
        leftover := !leftover - sumd
      end
      else begin
        let share = List.map (fun b -> (b, !leftover * deficit b / sumd)) singles in
        let slack =
          !leftover - List.fold_left (fun a (_, g) -> a + g) 0 share
        in
        let by_remainder =
          List.sort
            (fun (b1, g1) (b2, g2) ->
              compare
                ((!leftover * deficit b2) - (g2 * sumd))
                ((!leftover * deficit b1) - (g1 * sumd)))
            share
        in
        let slack = ref slack in
        List.iter
          (fun (b, g) ->
            let g =
              if !slack > 0 && g < deficit b then (decr slack; g + 1) else g
            in
            b.s_fm_cap <- b.s_fm_cap + g)
          by_remainder;
        leftover := 0
      end;
    (* 3. Inter-segment double buffers (Eq. 8), left to right. *)
    Array.iteri
      (fun i bytes ->
        let cost = 2 * bytes in
        if cost <= !leftover then begin
          inter_on.(i) <- true;
          leftover := !leftover - cost
        end)
      inter_bytes;
    (* 4. Retain whatever streamed weights still fit (single-tile layers
       cost no extra traffic but avoid the per-image staging round trip). *)
    retain_pass
      (fun (_, _, _, p, i) -> not p.p_retained.(i))
      (fun (_, w1, o1, _, _) (_, w2, o2, _, _) ->
        match compare w2 w1 with 0 -> compare o1 o2 | c -> c);
    Array.iter (function Wpipe p -> restage p | Wsingle _ -> ()) work
  end;
  let block_plans =
    Array.map
      (function
        | Wsingle b ->
          Plan_single
            { weights_tile_bytes = b.s_weights_tile;
              fm_capacity_bytes = b.s_fm_cap;
              fm_ideal_bytes = b.s_fm_ideal }
        | Wpipe p ->
          Plan_pipelined
            { tiles_per_image =
                Tiling.num_row_tiles_at table p.p_first ~rows:p.p_rows.(0)
                * p.p_ws;
              width_split = p.p_ws;
              tile_rows = p.p_rows;
              fm_tile_bytes = p.p_fm_tile;
              weights_retained = p.p_retained;
              weights_staging_bytes = p.p_staging })
      work
  in
  let total_bytes = total () in
  { block_plans; inter_seg_on_chip = inter_on; inter_seg_bytes = inter_bytes;
    total_bytes; feasible = total_bytes <= bram }

let audit model board archi (t : t) =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let bpe = board.Platform.Board.bytes_per_element in
  let blocks = Array.of_list archi.Arch.Block.blocks in
  let nb = Array.length blocks in
  if Array.length t.block_plans <> nb then
    add "block_plans has %d entries for %d blocks" (Array.length t.block_plans) nb
  else if
    Array.length t.inter_seg_on_chip <> nb - 1
    || Array.length t.inter_seg_bytes <> nb - 1
  then add "inter-segment arrays must have %d entries" (nb - 1)
  else begin
    Array.iteri
      (fun bi block ->
        match (block, t.block_plans.(bi)) with
        | Arch.Block.Single { first; last; _ }, Plan_single p ->
          let range = Cnn.Model.layers_in_range model ~first ~last in
          let max_w =
            List.fold_left (fun a l -> max a (Cnn.Layer.weight_elements l)) 1 range
          in
          let ideal = bpe * Cnn.Model.max_fms_elements model ~first ~last in
          if p.weights_tile_bytes <= 0 || p.weights_tile_bytes > 2 * bpe * max_w
          then
            add "block %d: weight tile %d outside (0, %d]" bi
              p.weights_tile_bytes (2 * bpe * max_w);
          if p.fm_ideal_bytes <> ideal then
            add "block %d: fm_ideal_bytes %d, expected %d" bi p.fm_ideal_bytes
              ideal;
          if p.fm_capacity_bytes <= 0 || p.fm_capacity_bytes > p.fm_ideal_bytes
          then
            add "block %d: fm capacity %d outside (0, %d]" bi
              p.fm_capacity_bytes p.fm_ideal_bytes
        | Arch.Block.Pipelined { first; last; _ }, Plan_pipelined p ->
          let n = last - first + 1 in
          if
            Array.length p.tile_rows <> n
            || Array.length p.fm_tile_bytes <> n
            || Array.length p.weights_retained <> n
          then add "block %d: plan arrays must have %d entries" bi n
          else begin
            if p.width_split < 1 then
              add "block %d: width_split %d < 1" bi p.width_split;
            for i = 0 to n - 1 do
              let layer = Cnn.Model.layer model (first + i) in
              let oh = (Cnn.Layer.out_shape layer).Cnn.Shape.height in
              let rows = p.tile_rows.(i) in
              if rows < 1 || rows > oh then
                add "block %d layer %d: tile rows %d outside [1, %d]" bi
                  (first + i) rows oh
              else begin
                let expect =
                  fm_tile_bytes_of ~bpe ~width_split:(max 1 p.width_split) layer
                    ~rows
                in
                if p.fm_tile_bytes.(i) <> expect then
                  add "block %d layer %d: fm tile %d bytes, expected %d" bi
                    (first + i) p.fm_tile_bytes.(i) expect
              end
            done;
            (if p.tile_rows.(0) >= 1 then
               let expect =
                 Tiling.num_row_tiles (Cnn.Model.layer model first)
                   ~rows:p.tile_rows.(0)
                 * max 1 p.width_split
               in
               if p.tiles_per_image <> expect then
                 add "block %d: tiles_per_image %d, expected %d" bi
                   p.tiles_per_image expect);
            let streamed_max = ref 0 in
            Array.iteri
              (fun i retained ->
                if not retained then
                  streamed_max :=
                    max !streamed_max
                      (bpe
                      * Cnn.Layer.weight_elements
                          (Cnn.Model.layer model (first + i))))
              p.weights_retained;
            if !streamed_max > 0 then begin
              if
                p.weights_staging_bytes <= 0
                || p.weights_staging_bytes > 2 * !streamed_max
              then
                add "block %d: weight staging %d outside (0, %d]" bi
                  p.weights_staging_bytes (2 * !streamed_max)
            end
            else if p.weights_staging_bytes < 0 then
              add "block %d: negative weight staging" bi
          end
        | Arch.Block.Single _, Plan_pipelined _ ->
          add "block %d: pipelined plan for a single-CE block" bi
        | Arch.Block.Pipelined _, Plan_single _ ->
          add "block %d: single-CE plan for a pipelined block" bi)
      blocks;
    Array.iteri
      (fun i bytes ->
        let _, last = Arch.Block.layer_range blocks.(i) in
        let expect =
          bpe * Cnn.Shape.elements (Cnn.Layer.out_shape (Cnn.Model.layer model last))
        in
        if bytes <> expect then
          add "boundary %d: %d bytes, expected %d" i bytes expect)
      t.inter_seg_bytes;
    if !problems = [] then begin
      let s = ref 0 in
      Array.iteri
        (fun bi plan ->
          match plan with
          | Plan_single p ->
            s := !s + p.weights_tile_bytes + p.fm_capacity_bytes
          | Plan_pipelined p ->
            let first, _ = Arch.Block.layer_range blocks.(bi) in
            Array.iteri
              (fun i tile ->
                s := !s + (2 * tile);
                if p.weights_retained.(i) then
                  s :=
                    !s
                    + bpe
                      * Cnn.Layer.weight_elements
                          (Cnn.Model.layer model (first + i)))
              p.fm_tile_bytes;
            if Array.exists not p.weights_retained then
              s := !s + p.weights_staging_bytes)
        t.block_plans;
      Array.iteri
        (fun i on -> if on then s := !s + (2 * t.inter_seg_bytes.(i)))
        t.inter_seg_on_chip;
      if t.total_bytes <> !s then
        add "total_bytes %d, recount %d" t.total_bytes !s;
      let feasible = !s <= board.Platform.Board.bram_bytes in
      if t.feasible <> feasible then
        add "feasible %b, recount says %b" t.feasible feasible
    end
  end;
  List.rev !problems
