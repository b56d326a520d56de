(* Exhaustive enumeration, best-first branch-and-bound, and
   hill-climbing over custom specs. *)

let h_neighbourhood = Mccm_obs.Metric.histogram "dse.neighbourhood_size"
let c_steps = Mccm_obs.Metric.counter "dse.local_search.steps"
let c_exhaustive = Mccm_obs.Metric.counter "dse.exhaustive.specs"
let c_evaluated = Mccm_obs.Metric.counter "dse.exhaustive.evaluated"
let c_pruned = Mccm_obs.Metric.counter "dse.exhaustive.pruned"
let c_nodes = Mccm_obs.Metric.counter "dse.bnb.nodes"
let c_ls_pruned = Mccm_obs.Metric.counter "dse.local_search.pruned"
let g_best_objective = Mccm_obs.Metric.gauge "dse.best_objective"

let enumerate_specs ~num_layers ~ces ~max_specs =
  if ces < 2 then invalid_arg "Enumerate.enumerate_specs: ces < 2";
  let out = ref [] in
  let count = ref 0 in
  let emit spec =
    if !count < max_specs then begin
      incr count;
      out := spec :: !out
    end
  in
  (* Choose boundaries of [s - 1] cut points in (f, num_layers) in
     lexicographic order. *)
  let rec boundaries ~from ~remaining acc f =
    if !count >= max_specs then ()
    else if remaining = 0 then
      emit { Arch.Custom.pipelined_layers = f; tail_boundaries = List.rev acc }
    else
      for b = from to num_layers - remaining do
        boundaries ~from:(b + 1) ~remaining:(remaining - 1) (b :: acc) f
      done
  in
  let f_max = min (ces - 1) (num_layers - 1) in
  for f = 1 to f_max do
    let s = ces - f in
    if num_layers - f >= s then
      boundaries ~from:(f + 1) ~remaining:(s - 1) [] f
  done;
  List.rev !out

let session_or_fresh ~fn session model board =
  match session with
  | Some s ->
    Mccm.Eval_session.check ~fn s model board;
    s
  | None -> Mccm.Eval_session.create model board

(* The admissible bound machinery lives in {!Bounds}; these aliases
   keep the historical entry points (and their callers) intact. *)
type bounds = Bounds.t

let bounds table board = Bounds.create table board
let throughput_upper_bound = Bounds.throughput_upper_bound
let latency_lower_bound = Bounds.latency_lower_bound

(* Sequential warm-up for a crew: run a small strided sample of the
   spec rows through the parent session so its plan/segment tables are
   populated before the per-worker forks are cut.  Caching is
   bit-invisible, so the warm-up cannot change any result; it only
   moves the cold start off the parallel phase. *)
let warm_strided ~session ~buf ~width ~n model =
  let stride = max 1 (n / 16) in
  let i = ref 0 in
  while !i < n do
    ignore
      (Mccm.Eval_session.metrics ~store_arch:false session
         (Arch.Custom.arch_of_spec model (Space.Flat.decode buf ~width !i)));
    i := !i + stride
  done

let exhaustive ?(max_specs = 20000) ?session ?(domains = 1) ?clamp ?pool ~ces
    model board =
  Mccm_obs.span ~cat:"dse" "dse.exhaustive" @@ fun () ->
  let session =
    session_or_fresh ~fn:"Enumerate.exhaustive" session model board
  in
  let width = Space.Flat.width ~ces in
  let buf =
    Space.Flat.enumerate ~num_layers:(Cnn.Model.num_layers model) ~ces
      ~max_specs
  in
  let n = Space.Flat.count buf ~width in
  Mccm_obs.Metric.add c_exhaustive n;
  (* Lexicographic neighbours share almost all their blocks, so the
     session's segment/plan tables turn the scan largely into lookups. *)
  let eval_slice ~session ~lo ~hi =
    let out = ref [] in
    for i = lo to hi - 1 do
      let spec = Space.Flat.decode buf ~width i in
      let archi = Arch.Custom.arch_of_spec model spec in
      let metrics = Mccm.Eval_session.metrics ~store_arch:false session archi in
      if metrics.Mccm.Metrics.feasible then
        out := { Explore.spec; metrics } :: !out
    done;
    List.rev !out
  in
  Crew.with_crew ?pool ?clamp ~domains session (fun crew ->
      Crew.warmup crew (fun () -> warm_strided ~session ~buf ~width ~n model);
      List.concat (Crew.map crew ~n eval_slice))

type objective = [ `Throughput | `Latency ]

type strategy = [ `Auto | `Best_first | `Scan ]

type search_stats = {
  enumerated : int;
  evaluated : int;
  pruned : int;
  nodes : int;
  domains_used : int;
}

let sat_add a b = if a > max_int - b then max_int else a + b

(* A branch-and-bound node: a partial spec with pipelined depth [nb_f]
   and fixed tail boundaries [nb_rev] (reversed), leaving layers
   [nb_next ..] to be split into [nb_segments] more segments.  Its
   complete specs form a contiguous run of the lexicographic
   enumeration order starting at index [nb_rank]; [nb_count] is how
   many of them fall under the spec cap.  The running aggregates carry
   the fixed blocks' floors so a child's bound costs O(1). *)
type bnb_node = {
  nb_bound : float;     (* optimistic objective score of the subtree *)
  nb_rank : int;
  nb_count : int;
  nb_f : int;
  nb_rev : int list;
  nb_next : int;
  nb_segments : int;
  nb_worst : float;     (* max fixed-block interval floor, cycles *)
  nb_lat : float;       (* summed fixed-block floors, cycles *)
  nb_sq : float;        (* summed sqrt(block MACs) *)
}

(* Sequential best-first branch-and-bound.  The frontier is a max-heap
   on the node bound (ties: earliest lexicographic rank), so promising
   regions are refined first and the incumbent climbs fast; a popped
   node that cannot beat the incumbent — strictly below it, or exactly
   at it with only later-rank (tie-losing) specs — kills its whole
   subtree and, because the heap pops bounds in nonincreasing order,
   everything still queued behind it.  That discipline plus the rank
   tie-break on acceptance reproduces the unpruned sequential scan's
   winner bit-for-bit: the lexicographically first spec attaining the
   best score. *)
let best_first ~max_specs ~session ~table ~prune ~score ~objective ~ces model
    board =
  let n = Cnn.Model.num_layers model in
  let b = Bounds.create table board in
  let ctx = Bounds.context b ~ces in
  let space =
    let total = ref 0 in
    for f = 1 to min (ces - 1) (n - 1) do
      let s = ces - f in
      if n - f >= s then
        total :=
          sat_add !total (Space.completions ~num_layers:n ~first:f ~segments:s)
    done;
    !total
  in
  let cap_total = min space max_specs in
  Mccm_obs.Metric.add c_exhaustive cap_total;
  let node_bound ~worst ~lat ~sq ~first ~segments =
    match objective with
    | `Throughput ->
      Bounds.partial_throughput_bound ctx ~worst_cycles:worst ~first ~segments
    | `Latency ->
      -.Bounds.partial_latency_bound ctx ~latency_cycles:lat ~sum_sqrt_macs:sq
          ~first
  in
  let heap =
    Util.Heap.create ~cmp:(fun a b ->
        match Float.compare b.nb_bound a.nb_bound with
        | 0 -> compare a.nb_rank b.nb_rank
        | c -> c)
  in
  let best = ref None in
  let evaluated = ref 0 and pruned = ref 0 and nodes = ref 0 in
  let cur () = match !best with Some (_, s, _) -> s | None -> neg_infinity in
  (* A subtree is dead when it cannot beat the incumbent even on the
     tie-break: its bound is strictly below, or exactly at the
     incumbent score with every rank in the subtree after the
     incumbent's (an equal-score leaf there loses the earlier-rank
     tie).  Admissible bounds make both cases exact, so pruning never
     changes the winner. *)
  let dead node =
    match !best with
    | None -> false
    | Some (_, s, r) ->
      node.nb_bound < s || (node.nb_bound = s && node.nb_rank > r)
  in
  let consider node =
    if prune && dead node then pruned := !pruned + node.nb_count
    else Util.Heap.push heap node
  in
  let rank = ref 0 in
  for f = 1 to min (ces - 1) (n - 1) do
    let s = ces - f in
    if n - f >= s then begin
      let raw = Space.completions ~num_layers:n ~first:f ~segments:s in
      let count =
        if !rank >= cap_total then 0 else min raw (cap_total - !rank)
      in
      if count > 0 then begin
        let hf = Bounds.head_ii_floor ctx ~f in
        let sq =
          sqrt (float_of_int (Cnn.Table.macs_range table ~first:0 ~last:(f - 1)))
        in
        consider
          {
            nb_bound = node_bound ~worst:hf ~lat:hf ~sq ~first:f ~segments:s;
            nb_rank = !rank;
            nb_count = count;
            nb_f = f;
            nb_rev = [];
            nb_next = f;
            nb_segments = s;
            nb_worst = hf;
            nb_lat = hf;
            nb_sq = sq;
          }
      end;
      rank := sat_add !rank raw
    end
  done;
  let expand node =
    let r = node.nb_next and m = node.nb_segments in
    let child_rank = ref node.nb_rank in
    (* Children in boundary order keep ranks equal to enumeration
       indices; later siblings only have larger ranks, so the cap cuts
       a suffix of them. *)
    (try
       for bnd = r + 1 to n - m + 1 do
         if !child_rank >= cap_total then raise Exit;
         let raw =
           Space.completions ~num_layers:n ~first:bnd ~segments:(m - 1)
         in
         let count = min raw (cap_total - !child_rank) in
         if count > 0 then begin
           let sf = Bounds.segment_ii_floor ctx ~first:r ~last:(bnd - 1) in
           let worst = Float.max node.nb_worst sf in
           let lat = node.nb_lat +. sf in
           let sq =
             node.nb_sq
             +. sqrt
                  (float_of_int
                     (Cnn.Table.macs_range table ~first:r ~last:(bnd - 1)))
           in
           consider
             {
               nb_bound =
                 node_bound ~worst ~lat ~sq ~first:bnd ~segments:(m - 1);
               nb_rank = !child_rank;
               nb_count = count;
               nb_f = node.nb_f;
               nb_rev = bnd :: node.nb_rev;
               nb_next = bnd;
               nb_segments = m - 1;
               nb_worst = worst;
               nb_lat = lat;
               nb_sq = sq;
             }
         end;
         child_rank := sat_add !child_rank raw
       done
     with Exit -> ())
  in
  let rec drain () =
    match Util.Heap.pop heap with
    | None -> ()
    | Some node ->
      incr nodes;
      if prune && dead node then begin
        (* The heap pops bounds in nonincreasing order (rank-ascending
           within a bound): every queued subtree is either strictly
           below the incumbent or an equal-bound later-rank tie loser.
           Flush and finish. *)
        pruned := !pruned + node.nb_count;
        let rec flush () =
          match Util.Heap.pop heap with
          | None -> ()
          | Some nd ->
            pruned := !pruned + nd.nb_count;
            flush ()
        in
        flush ()
      end
      else begin
        (if node.nb_segments = 1 then begin
           (* The last segment is forced: the node IS a complete spec. *)
           incr evaluated;
           let spec =
             {
               Arch.Custom.pipelined_layers = node.nb_f;
               tail_boundaries = List.rev node.nb_rev;
             }
           in
           let m =
             Mccm.Eval_session.metrics ~store_arch:false session
               (Arch.Custom.arch_of_spec model spec)
           in
           let s = score m in
           let c = cur () in
           let better =
             s > c
             || s = c && s > neg_infinity
                &&
                match !best with
                | Some (_, _, r) -> node.nb_rank < r
                | None -> false
           in
           if better then
             best := Some ({ Explore.spec; metrics = m }, s, node.nb_rank)
         end
         else expand node);
        drain ()
      end
  in
  drain ();
  Mccm_obs.Metric.add c_evaluated !evaluated;
  Mccm_obs.Metric.add c_pruned !pruned;
  Mccm_obs.Metric.add c_nodes !nodes;
  (match !best with
  | Some (_, s, _) when s > neg_infinity ->
    Mccm_obs.Metric.update_max g_best_objective s
  | _ -> ());
  ( Option.map (fun (e, _, _) -> e) !best,
    {
      enumerated = cap_total;
      evaluated = !evaluated;
      pruned = !pruned;
      nodes = !nodes;
      domains_used = 1;
    } )

(* Chunked scan over the flat spec rows (the multi-domain path, and
   the pruning-off reference). *)
let scan_best ~max_specs ~session ~table ~domains ~clamp ~pool ~prune ~score
    ~objective ~ces model board =
  let width = Space.Flat.width ~ces in
  let buf =
    Space.Flat.enumerate ~num_layers:(Cnn.Model.num_layers model) ~ces
      ~max_specs
  in
  let n = Space.Flat.count buf ~width in
  Mccm_obs.Metric.add c_exhaustive n;
  let b = Bounds.create table board in
  (* Hoisting the per-CE-count ctx takes the memo mutex out of the hot
     loop, and the flat bounds walk each row in place: a pruned
     candidate costs no allocation at all — rows are decoded to a spec
     only when they survive the bound and must be evaluated. *)
  let ctx = if prune then Some (Bounds.context b ~ces) else None in
  let bound =
    match (objective, ctx) with
    | _, None -> fun _ -> infinity
    | `Throughput, Some cx ->
      fun i -> Bounds.throughput_upper_bound_flat cx buf ~width i
    | `Latency, Some cx ->
      fun i -> -.(Bounds.latency_lower_bound_flat cx buf ~width i)
  in
  (* Scan a slice keeping a local incumbent (first strict maximum, like
     the sequential scan).  A spec is skipped when its admissible bound
     cannot strictly beat the incumbent; since every element of a chunk
     follows its own incumbent in global enumeration order, merging the
     chunk bests in chunk order on strict improvement reproduces the
     sequential unpruned scan's answer exactly — for any chunk count. *)
  let scan ~session ~lo ~hi =
    let best = ref None in
    let evaluated = ref 0 and pruned = ref 0 in
    for i = lo to hi - 1 do
      let cur =
        match !best with Some (_, s) -> s | None -> neg_infinity
      in
      if prune && bound i <= cur then incr pruned
      else begin
        incr evaluated;
        let spec = Space.Flat.decode buf ~width i in
        let m =
          Mccm.Eval_session.metrics ~store_arch:false session
            (Arch.Custom.arch_of_spec model spec)
        in
        let s = score m in
        if s > cur then best := Some ({ Explore.spec; metrics = m }, s)
      end
    done;
    (!best, !evaluated, !pruned)
  in
  let crew_size = ref 1 in
  let chunks =
    Crew.with_crew ?pool ?clamp ~domains session (fun crew ->
        crew_size := Crew.size crew;
        Crew.warmup crew (fun () ->
            warm_strided ~session ~buf ~width ~n model);
        Crew.map crew ~n scan)
  in
  let best, evaluated, pruned =
    List.fold_left
      (fun (best, ev, pr) (b, e, p) ->
        let best =
          match (best, b) with
          | None, b -> b
          | Some _, None -> best
          | Some (_, sb), Some (_, s) when s > sb -> b
          | Some _, Some _ -> best
        in
        (best, ev + e, pr + p))
      (None, 0, 0) chunks
  in
  Mccm_obs.Metric.add c_evaluated evaluated;
  Mccm_obs.Metric.add c_pruned pruned;
  (match best with
  | Some (_, s) when s > neg_infinity ->
    Mccm_obs.Metric.update_max g_best_objective s
  | _ -> ());
  ( Option.map fst best,
    { enumerated = n; evaluated; pruned; nodes = 0; domains_used = !crew_size }
  )

let exhaustive_best ?(max_specs = 20000) ?session ?(domains = 1) ?clamp ?pool
    ?(prune = true) ?(strategy = `Auto) ~objective ~ces model board =
  Mccm_obs.span ~cat:"dse" "dse.exhaustive_best" @@ fun () ->
  let session =
    session_or_fresh ~fn:"Enumerate.exhaustive_best" session model board
  in
  let table = Option.get (Mccm.Eval_session.table session) in
  let score m =
    if not m.Mccm.Metrics.feasible then neg_infinity
    else
      match objective with
      | `Throughput -> m.Mccm.Metrics.throughput_ips
      | `Latency -> -.m.Mccm.Metrics.latency_s
  in
  let use_best_first =
    match strategy with
    | `Best_first -> true
    | `Scan -> false
    | `Auto -> prune && domains = 1 && Option.is_none pool
  in
  if use_best_first then
    best_first ~max_specs ~session ~table ~prune ~score ~objective ~ces model
      board
  else
    scan_best ~max_specs ~session ~table ~domains ~clamp ~pool ~prune ~score
      ~objective ~ces model board

type step = {
  moved : string;
  spec : Arch.Custom.spec;
  metrics : Mccm.Metrics.t;
}

(* All one-move neighbours of a spec that remain in range. *)
let neighbours ~num_layers (spec : Arch.Custom.spec) =
  let f = spec.Arch.Custom.pipelined_layers in
  let bs = spec.Arch.Custom.tail_boundaries in
  let valid s =
    let rec ok prev = function
      | [] -> true
      | b :: rest -> b > prev && b < num_layers && ok b rest
    in
    s.Arch.Custom.pipelined_layers >= 1
    && s.Arch.Custom.pipelined_layers < num_layers
    && ok s.Arch.Custom.pipelined_layers s.Arch.Custom.tail_boundaries
  in
  let shift_boundary i delta =
    let bs' = List.mapi (fun j b -> if j = i then b + delta else b) bs in
    ( Printf.sprintf "shift boundary %d by %+d" (i + 1) delta,
      { Arch.Custom.pipelined_layers = f; tail_boundaries = bs' } )
  in
  let change_depth delta =
    ( Printf.sprintf "pipelined depth %+d" delta,
      { Arch.Custom.pipelined_layers = f + delta; tail_boundaries = bs } )
  in
  let split_largest =
    (* Insert a boundary in the middle of the widest tail segment. *)
    let edges = (f :: bs) @ [ num_layers ] in
    let rec widest best = function
      | a :: (b :: _ as rest) ->
        let best =
          match best with
          | Some (ba, bb) when bb - ba >= b - a -> best
          | _ -> Some (a, b)
        in
        widest best rest
      | _ -> best
    in
    match widest None edges with
    | Some (a, b) when b - a >= 2 ->
      let mid = (a + b) / 2 in
      [
        ( Printf.sprintf "split segment at L%d" (mid + 1),
          { Arch.Custom.pipelined_layers = f;
            tail_boundaries = List.sort compare (mid :: bs) } );
      ]
    | _ -> []
  in
  let merge_each =
    List.mapi
      (fun i _ ->
        ( Printf.sprintf "merge at boundary %d" (i + 1),
          { Arch.Custom.pipelined_layers = f;
            tail_boundaries = List.filteri (fun j _ -> j <> i) bs } ))
      bs
  in
  let shifts =
    List.concat
      (List.mapi (fun i _ -> [ shift_boundary i 1; shift_boundary i (-1) ]) bs)
  in
  List.filter
    (fun (_, s) -> valid s)
    (shifts @ [ change_depth 1; change_depth (-1) ] @ split_largest
    @ merge_each)

let local_search ~objective ?(max_steps = 25) ?session ?(domains = 1) ?clamp
    ?pool ?bound model board seed =
  Mccm_obs.span ~cat:"dse" "dse.local_search" @@ fun () ->
  let num_layers = Cnn.Model.num_layers model in
  let session =
    session_or_fresh ~fn:"Enumerate.local_search" session model board
  in
  (* A move touches one or two block boundaries, so re-evaluating a
     neighbour recomputes only the touched blocks; every other segment
     (and the climb's revisits of the current spec's neighbours) comes
     out of the session. *)
  let eval spec =
    Mccm.Eval_session.metrics session (Arch.Custom.arch_of_spec model spec)
  in
  let score m =
    if m.Mccm.Metrics.feasible then objective m else neg_infinity
  in
  (* One crew for the whole climb: the old path re-forked the session
     and re-spawned a domain per chunk on every single step.  Here the
     per-worker forks are cut once — after the seed evaluation has
     warmed the parent — and every step's neighbourhood is mapped as
     singleton chunks over the same crew. *)
  Crew.with_crew ?pool ?clamp ~domains session @@ fun crew ->
  let eval_all cands =
    List.concat
      (Crew.map crew ~chunk_hint:1 ~n:(Array.length cands)
         (fun ~session ~lo ~hi ->
           let out = ref [] in
           for i = lo to hi - 1 do
             let moved, c = cands.(i) in
             out :=
               ( moved,
                 c,
                 Mccm.Eval_session.metrics session
                   (Arch.Custom.arch_of_spec model c) )
               :: !out
           done;
           List.rev !out))
  in
  let rec climb spec metrics steps_left trajectory =
    if steps_left = 0 then List.rev trajectory
    else begin
      let current = score metrics in
      if current > neg_infinity then
        Mccm_obs.Metric.update_max g_best_objective current;
      let neigh = neighbours ~num_layers spec in
      Mccm_obs.Metric.incr c_steps;
      Mccm_obs.Metric.observe h_neighbourhood
        (float_of_int (List.length neigh));
      (* A neighbour is accepted only on a strict improvement over
         [current], so one whose admissible score bound cannot exceed
         [current] is skipped without evaluation — the selection below
         would have dropped it anyway. *)
      let cands =
        match bound with
        | None -> Array.of_list neigh
        | Some b ->
          let kept =
            List.filter (fun (_, c) -> not (b c <= current)) neigh
          in
          Mccm_obs.Metric.add c_ls_pruned
            (List.length neigh - List.length kept);
          Array.of_list kept
      in
      let evaluated = eval_all cands in
      let best =
        List.fold_left
          (fun acc (moved, candidate, m) ->
            let s = score m in
            match acc with
            | Some (_, _, sb) when sb >= s -> acc
            | _ when s > current -> Some ((moved, candidate, m), m, s)
            | _ -> acc)
          None evaluated
      in
      match best with
      | None -> List.rev trajectory
      | Some ((moved, spec', m), _, _) ->
        climb spec' m (steps_left - 1)
          ({ moved; spec = spec'; metrics = m } :: trajectory)
    end
  in
  let m0 = eval seed in
  climb seed m0 max_steps [ { moved = "seed"; spec = seed; metrics = m0 } ]
