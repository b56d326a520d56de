(* Exhaustive enumeration, the bound-pruned exhaustive search, and
   hill-climbing over custom specs. *)

let h_neighbourhood = Mccm_obs.Metric.histogram "dse.neighbourhood_size"
let c_steps = Mccm_obs.Metric.counter "dse.local_search.steps"
let c_exhaustive = Mccm_obs.Metric.counter "dse.exhaustive.specs"
let c_evaluated = Mccm_obs.Metric.counter "dse.exhaustive.evaluated"
let c_pruned = Mccm_obs.Metric.counter "dse.exhaustive.pruned"
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
      let metrics = Mccm.Eval_session.metrics session archi in
      if metrics.Mccm.Metrics.feasible then
        out := { Explore.spec; metrics } :: !out
    done;
    List.rev !out
  in
  Crew.with_crew ?pool ?clamp ~domains session (fun crew ->
      List.concat (Crew.map crew ~n eval_slice))

type objective = [ `Throughput | `Latency ]

type search_stats = {
  enumerated : int;
  evaluated : int;
  pruned : int;
  nodes : int;
  domains_used : int;
}

(* A chunked scan over the flat spec rows.  [strategy] is ignored; see
   the interface. *)
let exhaustive_best ?(max_specs = 20000) ?session ?(domains = 1) ?clamp ?pool
    ?(prune = true) ?strategy:_ ~objective ~ces model board =
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
  let width = Space.Flat.width ~ces in
  let buf =
    Space.Flat.enumerate ~num_layers:(Cnn.Model.num_layers model) ~ces
      ~max_specs
  in
  let n = Space.Flat.count buf ~width in
  Mccm_obs.Metric.add c_exhaustive n;
  (* One ctx for the scan, and the flat bounds walk each row in place:
     a pruned candidate costs no allocation at all — rows are decoded to
     a spec only when they survive the bound and must be evaluated. *)
  let ctx =
    if prune then Some (Bounds.context (Bounds.create table board) ~ces)
    else None
  in
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
          Mccm.Eval_session.metrics session
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
    ?pool model board seed =
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
  (* One crew for the whole climb: domains spawn and worker sessions
     are made once, and every step's neighbourhood is mapped as
     singleton chunks over the same crew, so each worker's session
     keeps what it learned in earlier steps. *)
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
      let evaluated = eval_all (Array.of_list neigh) in
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
