type evaluated = { spec : Arch.Custom.spec; metrics : Mccm.Metrics.t }

type result = {
  sampled : int;
  distinct : int;
  evaluated : evaluated list;
  front : evaluated Pareto.point list;
  elapsed_s : float;
  stats : Mccm.Eval_session.stats;
}

let c_sampled = Mccm_obs.Metric.counter "dse.sampled"
let c_distinct = Mccm_obs.Metric.counter "dse.distinct"
let c_duplicates = Mccm_obs.Metric.counter "dse.duplicates"
let c_feasible = Mccm_obs.Metric.counter "dse.feasible"
let g_best = Mccm_obs.Metric.gauge "dse.best_throughput_ips"

let point (e : evaluated) =
  {
    Pareto.item = e;
    objective_up = e.metrics.Mccm.Metrics.throughput_ips;
    objective_down = float_of_int e.metrics.Mccm.Metrics.buffer_bytes;
  }

(* Evaluate a contiguous slice of the distinct spec array, keeping
   draw order; the feasibility split happens later, on assembly. *)
let eval_slice ~session ~specs ~lo ~hi model =
  Mccm_obs.span ~cat:"dse" "dse.eval_slice"
    ~args:[ ("designs", string_of_int (hi - lo)) ]
  @@ fun () ->
  let evaluated = ref [] in
  for i = lo to hi - 1 do
    let spec = specs.(i) in
    let archi = Arch.Custom.arch_of_spec model spec in
    let metrics = Mccm.Eval_session.metrics session archi in
    evaluated := { spec; metrics } :: !evaluated
  done;
  List.rev !evaluated

let run ?(seed = 42L) ?(ce_counts = Arch.Baselines.default_ce_counts)
    ?(domains = 1) ?clamp ?pool ?session ~samples model board =
  if samples <= 0 then invalid_arg "Explore.run: non-positive sample count";
  if domains <= 0 then invalid_arg "Explore.run: non-positive domain count";
  let session =
    match session with
    | None -> Mccm.Eval_session.create model board
    | Some s ->
      Mccm.Eval_session.check ~fn:"Explore.run" s model board;
      s
  in
  let started = Unix.gettimeofday () in
  (* Sampling is decoupled from evaluation: the whole design set is drawn
     up front from one PRNG stream, so the sampled set — and hence the
     result — depends only on [seed], never on how many domains evaluate
     it (evaluation itself is pure).  Only each distinct design's first
     occurrence is kept, in draw order, so each is evaluated once. *)
  let specs =
    Mccm_obs.span ~cat:"dse" "dse.draw" (fun () ->
        let rng = Util.Prng.create ~seed in
        let num_layers = Cnn.Model.num_layers model in
        let seen = Hashtbl.create (2 * samples) in
        let fresh = ref [] in
        for _ = 1 to samples do
          let spec = Space.random_spec rng ~num_layers ~ce_counts in
          if not (Hashtbl.mem seen spec) then begin
            Hashtbl.add seen spec ();
            fresh := spec :: !fresh
          end
        done;
        Array.of_list (List.rev !fresh))
  in
  let distinct = Array.length specs in
  Mccm_obs.Metric.add c_sampled samples;
  Mccm_obs.Metric.add c_distinct distinct;
  Mccm_obs.Metric.add c_duplicates (samples - distinct);
  let all, stats =
    Mccm_obs.span ~cat:"dse" "dse.eval"
      ~args:[ ("designs", string_of_int distinct) ]
    @@ fun () ->
    (* Contiguous chunks, concatenated back in order.  Each pool worker
       evaluates on its own session (the tables are not thread-safe):
       worker 0 on the caller's, the others on siblings dropped at the
       end.  Caching is bit-invisible, hence the result stays
       independent of the domain count, the pool and the chunking. *)
    Crew.with_crew ?pool ?clamp ~domains session (fun crew ->
        let all =
          List.concat
            (Crew.map crew ~n:distinct (fun ~session ~lo ~hi ->
                 eval_slice ~session ~specs ~lo ~hi model))
        in
        (all, Crew.stats crew))
  in
  let evaluated = List.filter (fun e -> e.metrics.Mccm.Metrics.feasible) all in
  List.iter
    (fun e ->
      Mccm_obs.Metric.incr c_feasible;
      Mccm_obs.Metric.update_max g_best e.metrics.Mccm.Metrics.throughput_ips)
    evaluated;
  let elapsed_s = Unix.gettimeofday () -. started in
  {
    sampled = samples;
    distinct;
    evaluated;
    front = Pareto.front (List.map point evaluated);
    elapsed_s;
    stats;
  }

let improvement_over r ~reference =
  let ref_thr = reference.Mccm.Metrics.throughput_ips in
  let ref_buf = float_of_int reference.Mccm.Metrics.buffer_bytes in
  let matching_thr =
    List.filter
      (fun e -> e.metrics.Mccm.Metrics.throughput_ips >= ref_thr)
      r.evaluated
  in
  let no_buf_increase =
    List.filter
      (fun e -> float_of_int e.metrics.Mccm.Metrics.buffer_bytes <= ref_buf)
      r.evaluated
  in
  if matching_thr = [] && no_buf_increase = [] then None
  else begin
    let buffer_reduction =
      match matching_thr with
      | [] -> 0.0
      | es ->
        let best =
          Util.Stats.minimum
            (List.map
               (fun e -> float_of_int e.metrics.Mccm.Metrics.buffer_bytes)
               es)
        in
        Float.max 0.0 (1.0 -. (best /. ref_buf))
    in
    let throughput_gain =
      match no_buf_increase with
      | [] -> 0.0
      | es ->
        let best =
          Util.Stats.maximum
            (List.map (fun e -> e.metrics.Mccm.Metrics.throughput_ips) es)
        in
        Float.max 0.0 ((best /. ref_thr) -. 1.0)
    in
    Some (buffer_reduction, throughput_gain)
  end
