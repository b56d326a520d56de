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

(* Evaluate a contiguous slice of the pre-drawn spec array, keeping
   draw order.  Every draw goes through the session — a duplicate is
   exactly the arch-cache hit the session exists to serve — and the
   feasibility split happens later, on assembly. *)
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
     it (evaluation itself is pure). *)
  let drawn =
    Mccm_obs.span ~cat:"dse" "dse.draw" (fun () ->
        let rng = Util.Prng.create ~seed in
        let num_layers = Cnn.Model.num_layers model in
        Array.init samples (fun _ ->
            Space.random_spec rng ~num_layers ~ce_counts))
  in
  Mccm_obs.Metric.add c_sampled samples;
  (* Every draw is evaluated through the session: a repeated spec is an
     arch-cache hit, not a precomputed skip, so the session's hit-rate
     statistics measure real duplication and a warm session keeps paying
     off across runs.  Dedup happens on assembly below. *)
  let all =
    Mccm_obs.span ~cat:"dse" "dse.eval"
      ~args:[ ("designs", string_of_int samples) ]
    @@ fun () ->
    (* Contiguous chunks, concatenated back in order.  Each pool worker
       evaluates on its own session fork (the tables are not
       thread-safe), cut once per run after a sequential strided
       warm-up; forks merge back at the end, so a session reused across
       runs keeps learning.  Caching is bit-invisible, hence the result
       stays independent of the domain count, the pool and the
       chunking. *)
    Crew.with_crew ?pool ?clamp ~domains session (fun crew ->
        Crew.warmup crew (fun () ->
            let stride = max 1 (samples / 16) in
            let i = ref 0 in
            while !i < samples do
              ignore
                (Mccm.Eval_session.metrics session
                   (Arch.Custom.arch_of_spec model drawn.(!i)));
              i := !i + stride
            done);
        List.concat
          (Crew.map crew ~n:samples (fun ~session ~lo ~hi ->
               eval_slice ~session ~specs:drawn ~lo ~hi model)))
  in
  (* Keep each distinct design's first occurrence; feasible ones make
     the result.  [sampled] still counts every draw, so the dedup ratio
     and the seed-determinism contract are unchanged. *)
  let seen = Hashtbl.create (2 * samples) in
  let evaluated =
    List.filter
      (fun e ->
        if Hashtbl.mem seen e.spec then false
        else begin
          Hashtbl.add seen e.spec ();
          if e.metrics.Mccm.Metrics.feasible then begin
            Mccm_obs.Metric.incr c_feasible;
            Mccm_obs.Metric.update_max g_best
              e.metrics.Mccm.Metrics.throughput_ips;
            true
          end
          else false
        end)
      all
  in
  let distinct = Hashtbl.length seen in
  Mccm_obs.Metric.add c_distinct distinct;
  Mccm_obs.Metric.add c_duplicates (samples - distinct);
  let elapsed_s = Unix.gettimeofday () -. started in
  {
    sampled = samples;
    distinct;
    evaluated;
    front = Pareto.front (List.map point evaluated);
    elapsed_s;
    stats = Mccm.Eval_session.stats session;
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
