type ctx = {
  case : Case.t;
  built : Builder.Build.t;
  model_eval : Mccm.Evaluate.t;
  sim_real : Sim.Simulate.t;
  sim_ideal : Sim.Simulate.t;
}

type outcome = Pass | Skip of string | Fail of string

type t = { name : string; check : ctx -> outcome }

let context case =
  let archi = Case.materialize case in
  let built = Builder.Build.build case.Case.model case.Case.board archi in
  {
    case;
    built;
    model_eval = Mccm.Evaluate.run built;
    sim_real = Sim.Simulate.run built;
    sim_ideal = Sim.Simulate.run ~cfg:Sim.Sim_config.ideal built;
  }

let feasible ctx = ctx.model_eval.Mccm.Evaluate.metrics.Mccm.Metrics.feasible

let rebuild_scaled ctx ?dsps_x ?bram_x ?bw_x () =
  let board = Case.scale_board ?dsps_x ?bram_x ?bw_x ctx.case.Case.board in
  Builder.Build.build ctx.case.Case.model board (Case.materialize ctx.case)

(* Tile geometry of a plan, ignoring retention and capacity grants: when
   it is unchanged across a board scaling, the access model is provably
   monotone (the DP only gains options), so those comparisons run with
   zero tolerance. *)
let tiling_shape (d : Builder.Build.t) =
  Array.to_list
    (Array.map
       (function
         | Builder.Buffer_alloc.Plan_single s ->
           `S s.Builder.Buffer_alloc.weights_tile_bytes
         | Builder.Buffer_alloc.Plan_pipelined p ->
           `P
             ( Array.to_list p.Builder.Buffer_alloc.tile_rows,
               p.Builder.Buffer_alloc.width_split ))
       d.Builder.Build.plan.Builder.Buffer_alloc.block_plans)

let same_plan (a : Builder.Build.t) (b : Builder.Build.t) =
  a.Builder.Build.plan = b.Builder.Build.plan

let latency_of e = e.Mccm.Evaluate.metrics.Mccm.Metrics.latency_s
let accesses_of e = Mccm.Metrics.accesses_bytes e.Mccm.Evaluate.metrics

let sanity =
  {
    name = "sanity";
    check =
      (fun ctx ->
        let m = ctx.model_eval.Mccm.Evaluate.metrics in
        let bad name v =
          if Float.is_nan v || v <= 0.0 then Some (name, v) else None
        in
        match
          List.find_map
            (fun (n, v) -> bad n v)
            [
              ("latency", m.Mccm.Metrics.latency_s);
              ("throughput", m.Mccm.Metrics.throughput_ips);
            ]
        with
        | Some (n, v) -> Fail (Printf.sprintf "%s = %g" n v)
        | None ->
          if
            m.Mccm.Metrics.feasible
            && m.Mccm.Metrics.buffer_bytes
               > ctx.case.Case.board.Platform.Board.bram_bytes
          then
            Fail
              (Printf.sprintf "feasible but buffers %d > BRAM %d"
                 m.Mccm.Metrics.buffer_bytes
                 ctx.case.Case.board.Platform.Board.bram_bytes)
          else Pass);
  }

let sim_dominates =
  {
    name = "sim-dominates";
    check =
      (fun ctx ->
        let m = ctx.model_eval.Mccm.Evaluate.metrics in
        let s = ctx.sim_real.Sim.Simulate.metrics in
        if
          s.Mccm.Metrics.latency_s
          < m.Mccm.Metrics.latency_s *. (1.0 -. 1e-9)
        then
          Fail
            (Printf.sprintf "sim latency %g below analytical bound %g"
               s.Mccm.Metrics.latency_s m.Mccm.Metrics.latency_s)
        else if
          Mccm.Metrics.accesses_bytes s <> Mccm.Metrics.accesses_bytes m
        then
          Fail
            (Printf.sprintf "sim accesses %d <> analytical %d"
               (Mccm.Metrics.accesses_bytes s)
               (Mccm.Metrics.accesses_bytes m))
        else if s.Mccm.Metrics.buffer_bytes < m.Mccm.Metrics.buffer_bytes then
          Fail
            (Printf.sprintf "sim buffers %d below analytical %d"
               s.Mccm.Metrics.buffer_bytes m.Mccm.Metrics.buffer_bytes)
        else Pass);
  }

let envelope_check name bounds metrics_of =
  {
    name;
    check =
      (fun ctx ->
        let e =
          Envelope.errors
            ~model:ctx.model_eval.Mccm.Evaluate.metrics
            ~sim:(metrics_of ctx)
        in
        match Envelope.violations bounds e with
        | [] -> Pass
        | vs ->
          Fail
            (String.concat "; "
               (List.map
                  (fun (metric, err, bound) ->
                    Printf.sprintf "%s error %.3g > %.3g" metric err bound)
                  vs)));
  }

let ideal_exact =
  envelope_check "ideal-exact" Envelope.exact (fun ctx ->
      ctx.sim_ideal.Sim.Simulate.metrics)

(* Below this analytical latency the workload is overhead-dominated:
   fixed per-layer setup and per-tile sync costs swamp the transfer and
   compute terms the model captures, and relative errors are unbounded
   (a 4-layer 8x8 network is all setup).  The envelope is documented
   for, and enforced on, workloads at realistic scale only. *)
let envelope_latency_floor_s = 1e-3

let realistic_envelope bounds =
  let e = envelope_check "realistic-envelope" bounds (fun ctx ->
      ctx.sim_real.Sim.Simulate.metrics)
  in
  {
    e with
    check =
      (fun ctx ->
        let l = latency_of ctx.model_eval in
        if l < envelope_latency_floor_s then
          Skip
            (Printf.sprintf
               "overhead-dominated workload (latency %g s below %g s floor)" l
               envelope_latency_floor_s)
        else e.check ctx);
  }

let mono_bandwidth =
  {
    name = "mono-bandwidth";
    check =
      (fun ctx ->
        if not (feasible ctx) then Skip "infeasible base design"
        else begin
          let scaled = Mccm.Evaluate.run (rebuild_scaled ctx ~bw_x:2.0 ()) in
          let l0 = latency_of ctx.model_eval and l1 = latency_of scaled in
          let mb e =
            Mccm.Breakdown.memory_bound_count e.Mccm.Evaluate.breakdown
          in
          if l1 > l0 *. (1.0 +. 1e-9) then
            Fail (Printf.sprintf "2x bandwidth: latency %g -> %g" l0 l1)
          else if mb scaled > mb ctx.model_eval then
            Fail
              (Printf.sprintf "2x bandwidth: memory-bound segments %d -> %d"
                 (mb ctx.model_eval) (mb scaled))
          else Pass
        end);
  }

let mono_dsps ~replan_slack =
  {
    name = "mono-dsps";
    check =
      (fun ctx ->
        if not (feasible ctx) then Skip "infeasible base design"
        else begin
          let built = rebuild_scaled ctx ~dsps_x:2 () in
          let scaled = Mccm.Evaluate.run built in
          let l0 = latency_of ctx.model_eval and l1 = latency_of scaled in
          if same_plan ctx.built built then
            if l1 > l0 *. (1.0 +. 1e-9) then
              Fail
                (Printf.sprintf "2x DSPs, same plan: latency %g -> %g" l0 l1)
            else Pass
          else if l1 > l0 *. (1.0 +. replan_slack) then
            Fail
              (Printf.sprintf
                 "2x DSPs: latency %g -> %g (+%.1f%%, replanned, slack %.0f%%)"
                 l0 l1
                 (100.0 *. ((l1 /. l0) -. 1.0))
                 (100.0 *. replan_slack))
          else Pass
        end);
  }

let mono_bram ~replan_slack =
  {
    name = "mono-bram";
    check =
      (fun ctx ->
        if not (feasible ctx) then Skip "infeasible base design"
        else begin
          let built = rebuild_scaled ctx ~bram_x:2 () in
          let scaled = Mccm.Evaluate.run built in
          let a0 = accesses_of ctx.model_eval and a1 = accesses_of scaled in
          if tiling_shape ctx.built = tiling_shape built then
            if a1 > a0 then
              Fail
                (Printf.sprintf "2x BRAM, same tiling: accesses %d -> %d" a0
                   a1)
            else Pass
          else if float_of_int a1 > float_of_int a0 *. (1.0 +. replan_slack)
          then
            Fail
              (Printf.sprintf
                 "2x BRAM: accesses %d -> %d (+%.1f%%, replanned, slack %.0f%%)"
                 a0 a1
                 (100.0 *. ((float_of_int a1 /. float_of_int a0) -. 1.0))
                 (100.0 *. replan_slack))
          else Pass
        end);
  }

let cache_exact =
  {
    name = "cache-exact";
    check =
      (fun ctx ->
        (* Run the case twice through a fresh memoized session: the first
           evaluation exercises the segment/plan caches bottom-up, the
           second is a whole-architecture hit.  Both must equal the
           uncached reference bit for bit — the session contract is that
           caching is semantically invisible. *)
        let session =
          Mccm.Eval_session.create ctx.case.Case.model ctx.case.Case.board
        in
        let archi = Case.materialize ctx.case in
        let cold = Mccm.Eval_session.metrics session archi in
        let warm = Mccm.Eval_session.metrics session archi in
        let reference = ctx.model_eval.Mccm.Evaluate.metrics in
        if cold <> reference then
          Fail "cold cached metrics differ from uncached evaluation"
        else if warm <> reference then
          Fail "memoized metrics differ from uncached evaluation"
        else Pass);
  }

let default_suite ?(envelope = Envelope.default) ?(replan_slack = 0.5) () =
  [
    sanity;
    cache_exact;
    sim_dominates;
    ideal_exact;
    realistic_envelope envelope;
    mono_bandwidth;
    mono_dsps ~replan_slack;
    mono_bram ~replan_slack;
  ]
