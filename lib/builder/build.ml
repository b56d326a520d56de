type options = {
  parallelism : [ `Optimized | `Naive ];
  pe_allocation : [ `Proportional | `Balanced ];
  buffers : [ `Greedy | `Minimal ];
}

let default_options =
  { parallelism = `Optimized; pe_allocation = `Proportional; buffers = `Greedy }

type built_block =
  | Built_single of { engine : Engine.Ce.t; first : int; last : int }
  | Built_pipelined of {
      engines : Engine.Ce.t array;
      first : int;
      last : int;
    }

type t = {
  model : Cnn.Model.t;
  table : Cnn.Table.t;
  board : Platform.Board.t;
  archi : Arch.Block.arch;
  engines : Engine.Ce.t array;
  blocks : built_block array;
  plan : Buffer_alloc.t;
}

(* Largest cube edge fitting the PE count: the strawman parallelism the
   ablations compare against. *)
let naive_parallelism pes =
  let s = ref 1 in
  while (!s + 1) * (!s + 1) * (!s + 1) <= pes do
    incr s
  done;
  Engine.Parallelism.three_d ~filters:!s ~height:!s ~width:!s

(* Build-time memo shared across calls scoped to one (model, board,
   options) triple by its owner ({!Mccm.Eval_session}): the
   {!Buffer_alloc} planning floors, plus the parallelism chosen for a
   CE's layer assignment.  The parallelism key is the assignment's
   descriptor — (kind, block first/last, slot, slot count, PE count) —
   which fully determines the layer list, so the per-call construction
   of the layers and of {!Parallelism_select}'s loop-extent signature is
   skipped entirely on a hit.  Only the chosen {!Engine.Parallelism.t}
   is cached; the {!Engine.Ce.t} is rebuilt per call so display ids
   stay correct. *)
type cache = {
  c_plans : Buffer_alloc.cache;
  c_pars : (int * int * int * int * int * int, Engine.Parallelism.t) Hashtbl.t;
}

let create_cache () =
  { c_plans = Buffer_alloc.create_cache (); c_pars = Hashtbl.create 64 }

let plan_cache c = c.c_plans

let c_builds = Mccm_obs.Metric.counter "build.builds"

let build ?(options = default_options) ?cache ?table model board archi =
  Mccm_obs.span ~cat:"build" "build.build" @@ fun () ->
  Mccm_obs.Metric.incr c_builds;
  let table =
    match table with
    | Some t ->
      Cnn.Table.check t model;
      t
    | None -> Cnn.Table.of_model model
  in
  let blocks = Array.of_list archi.Arch.Block.blocks in
  let num_ces = Arch.Block.total_ces archi in
  let layer_lists = Array.make num_ces [] in
  let in_pipeline = Array.make num_ces false in
  (* Per-CE assignment descriptor, the parallelism-memo key prefix. *)
  let desc = Array.make num_ces (0, 0, 0, 0, 0) in
  Array.iter
    (function
      | Arch.Block.Single { ce; first; last } ->
        layer_lists.(ce) <- List.init (last - first + 1) (fun k -> first + k);
        desc.(ce) <- (0, first, last, 0, 1)
      | Arch.Block.Pipelined { ce_first; ce_last; first; last } ->
        let ces = ce_last - ce_first + 1 in
        let slots = Workload.pipelined_assignment ~ces ~first ~last in
        Array.iteri
          (fun s ls ->
            layer_lists.(ce_first + s) <- ls;
            in_pipeline.(ce_first + s) <- true;
            desc.(ce_first + s) <- (1, first, last, s, ces))
          slots)
    blocks;
  let macs_of ls =
    List.fold_left (fun a i -> a + Cnn.Table.macs table i) 0 ls
  in
  let make_engines pes =
    Array.init num_ces (fun ce ->
        let parallelism =
          match options.parallelism with
          | `Naive -> naive_parallelism pes.(ce)
          | `Optimized -> (
            let compute () =
              Mccm_obs.span ~cat:"build" "build.parallelism_select"
                (fun () ->
                  Parallelism_select.choose_indices ~pes:pes.(ce) table
                    layer_lists.(ce))
            in
            match cache with
            | None -> compute ()
            | Some c -> (
              let kind, first, last, slot, ces = desc.(ce) in
              let key = (kind, first, last, slot, ces, pes.(ce)) in
              match Hashtbl.find_opt c.c_pars key with
              | Some p -> p
              | None ->
                let p = compute () in
                Hashtbl.add c.c_pars key p;
                p))
        in
        Engine.Ce.v ~id:(ce + 1) ~pes:pes.(ce) ~parallelism
          ~dataflow:
            (if in_pipeline.(ce) then Engine.Dataflow.Weight_stationary
             else Engine.Dataflow.Output_stationary))
  in
  let workloads = Array.map macs_of layer_lists in
  let engines =
    ref
      (make_engines
         (Pe_allocation.distribute ~budget:board.Platform.Board.dsps
            ~workloads))
  in
  (match options.pe_allocation with
  | `Proportional -> ()
  | `Balanced ->
    (* Redistribute PEs proportionally to each engine's modelled busy
       work (cycles x PEs approximates its PE-invariant load), keeping a
       redistribution only while the busiest/laziest spread shrinks. *)
    let cycles es =
      Array.init num_ces (fun ce ->
          List.fold_left
            (fun a i -> a + Engine.Ce.layer_cycles_at es.(ce) table i)
            0 layer_lists.(ce))
    in
    let spread cyc =
      let busiest = Array.fold_left max 1 cyc in
      let laziest =
        Array.fold_left (fun a c -> if c > 0 then min a c else a) busiest cyc
      in
      float_of_int busiest /. float_of_int (max 1 laziest)
    in
    let best = ref (spread (cycles !engines)) in
    (try
       for _pass = 1 to 3 do
         let cyc = cycles !engines in
         let wl =
           Array.init num_ces (fun ce ->
               max 1 cyc.(ce) * (!engines).(ce).Engine.Ce.pes)
         in
         let es =
           make_engines
             (Pe_allocation.distribute ~budget:board.Platform.Board.dsps
                ~workloads:wl)
         in
         let sp = spread (cycles es) in
         if sp < !best then begin
           engines := es;
           best := sp
         end
         else raise Exit
       done
     with Exit -> ()));
  let engines = !engines in
  let built_blocks =
    Array.map
      (function
        | Arch.Block.Single { ce; first; last } ->
          Built_single { engine = engines.(ce); first; last }
        | Arch.Block.Pipelined { ce_first; ce_last; first; last } ->
          Built_pipelined
            { engines = Array.sub engines ce_first (ce_last - ce_first + 1);
              first; last })
      blocks
  in
  let plan =
    Mccm_obs.span ~cat:"build" "build.plan" (fun () ->
        Buffer_alloc.plan
          ~minimal:(options.buffers = `Minimal)
          ?cache:(Option.map plan_cache cache) ~table board archi ~engines)
  in
  { model; table; board; archi; engines; blocks = built_blocks; plan }

let engine_for_layer t i =
  let rec find bi =
    if bi >= Array.length t.blocks then
      invalid_arg
        (Printf.sprintf "Build.engine_for_layer: layer %d out of range" i)
    else
      match t.blocks.(bi) with
      | Built_single { engine; first; last } when i >= first && i <= last ->
        engine
      | Built_pipelined { engines; first; last } when i >= first && i <= last
        ->
        engines.((i - first) mod Array.length engines)
      | _ -> find (bi + 1)
  in
  find 0

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@,board: %a@,engines:" Arch.Block.pp t.archi
    Platform.Board.pp t.board;
  Array.iter (fun e -> Format.fprintf ppf "@,  %a" Engine.Ce.pp e) t.engines;
  Format.fprintf ppf "@,buffers: %d / %d bytes%s@]"
    t.plan.Buffer_alloc.total_bytes t.board.Platform.Board.bram_bytes
    (if t.plan.Buffer_alloc.feasible then "" else " (infeasible)")
