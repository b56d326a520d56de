(* A session binds one (model, board, build options) triple and layers
   two content-keyed memo tables under the end-to-end evaluation:

   - {!Seg_cache}, sharing per-segment model results between distinct
     architectures that agree on a block (layer range + engines + plan
     slice + boundary flags);
   - {!Builder.Build}'s build-time cache, sharing planning floors and
     per-CE parallelism choices between such blocks at build time.

   A revisit of a whole architecture hits both tables in every block.
   Because every key carries its full structural payload, a hit is
   bit-identical to recomputation; the session changes wall-clock only. *)

(* A global observability counter next to the per-session ones: the
   per-session stats stay the API; this one feeds `mccm --stats` and
   the bench phase breakdown across every session in the process. *)
let c_evals = Mccm_obs.Metric.counter "session.evaluations"

type t = {
  model : Cnn.Model.t;
  board : Platform.Board.t;
  options : Builder.Build.options;
  memoize : bool;
  table : Cnn.Table.t;
  seg : Seg_cache.t;
  bcache : Builder.Build.cache;
  mutable n_evals : int;
}

type stats = {
  evaluations : int;
  arch_hits : int;
  seg_hits : int;
  seg_misses : int;
  seg_single : int * int;
  seg_pipelined : int * int;
  plan_hits : int;
  plan_misses : int;
}

let create ?(options = Builder.Build.default_options) ?(memoize = true) model
    board =
  {
    model;
    board;
    options;
    memoize;
    table = Cnn.Table.of_model model;
    seg = Seg_cache.create ();
    bcache = Builder.Build.create_cache ();
    n_evals = 0;
  }

let model t = t.model
let board t = t.board
let memoized t = t.memoize
let table t = Some t.table

let check ~fn t model board =
  if t.model <> model then
    invalid_arg (fn ^ ": session bound to a different model");
  if t.board <> board then
    invalid_arg (fn ^ ": session bound to a different board")

let evaluate t archi =
  t.n_evals <- t.n_evals + 1;
  Mccm_obs.Metric.incr c_evals;
  if not t.memoize then
    Evaluate.run
      (Builder.Build.build ~options:t.options ~table:t.table t.model t.board
         archi)
  else
    Evaluate.run ~cache:t.seg
      (Builder.Build.build ~options:t.options ~cache:t.bcache ~table:t.table
         t.model t.board archi)

let metrics t archi = (evaluate t archi).Evaluate.metrics

let sibling t =
  {
    t with
    seg = Seg_cache.create ();
    bcache = Builder.Build.create_cache ();
    n_evals = 0;
  }

let stats t =
  {
    evaluations = t.n_evals;
    arch_hits = 0;
    seg_hits = Seg_cache.hits t.seg;
    seg_misses = Seg_cache.misses t.seg;
    seg_single = Seg_cache.single_counts t.seg;
    seg_pipelined = Seg_cache.pipelined_counts t.seg;
    plan_hits =
      Builder.Buffer_alloc.cache_hits (Builder.Build.plan_cache t.bcache);
    plan_misses =
      Builder.Buffer_alloc.cache_misses (Builder.Build.plan_cache t.bcache);
  }

let pp_stats ppf s =
  Format.fprintf ppf "@[<h>%d evals: %d/%d segment hits, %d/%d plan hits@]"
    s.evaluations s.seg_hits (s.seg_hits + s.seg_misses) s.plan_hits
    (s.plan_hits + s.plan_misses)
