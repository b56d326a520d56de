(* A session binds one (model, board, build options) triple and layers
   three content-keyed memo tables under the end-to-end evaluation:

   - a whole-architecture table keyed by the block structure (the
     display name is excluded — nothing the evaluator computes reads
     it), which turns revisits of the same candidate into a lookup;
   - {!Seg_cache}, sharing per-segment model results between distinct
     architectures that agree on a block (layer range + engines + plan
     slice + boundary flags);
   - {!Builder.Build}'s build-time cache, sharing planning floors and
     per-CE parallelism choices between such blocks at build time.

   Because every key carries its full structural payload, a hit is
   bit-identical to recomputation; the session changes wall-clock only. *)

module Fp = Util.Fingerprint

(* Global observability counters next to the per-session ones: the
   per-session stats stay the API (fork/absorb keeps them exact per
   session); these feed `mccm --stats` and the bench phase breakdown
   across every session in the process. *)
let c_evals = Mccm_obs.Metric.counter "session.evaluations"
let c_arch_hit = Mccm_obs.Metric.counter "session.arch.hit"
let c_arch_miss = Mccm_obs.Metric.counter "session.arch.miss"

type arch_key = {
  a_fp : int;
  a_style : Arch.Block.style;
  a_blocks : Arch.Block.t list;
  a_coarse : bool;
}

let fp_block h = function
  | Arch.Block.Single { ce; first; last } ->
    List.fold_left Fp.int (Fp.int h 0) [ ce; first; last ]
  | Arch.Block.Pipelined { ce_first; ce_last; first; last } ->
    List.fold_left Fp.int (Fp.int h 1) [ ce_first; ce_last; first; last ]

let arch_key (a : Arch.Block.arch) =
  let h = Fp.empty in
  let h =
    Fp.int h
      (match a.Arch.Block.style with
      | Arch.Block.Segmented -> 0
      | Arch.Block.Segmented_rr -> 1
      | Arch.Block.Hybrid -> 2
      | Arch.Block.Custom -> 3)
  in
  let h = Fp.bool h a.Arch.Block.coarse_pipelined in
  let h = Fp.list fp_block h a.Arch.Block.blocks in
  { a_fp = Fp.to_int h; a_style = a.Arch.Block.style;
    a_blocks = a.Arch.Block.blocks; a_coarse = a.Arch.Block.coarse_pipelined }

module Arch_tbl = Hashtbl.Make (struct
  type t = arch_key

  let hash k = k.a_fp

  let equal x y =
    x.a_fp = y.a_fp && x.a_coarse = y.a_coarse && x.a_style = y.a_style
    && x.a_blocks = y.a_blocks
end)

type t = {
  model : Cnn.Model.t;
  board : Platform.Board.t;
  options : Builder.Build.options;
  memoize : bool;
  table : Cnn.Table.t;
  seg : Seg_cache.t;
  bcache : Builder.Build.cache;
  archs : Evaluate.t Arch_tbl.t;
  mutable n_evals : int;
  mutable n_arch_hits : int;
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
    archs = Arch_tbl.create 512;
    n_evals = 0;
    n_arch_hits = 0;
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

let evaluate ?(store_arch = true) t archi =
  t.n_evals <- t.n_evals + 1;
  Mccm_obs.Metric.incr c_evals;
  if not t.memoize then
    Evaluate.run
      (Builder.Build.build ~options:t.options ~table:t.table t.model t.board
         archi)
  else begin
    let key = arch_key archi in
    match Arch_tbl.find_opt t.archs key with
    | Some e ->
      t.n_arch_hits <- t.n_arch_hits + 1;
      Mccm_obs.Metric.incr c_arch_hit;
      e
    | None ->
      Mccm_obs.Metric.incr c_arch_miss;
      let built =
        Builder.Build.build ~options:t.options ~cache:t.bcache ~table:t.table
          t.model t.board archi
      in
      let e = Evaluate.run ~cache:t.seg built in
      if store_arch then Arch_tbl.add t.archs key e;
      e
  end

let metrics ?store_arch t archi = (evaluate ?store_arch t archi).Evaluate.metrics

let fork t =
  {
    t with
    seg = Seg_cache.copy t.seg;
    bcache = Builder.Build.copy_cache t.bcache;
    archs = Arch_tbl.copy t.archs;
    n_evals = 0;
    n_arch_hits = 0;
  }

let absorb ~into t =
  Seg_cache.absorb ~into:into.seg t.seg;
  Builder.Build.absorb_cache ~into:into.bcache t.bcache;
  Arch_tbl.iter
    (fun k v ->
      if not (Arch_tbl.mem into.archs k) then Arch_tbl.add into.archs k v)
    t.archs;
  into.n_evals <- into.n_evals + t.n_evals;
  into.n_arch_hits <- into.n_arch_hits + t.n_arch_hits

let stats t =
  {
    evaluations = t.n_evals;
    arch_hits = t.n_arch_hits;
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
  Format.fprintf ppf
    "@[<h>%d evals: %d arch hits, %d/%d segment hits, %d/%d plan hits@]"
    s.evaluations s.arch_hits s.seg_hits (s.seg_hits + s.seg_misses)
    s.plan_hits (s.plan_hits + s.plan_misses)
