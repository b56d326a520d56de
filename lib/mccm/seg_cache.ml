(* Content-keyed memo tables for per-segment model results.

   A key captures everything the segment models read: the layer range,
   the engine signatures (PE count, parallelism factors, dataflow — the
   CE id is display-only and deliberately excluded), the block's buffer
   plan slice, and the boundary flags.  The model and board are NOT in
   the key: a cache is scoped to one (model, board) pair by its owner
   ({!Eval_session}), which makes (first, last) a complete proxy for the
   layer contents.

   Keys pair a precomputed {!Util.Fingerprint} digest (fast hashing)
   with the full structural payload (exact equality on lookup), so a
   hash collision only costs a comparison, never correctness. *)

module Fp = Util.Fingerprint

(* The single-CE evaluator reads its plan slice only through
   [fm_capacity_bytes], and is piecewise constant in it — so the key
   deliberately EXCLUDES the plan, and each entry stores a list of block
   aggregates, each valid on its own (cap_lo, cap_hi) piece and holding
   no per-layer data, so an entry's size does not grow with its
   segment.  A lookup hits when the requested capacity falls inside a
   recorded piece, which makes the cache immune to the byte-granular
   capacity churn of the planner's global proportional grants (a
   one-boundary move otherwise shifts every block's grant by a few
   bytes and would defeat the cache). *)
type single_key = {
  s_fp : int;
  s_first : int;
  s_last : int;
  s_eng : Engine.Ce.signature;
  s_in : bool;
  s_out : bool;
}

let single_key ~eng ~first ~last ~input_on_chip ~output_on_chip =
  let h = Fp.empty in
  let h = Fp.int h first in
  let h = Fp.int h last in
  let h = Engine.Ce.fingerprint h eng in
  let h = Fp.bool h input_on_chip in
  let h = Fp.bool h output_on_chip in
  { s_fp = Fp.to_int h; s_first = first; s_last = last; s_eng = eng;
    s_in = input_on_chip; s_out = output_on_chip }

(* The pipelined evaluator reads its plan slice only through
   [width_split], [tile_rows], [fm_tile_bytes] and [weights_retained] —
   the key deliberately carries exactly those fields, so plan slices
   differing only in unread fields (notably [weights_staging_bytes],
   which churns at byte granularity with the planner's leftover budget)
   share one entry. *)
type pipe_key = {
  p_fp : int;
  p_first : int;
  p_last : int;
  p_engs : Engine.Ce.signature array;
  p_ws : int;
  p_rows : int array;
  p_fm : int array;
  p_ret : bool array;
  p_in : bool;
  p_out : bool;
}

let pipe_key ~engs ~plan ~first ~last ~input_on_chip ~output_on_chip =
  let ws = plan.Builder.Buffer_alloc.width_split in
  let rows = plan.Builder.Buffer_alloc.tile_rows in
  let fm = plan.Builder.Buffer_alloc.fm_tile_bytes in
  let ret = plan.Builder.Buffer_alloc.weights_retained in
  let h = Fp.empty in
  let h = Fp.int h first in
  let h = Fp.int h last in
  let h = Fp.array Engine.Ce.fingerprint h engs in
  let h = Fp.int h ws in
  let h = Fp.array Fp.int h rows in
  let h = Fp.array Fp.int h fm in
  let h = Fp.array Fp.bool h ret in
  let h = Fp.bool h input_on_chip in
  let h = Fp.bool h output_on_chip in
  { p_fp = Fp.to_int h; p_first = first; p_last = last; p_engs = engs;
    p_ws = ws; p_rows = rows; p_fm = fm; p_ret = ret;
    p_in = input_on_chip; p_out = output_on_chip }

module Single_tbl = Hashtbl.Make (struct
  type t = single_key

  let hash k = k.s_fp

  let equal a b =
    a.s_fp = b.s_fp && a.s_first = b.s_first && a.s_last = b.s_last
    && a.s_in = b.s_in && a.s_out = b.s_out && a.s_eng = b.s_eng
end)

module Pipe_tbl = Hashtbl.Make (struct
  type t = pipe_key

  let hash k = k.p_fp

  let equal a b =
    a.p_fp = b.p_fp && a.p_first = b.p_first && a.p_last = b.p_last
    && a.p_in = b.p_in && a.p_out = b.p_out && a.p_ws = b.p_ws
    && a.p_engs = b.p_engs && a.p_rows = b.p_rows && a.p_fm = b.p_fm
    && a.p_ret = b.p_ret
end)

(* Global hit/miss counters alongside the per-cache ones: every
   session's cache feeds the same process-wide metrics, which is what
   `mccm --stats` and the bench hit-rate fields report. *)
let c_s_hit = Mccm_obs.Metric.counter "seg.single.hit"
let c_s_miss = Mccm_obs.Metric.counter "seg.single.miss"
let c_p_hit = Mccm_obs.Metric.counter "seg.pipelined.hit"
let c_p_miss = Mccm_obs.Metric.counter "seg.pipelined.miss"

type t = {
  singles : Single_ce_model.result list Single_tbl.t;
  pipes : Pipelined_model.result Pipe_tbl.t;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable p_hits : int;
  mutable p_misses : int;
}

let create () =
  { singles = Single_tbl.create 256; pipes = Pipe_tbl.create 256;
    s_hits = 0; s_misses = 0; p_hits = 0; p_misses = 0 }

let hits t = t.s_hits + t.p_hits
let misses t = t.s_misses + t.p_misses

let single_counts t = (t.s_hits, t.s_misses)
let pipelined_counts t = (t.p_hits, t.p_misses)

let single t ~engine ~cap ~first ~last ~input_on_chip ~output_on_chip compute =
  let key =
    single_key ~eng:(Engine.Ce.signature engine) ~first ~last ~input_on_chip
      ~output_on_chip
  in
  let pieces =
    Option.value (Single_tbl.find_opt t.singles key) ~default:[]
  in
  let rec valid_at = function
    | [] -> None
    | (r : Single_ce_model.result) :: rest ->
      if r.cap_lo <= cap && cap <= r.cap_hi then Some r else valid_at rest
  in
  match valid_at pieces with
  | Some r ->
    t.s_hits <- t.s_hits + 1;
    Mccm_obs.Metric.incr c_s_hit;
    r
  | None ->
    t.s_misses <- t.s_misses + 1;
    Mccm_obs.Metric.incr c_s_miss;
    let r = compute () in
    Single_tbl.replace t.singles key (r :: pieces);
    r

let pipelined t ~engines ~plan ~first ~last ~input_on_chip ~output_on_chip
    compute =
  let key =
    pipe_key ~engs:(Array.map Engine.Ce.signature engines) ~plan ~first ~last
      ~input_on_chip ~output_on_chip
  in
  match Pipe_tbl.find_opt t.pipes key with
  | Some r ->
    t.p_hits <- t.p_hits + 1;
    Mccm_obs.Metric.incr c_p_hit;
    r
  | None ->
    t.p_misses <- t.p_misses + 1;
    Mccm_obs.Metric.incr c_p_miss;
    let r = compute () in
    Pipe_tbl.add t.pipes key r;
    r
