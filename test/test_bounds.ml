(* Property suite for the Dse.Bounds admissibility contract.

   Every floor in Dse.Bounds claims to bound the exact model from below
   (cycles, latency) or above (throughput) for any design the builder
   produces under the default options.  The properties here check each
   clause of that claim against the exact evaluator on random
   (model, board, spec) triples drawn from the same seeded generators
   as the differential-validation sweep, so a counterexample shrinks to
   a single replayable seed.  Seeds that ever falsified a property live
   in [corpus/bounds.corpus] and are replayed on every run. *)

open QCheck2

let corpus_path =
  if Sys.file_exists "corpus/bounds.corpus" then "corpus/bounds.corpus"
  else "test/corpus/bounds.corpus"

(* ------------------------------------------------------ test cases *)

type case = {
  seed : int;
  model : Cnn.Model.t;
  cboard : Platform.Board.t;
  spec : Arch.Custom.spec;
}

(* One integer seed determines the whole case through a single PRNG
   stream — the QCheck2 shrinker works on the seed, and the corpus
   stores seeds. *)
let case_of_seed seed =
  let rng = Util.Prng.create ~seed:(Int64.of_int seed) in
  let model = Validate.Gen.model rng ~index:0 in
  let cboard = Validate.Gen.board rng ~index:0 in
  let n = Cnn.Model.num_layers model in
  let spec =
    Dse.Space.random_spec rng ~num_layers:n
      ~ce_counts:(List.filter (fun c -> c <= n) [ 2; 3; 4; 5; 6 ])
  in
  { seed; model; cboard; spec }

let print_case c =
  Printf.sprintf "seed %d: %s on %s, spec {f=%d; boundaries=[%s]}" c.seed
    c.model.Cnn.Model.name
    c.cboard.Platform.Board.name
    c.spec.Arch.Custom.pipelined_layers
    (String.concat ";"
       (List.map string_of_int c.spec.Arch.Custom.tail_boundaries))

let gen_case = Gen.map case_of_seed (Gen.int_bound 0x3FFFFFFF)

let exact c =
  Mccm.Evaluate.evaluate c.model c.cboard
    (Arch.Custom.arch_of_spec c.model c.spec)

let bounds_of c =
  Dse.Bounds.create (Cnn.Table.of_model c.model) c.cboard

(* The whole-spec bounds read specs off Dse.Space.Flat rows: encode
   the case's spec as the one row of a buffer and apply [bound] to it
   under the context for its CE count. *)
let flat_bound bound t spec =
  let ces = Arch.Custom.total_ces spec in
  let width = Dse.Space.Flat.width ~ces in
  let buf = Dse.Space.Flat.create ~width 1 in
  Dse.Space.Flat.encode buf ~width ~at:0 spec;
  bound (Dse.Bounds.context t ~ces) buf ~width 0

(* Head range [0, f) and tail segments of a spec as (first, last)
   pairs, mirroring the evaluator's block order. *)
let tail_ranges ~num_layers spec =
  let f = spec.Arch.Custom.pipelined_layers in
  let starts = f :: spec.Arch.Custom.tail_boundaries in
  let ends =
    List.map (fun b -> b - 1) spec.Arch.Custom.tail_boundaries
    @ [ num_layers - 1 ]
  in
  List.combine starts ends

let run_prop ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest
    (Test.make ~count ~name ~print:print_case gen prop)

(* ------------------------------------------------- the properties *)

(* 1. The whole-spec throughput bound never undercuts the exact
   throughput (admissible upper bound). *)
let prop_throughput_ub c =
  let e = exact c in
  let ub =
    flat_bound Dse.Bounds.throughput_upper_bound_flat (bounds_of c) c.spec
  in
  ub >= e.Mccm.Evaluate.metrics.Mccm.Metrics.throughput_ips

(* 2. The whole-spec latency bound never exceeds the exact latency
   (admissible lower bound). *)
let prop_latency_lb c =
  let e = exact c in
  let lb =
    flat_bound Dse.Bounds.latency_lower_bound_flat (bounds_of c) c.spec
  in
  lb <= e.Mccm.Evaluate.metrics.Mccm.Metrics.latency_s

(* 3. The split floors bound the exact interval's two sides separately:
   compute floor vs ii_compute_s, memory floor vs ii_memory_s. *)
let prop_split_floors c =
  let e = exact c in
  let t = bounds_of c in
  flat_bound Dse.Bounds.compute_ii_floor_cycles_flat t c.spec
  /. Dse.Bounds.clock_hz t
  <= e.Mccm.Evaluate.ii_compute_s
  && Dse.Bounds.mem_floor_s t <= e.Mccm.Evaluate.ii_memory_s

(* 4. Each per-block floor bounds that block's exact interval: the head
   floor vs the pipelined block, each segment floor vs its single-CE
   block.  This is the per-segment clause the composed bounds build
   on. *)
let prop_block_floors c =
  let e = exact c in
  let t = bounds_of c in
  let clock = Dse.Bounds.clock_hz t in
  let ctx = Dse.Bounds.context t ~ces:(Arch.Custom.total_ces c.spec) in
  let n = Cnn.Model.num_layers c.model in
  let f = c.spec.Arch.Custom.pipelined_layers in
  match e.Mccm.Evaluate.blocks with
  | [] -> false
  | head :: tails ->
    let tails_ok =
      List.for_all2
        (fun (first, last) (b : Mccm.Evaluate.block_eval) ->
          Dse.Bounds.segment_ii_floor ctx ~first ~last /. clock
          <= b.Mccm.Evaluate.ii_s)
        (tail_ranges ~num_layers:n c.spec)
        tails
    in
    Dse.Bounds.head_ii_floor ctx ~f /. clock <= head.Mccm.Evaluate.ii_s
    && tails_ok

(* 5. The monotone core: never above the tight leveled floor, and
   nondecreasing when the segment is extended on either side. *)
let prop_monotone_core c =
  let t = bounds_of c in
  let ctx = Dse.Bounds.context t ~ces:(Arch.Custom.total_ces c.spec) in
  let n = Cnn.Model.num_layers c.model in
  List.for_all
    (fun (first, last) ->
      let core = Dse.Bounds.segment_ii_floor_monotone ctx ~first ~last in
      core <= Dse.Bounds.segment_ii_floor ctx ~first ~last
      && (last + 1 >= n
         || core
            <= Dse.Bounds.segment_ii_floor_monotone ctx ~first ~last:(last + 1)
         )
      && (first = 0
         || core
            <= Dse.Bounds.segment_ii_floor_monotone ctx ~first:(first - 1)
                 ~last))
    (tail_ranges ~num_layers:n c.spec)

(* 6. Suffix composition: the boundary-free suffix floors never exceed
   what the spec's own concrete split pays — the slowest-segment floor
   bounds the max, the summed-latency floor bounds the sum. *)
let prop_suffix_composition c =
  let t = bounds_of c in
  let ctx = Dse.Bounds.context t ~ces:(Arch.Custom.total_ces c.spec) in
  let n = Cnn.Model.num_layers c.model in
  let tails = tail_ranges ~num_layers:n c.spec in
  let first = c.spec.Arch.Custom.pipelined_layers in
  let seg_floors =
    List.map
      (fun (first, last) -> Dse.Bounds.segment_ii_floor ctx ~first ~last)
      tails
  in
  Dse.Bounds.suffix_ii_floor ctx ~first ~segments:(List.length tails)
  <= List.fold_left Float.max 0.0 seg_floors
  && Dse.Bounds.suffix_latency_floor ctx ~first
     <= List.fold_left ( +. ) 0.0 seg_floors

(* 7. The global mediant floor holds for the whole design: no schedule
   beats work conservation over the board's PEs. *)
let prop_global_floor c =
  let e = exact c in
  let t = bounds_of c in
  Dse.Bounds.global_ii_cycles t /. Dse.Bounds.clock_hz t
  <= e.Mccm.Evaluate.ii_compute_s +. 1e-12 *. e.Mccm.Evaluate.ii_compute_s

(* ----------------------------------------------------- corpus replay *)

let corpus_seeds path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | exception End_of_file ->
        close_in ic;
        List.rev acc
      | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc
        else go (int_of_string line :: acc)
    in
    go []
  end

let test_corpus_replay () =
  let seeds = corpus_seeds corpus_path in
  Alcotest.(check bool) "corpus non-empty" true (seeds <> []);
  List.iter
    (fun seed ->
      let c = case_of_seed seed in
      let checkp name p =
        if not (try p c with _ -> false) then
          Alcotest.failf "corpus seed %d violates %s (%s)" seed name
            (print_case c)
      in
      checkp "throughput upper bound" prop_throughput_ub;
      checkp "latency lower bound" prop_latency_lb;
      checkp "split floors" prop_split_floors;
      checkp "block floors" prop_block_floors;
      checkp "monotone core" prop_monotone_core;
      checkp "suffix composition" prop_suffix_composition;
      checkp "global floor" prop_global_floor)
    seeds

let () =
  Alcotest.run "bounds"
    [
      ( "admissibility",
        [
          run_prop "throughput upper bound >= exact" gen_case
            prop_throughput_ub;
          run_prop "latency lower bound <= exact" gen_case prop_latency_lb;
          run_prop "compute/memory floors bound their sides" gen_case
            prop_split_floors;
          run_prop "per-block floors bound block intervals" gen_case
            prop_block_floors;
          run_prop "global mediant floor" gen_case prop_global_floor;
        ] );
      ( "structure",
        [
          run_prop "monotone core: ordered and monotone" gen_case
            prop_monotone_core;
          run_prop "suffix floors compose" gen_case prop_suffix_composition;
        ] );
      ( "corpus",
        [ Alcotest.test_case "replay" `Quick test_corpus_replay ] );
    ]
