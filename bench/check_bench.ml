(* Benchmark-regression gates over BENCH_dse.json and BENCH_serve.json.

   Usage:
     check_bench <current.json> <baseline.json> [tolerance] [trace_tol]
     check_bench --serve <current.json> [baseline.json [tolerance [flight_tol]]]
     check_bench --validate-trace <trace.json>

   The file under test must carry the schema its bench writes now
   (mccm-bench-dse/7, mccm-bench-serve/3) and all of that schema's
   members; a missing or mistyped member fails the run.  From a
   baseline only the fields its gates compare are read, so a committed
   baseline stays usable across schema generations.

   DSE gates, current file against the baseline:
   - each baseline workload's cached evals/sec must be present and at
     most [tolerance] (default 0.20) below the baseline;
   - each workload's "trace_overhead" (traced arm vs cached arm of the
     same workload, instrumentation fully on) must stay under
     [trace_tol] (default 0.35 — the absolute span cost is well under a
     microsecond, but a cached evaluation takes ~15 us, so the same
     instrumentation is a ~20% relative overhead on a quiet machine;
     the ceiling leaves headroom for noisy CI runners while still
     catching the order-of-magnitude blowups this gate exists for);
   - "exhaustive_parallel": the warm-pool 4-domain specs/sec must be at
     least 2.5x the 1-domain rate, but only when the file's
     "recommended_domains" is at least 4 — a single-core recorder
     cannot exhibit Domains scaling and its numbers would gate on
     noise; and "winners_identical", the recorded {1,2,4} domains x
     {pruned, unpruned} winner matrix, must be true on every file —
     determinism does not need cores;
   - "enumerate_pruned" (pruned vs unpruned search on the deep
     ResNet152 configuration): "prune_ratio" has a 0.5 floor — the
     headline claim of the admissible segment bounds — and
     "winner_matches_unpruned" must be true (pruning is exact, so a
     mismatch is a soundness bug, not a perf regression).

   Serve gates, see [check_serve].

   --validate-trace parses a Chrome trace_event JSON file (as written by
   `mccm --trace` or Mccm_obs.Chrome_trace) and fails unless it holds a
   non-empty "traceEvents" array of well-formed "X" events. *)

module Json = Util.Json

let load path =
  let ic = open_in_bin path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse content with Ok v -> v | Error msg -> failwith msg

(* Required members.  [at] prefixes the member name in the error. *)
let field conv kind ?(at = "") json key =
  match Option.bind (Json.member key json) conv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s%s: missing or not %s" at key kind)

let num = field Json.number "a number"
let str = field Json.string_ "a string"
let bool = field Json.bool_ "a bool"
let arr = field Json.list_ "an array"
let obj = field (function Json.Obj _ as v -> Some v | _ -> None) "an object"

let expect_schema json schema =
  let got = str json "schema" in
  if got <> schema then
    failwith (Printf.sprintf "schema: expected %s, got %s" schema got)

let require json keys =
  List.iter
    (fun k -> if Json.member k json = None then failwith (k ^ ": missing"))
    keys

(* One verdict line per gate; any FAIL makes the run exit 1. *)
let failures = ref 0

let verdict name ok detail =
  if not ok then incr failures;
  Printf.printf "%s %-16s %s\n" (if ok then "ok  " else "FAIL") name detail

let finish ~what ~ok_line =
  if !failures > 0 then begin
    Printf.printf "%d %sgate failure(s)\n" !failures what;
    exit 1
  end
  else print_endline ok_line

(* --------------------------------------------------------- DSE gate *)

(* name -> cached evals/sec, for every workload entry. *)
let cached_rates json =
  List.map
    (fun w -> (str w "name", num w "cached_evals_per_sec"))
    (arr json "workloads")

let gate current_path baseline_path tolerance trace_tol =
  let cur = load current_path in
  expect_schema cur "mccm-bench-dse/7";
  require cur
    [ "fig10_samples"; "recommended_domains"; "workloads";
      "exhaustive_parallel"; "enumerate_pruned"; "artifacts" ];
  let current = cached_rates cur in
  List.iter
    (fun (name, base_rate) ->
      match List.assoc_opt name current with
      | None -> verdict name false ("missing from " ^ current_path)
      | Some rate ->
        let floor = base_rate *. (1.0 -. tolerance) in
        verdict name (rate >= floor)
          (Printf.sprintf "cached %.0f evals/s (baseline %.0f, floor %.0f)"
             rate base_rate floor))
    (cached_rates (load baseline_path));
  List.iter
    (fun w ->
      let overhead = num w "trace_overhead" in
      verdict (str w "name") (overhead <= trace_tol)
        (Printf.sprintf "trace overhead %+.1f%% (ceiling %.0f%%)"
           (100.0 *. overhead) (100.0 *. trace_tol)))
    (arr cur "workloads");
  let ep = obj cur "exhaustive_parallel" in
  let at = "exhaustive_parallel." in
  if num cur "recommended_domains" >= 4.0 then begin
    let rate want =
      match
        List.find_opt
          (fun d -> num ~at d "domains" = float_of_int want)
          (arr ~at ep "domains")
      with
      | Some d -> num ~at d "evals_per_sec"
      | None -> failwith (Printf.sprintf "%sdomains: no %d-domain entry" at want)
    in
    let r1 = rate 1 and r4 = rate 4 in
    verdict "exhaustive_par" (r4 >= 2.5 *. r1)
      (Printf.sprintf "4-domain %.0f specs/s vs 1-domain %.0f (floor 2.50x)" r4
         r1)
  end;
  let identical = bool ~at ep "winners_identical" in
  verdict "exhaustive_par" identical
    (Printf.sprintf "winners identical across domains x pruning: %b" identical);
  let ep = obj cur "enumerate_pruned" in
  let at = "enumerate_pruned." in
  let ratio = num ~at ep "prune_ratio" in
  verdict "enumerate_pruned" (ratio >= 0.5)
    (Printf.sprintf "prune ratio %.1f%% (floor 50%%)" (100.0 *. ratio));
  let matches = bool ~at ep "winner_matches_unpruned" in
  verdict "enumerate_pruned" matches
    (Printf.sprintf "winner matches unpruned scan: %b" matches);
  finish ~what:""
    ~ok_line:
      (Printf.sprintf "all workloads within %.0f%% of baseline"
         (100.0 *. tolerance))

(* ------------------------------------------------------- serve gate *)

(* BENCH_serve.json: hard validity gates always (progress was made,
   nothing errored, nothing dropped); the interleaved flight-recorder
   A/B, whose overhead is gated hard at [flight_tol] (default 2%) — the
   recorder rides every production reply, so it must stay in the
   noise; and the result-cache arms, gated hard on their structural
   claims (warm hits at least 5x cold throughput, the thundering herd
   resolved by exactly one evaluation with every reply byte-identical)
   — these are properties of the cache design, not of the box, so no
   baseline is needed.  The throughput floor only gates against a
   committed baseline recorded on a comparable box (same workers and
   recommended_domains); it stays dormant until such a baseline
   exists, like the DSE scaling gate above. *)
let check_serve ?(flight_tol = 0.02) current_path baseline_path tolerance =
  let json = load current_path in
  expect_schema json "mccm-bench-serve/3";
  require json
    [ "workers"; "clients"; "recommended_domains"; "duration_s";
      "total_replies"; "evals_per_sec"; "latency_ms"; "errors"; "dropped";
      "flight"; "cache" ];
  let replies = num json "total_replies" in
  let errors = num json "errors" in
  let dropped = num json "dropped" in
  let rate = num json "evals_per_sec" in
  verdict "serve_progress" (replies > 0.0)
    (Printf.sprintf "%.0f replies (%.0f evals/s)" replies rate);
  verdict "serve_errors" (errors = 0.0) (Printf.sprintf "%.0f errors" errors);
  verdict "serve_dropped" (dropped = 0.0)
    (Printf.sprintf "%.0f dropped connections" dropped);
  let flight = obj json "flight" in
  let fnum = num ~at:"flight." flight in
  let off = fnum "disabled_evals_per_sec" in
  let on = fnum "enabled_evals_per_sec" in
  let overhead = fnum "overhead" in
  verdict "flight_progress" (off > 0.0 && on > 0.0)
    (Printf.sprintf "%.0f evals/s off, %.0f evals/s on" off on);
  verdict "flight_overhead" (overhead <= flight_tol)
    (Printf.sprintf "%.1f%% (budget %.1f%%)" (100.0 *. overhead)
       (100.0 *. flight_tol));
  let cache = obj json "cache" in
  let cnum = num ~at:"cache." cache in
  let cold = cnum "cold_evals_per_sec" in
  let warm = cnum "warm_evals_per_sec" in
  let requests = cnum "requests" in
  verdict "cache_progress" (cold > 0.0 && warm > 0.0)
    (Printf.sprintf "%.0f evals/s cold, %.0f evals/s warm" cold warm);
  verdict "cache_errors"
    (cnum "errors" = 0.0)
    (Printf.sprintf "%.0f errors" (cnum "errors"));
  verdict "cache_warm_hits"
    (cnum "warm_hits" = requests && cnum "warm_misses" = 0.0)
    (Printf.sprintf "%.0f/%.0f hits, %.0f misses" (cnum "warm_hits") requests
       (cnum "warm_misses"));
  verdict "cache_speedup"
    (warm >= 5.0 *. cold)
    (Printf.sprintf "%.1fx warm over cold (floor 5.0x)" (warm /. cold));
  let herd = obj ~at:"cache." cache "herd" in
  let hnum = num ~at:"cache.herd." herd in
  let size = hnum "size" in
  verdict "herd_coalesced"
    (hnum "evaluations" = 1.0 && hnum "coalesced" = size -. 1.0)
    (Printf.sprintf "%.0f identical requests -> %.0f evaluation(s), %.0f \
                     coalesced"
       size (hnum "evaluations") (hnum "coalesced"));
  verdict "herd_identical"
    (bool ~at:"cache.herd." herd "identical_replies")
    "every herd reply byte-identical";
  (match baseline_path with
  | Some path when Sys.file_exists path ->
    let base = load path in
    let comparable =
      num base "workers" = num json "workers"
      && num base "recommended_domains" = num json "recommended_domains"
    in
    if comparable then begin
      let floor = num base "evals_per_sec" *. (1.0 -. tolerance) in
      verdict "serve_throughput" (rate >= floor)
        (Printf.sprintf "%.0f evals/s (baseline %.0f, floor %.0f)" rate
           (num base "evals_per_sec") floor)
    end
    else
      Printf.printf
        "skip serve_throughput: baseline recorded on a different box \
         (workers %.0f/%.0f, cores %.0f/%.0f)\n"
        (num base "workers") (num json "workers")
        (num base "recommended_domains")
        (num json "recommended_domains")
  | Some path ->
    Printf.printf "skip serve_throughput: no baseline at %s (gate dormant)\n"
      path
  | None -> ());
  finish ~what:"serve " ~ok_line:"serve bench ok"

(* ------------------------------------------------------ trace check *)

let validate_trace path =
  let events = arr (load path) "traceEvents" in
  if events = [] then failwith "traceEvents: empty";
  List.iteri
    (fun i e ->
      let at = Printf.sprintf "traceEvents[%d]." i in
      if str ~at e "ph" <> "X" then
        failwith (at ^ "ph: expected complete event \"X\"");
      ignore (str ~at e "name");
      ignore (num ~at e "ts");
      ignore (num ~at e "tid");
      if num ~at e "dur" < 0.0 then failwith (at ^ "dur: negative"))
    events;
  Printf.printf "%s: valid Chrome trace, %d complete event(s)\n" path
    (List.length events)

let () =
  let run path f =
    try f ()
    with Failure msg | Sys_error msg ->
      Printf.printf "FAIL %s: %s\n" path msg;
      exit 1
  in
  match Array.to_list Sys.argv with
  | [ _; "--serve"; c ] -> run c (fun () -> check_serve c None 0.25)
  | [ _; "--serve"; c; b ] -> run c (fun () -> check_serve c (Some b) 0.25)
  | [ _; "--serve"; c; b; t ] ->
    run c (fun () -> check_serve c (Some b) (float_of_string t))
  | [ _; "--serve"; c; b; t; ft ] ->
    run c (fun () ->
        check_serve ~flight_tol:(float_of_string ft) c (Some b)
          (float_of_string t))
  | [ _; "--validate-trace"; path ] -> run path (fun () -> validate_trace path)
  | [ _; c; b ] -> run c (fun () -> gate c b 0.20 0.35)
  | [ _; c; b; t ] -> run c (fun () -> gate c b (float_of_string t) 0.35)
  | [ _; c; b; t; tt ] ->
    run c (fun () -> gate c b (float_of_string t) (float_of_string tt))
  | _ ->
    prerr_endline
      "usage: check_bench <current.json> <baseline.json> [tolerance] \
       [trace_tol]\n\
      \       check_bench --serve <current.json> [baseline.json [tolerance \
       [flight_tol]]]\n\
      \       check_bench --validate-trace <trace.json>";
    exit 2
