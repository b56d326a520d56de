(* Benchmark-regression gate over BENCH_dse.json.

   Usage:
     check_bench <current.json> <baseline.json> [tolerance] [trace_tol]
     check_bench --validate-trace <trace.json>

   In gate mode it fails (exit 1) when any workload's cached evals/sec
   in the current file has regressed by more than [tolerance] (default
   0.20) relative to the committed baseline, or when a baseline workload
   is missing.  Files with the mccm-bench-dse/2 schema also carry a
   per-workload "trace_overhead" (traced arm vs cached arm of the same
   workload, instrumentation fully on); those are gated against
   [trace_tol] (default 0.35 — the absolute span cost is well under a
   microsecond, but the precomputed-table path cut a cached evaluation
   to ~15 us, so the same instrumentation is a ~20% relative overhead
   on a quiet machine; the ceiling leaves headroom for noisy CI
   runners while still catching the order-of-magnitude blowups this
   gate exists for).  Old /1 files
   simply lack the field and skip that gate, so the checker stays
   usable against historic baselines.

   mccm-bench-dse/3 files additionally carry an "exhaustive_parallel"
   record with per-domain-count specs/sec; the 4-domain rate is gated
   at 1.5x the 1-domain rate, but only when the file's
   "recommended_domains" is at least 4 — a single-core recorder cannot
   exhibit Domains scaling and its numbers would gate on noise.  /2 and
   /1 files lack all these fields and skip the gates.  Files may carry
   a per-workload "table_speedup" from when the bench timed a list-fold
   evaluation path; it is ignored.

   mccm-bench-dse/4 files additionally carry an "enumerate_bnb" record
   (best-first branch-and-bound vs pruned scan on the deep ResNet152
   configuration): its "prune_ratio" is gated at a 0.5 floor — the
   headline claim of the admissible segment bounds — and
   "winner_matches_scan" must be true (both searches are exact, so a
   mismatch is a soundness bug, not a perf regression).  Older files
   lack the member and skip the gate.

   mccm-bench-dse/5 files record the warm-pool parallel scan (domains
   spawned once, sessions forked once, timed region covers only the
   steady state), so the Domains-scaling floor rises from 1.5x to 2.5x
   (4-domain vs 1-domain, still only when "recommended_domains" >= 4),
   and "exhaustive_parallel.winners_identical" — the recorded
   {1,2,4} domains x {scan, best-first} x {pruned, unpruned} winner
   matrix — must be true on every file, single-core recorders
   included: determinism does not need cores.  /5 files also carry
   per-domain "cold_seconds" (crew spawned inside the call) and a
   "phases" breakdown (warm-up/fork/chunk/absorb); those are recorded
   for trend inspection, not gated.  Older schemas keep the 1.5x floor
   and skip the new members.

   --validate-trace parses a Chrome trace_event JSON file (as written by
   `mccm --trace` or Mccm_obs.Chrome_trace) and fails unless it holds a
   non-empty "traceEvents" array of well-formed "X" events.

   The toolchain has no JSON library, so a minimal recursive-descent
   parser covering the emitted schema lives here. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
        | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
        | Some c -> Buffer.add_char b c; advance (); go ()
        | None -> fail "unterminated escape")
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let key = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((key, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Arr [] end
      else begin
        let rec elements acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (v :: acc)
          | Some ']' -> advance (); Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
      end
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number ())
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  parse content

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let num_exn what = function
  | Some (Num f) -> f
  | _ -> failwith (what ^ ": missing or non-numeric")

let str_exn what = function
  | Some (Str s) -> s
  | _ -> failwith (what ^ ": missing or non-string")

(* name -> cached evals/sec for every workload entry. *)
let cached_rates json =
  match member "workloads" json with
  | Some (Arr ws) ->
    List.map
      (fun w ->
        ( str_exn "workload name" (member "name" w),
          num_exn "cached_evals_per_sec" (member "cached_evals_per_sec" w) ))
      ws
  | _ -> failwith "workloads: missing or not an array"

(* name -> trace_overhead for every workload that records one
   (mccm-bench-dse/2); absent on /1 files, where the gate is skipped. *)
let trace_overheads json =
  match member "workloads" json with
  | Some (Arr ws) ->
    List.filter_map
      (fun w ->
        match member "trace_overhead" w with
        | Some (Num f) -> Some (str_exn "workload name" (member "name" w), f)
        | _ -> None)
      ws
  | _ -> failwith "workloads: missing or not an array"

(* Schema generation of the file: the integer N of "mccm-bench-dse/N".
   /1 files predate the member. *)
let schema_version json =
  match member "schema" json with
  | Some (Str s) -> (
    match String.rindex_opt s '/' with
    | Some i -> (
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
      with
      | Some v -> v
      | None -> failwith ("schema: malformed tag " ^ s))
    | None -> failwith ("schema: malformed tag " ^ s))
  | Some _ -> failwith "schema: not a string"
  | None -> 1

(* (1-domain, 4-domain) specs/sec of the exhaustive_parallel record —
   but only when the recording machine had >= 4 cores to scale onto
   (mccm-bench-dse/3); [None] skips the gate. *)
let parallel_scaling json =
  match
    (member "recommended_domains" json, member "exhaustive_parallel" json)
  with
  | Some (Num rec_d), Some ep when rec_d >= 4.0 -> (
    match member "domains" ep with
    | Some (Arr ds) ->
      let rate want =
        List.find_map
          (fun d ->
            match member "domains" d with
            | Some (Num n) when int_of_float n = want ->
              Some (num_exn "evals_per_sec" (member "evals_per_sec" d))
            | _ -> None)
          ds
      in
      (match (rate 1, rate 4) with
      | Some r1, Some r4 -> Some (r1, r4)
      | _ -> None)
    | _ -> None)
  | _ -> None

(* The winners_identical matrix verdict of the exhaustive_parallel
   record.  Mandatory from mccm-bench-dse/5 on (a /5 file without it is
   malformed, not old). *)
let winners_identical ~version json =
  match member "exhaustive_parallel" json with
  | Some ep -> (
    match member "winners_identical" ep with
    | Some (Bool b) -> Some b
    | Some _ -> failwith "exhaustive_parallel.winners_identical: not a bool"
    | None ->
      if version >= 5 then
        failwith "exhaustive_parallel.winners_identical: missing from /5 file"
      else None)
  | None -> None

(* (prune_ratio, winner_matches_scan) of the enumerate_bnb record
   (mccm-bench-dse/4); [None] on older files skips the gate. *)
let bnb_gate_inputs json =
  match member "enumerate_bnb" json with
  | Some bnb ->
    let matches =
      match member "winner_matches_scan" bnb with
      | Some (Bool b) -> b
      | _ -> failwith "enumerate_bnb.winner_matches_scan: missing"
    in
    Some (num_exn "enumerate_bnb.prune_ratio" (member "prune_ratio" bnb),
          matches)
  | None -> None

let validate_trace path =
  let events =
    match member "traceEvents" (load path) with
    | Some (Arr es) -> es
    | _ -> failwith "traceEvents: missing or not an array"
  in
  if events = [] then failwith "traceEvents: empty";
  List.iteri
    (fun i e ->
      let what field = Printf.sprintf "traceEvents[%d].%s" i field in
      let phase = str_exn (what "ph") (member "ph" e) in
      if phase <> "X" then
        failwith (what "ph" ^ ": expected complete event \"X\"");
      ignore (str_exn (what "name") (member "name" e));
      let dur = num_exn (what "dur") (member "dur" e) in
      ignore (num_exn (what "ts") (member "ts" e));
      ignore (num_exn (what "tid") (member "tid" e));
      if dur < 0.0 then failwith (what "dur" ^ ": negative"))
    events;
  Printf.printf "%s: valid Chrome trace, %d complete event(s)\n" path
    (List.length events)

let gate current_path baseline_path tolerance trace_tol =
  let current_json = load current_path in
  let current = cached_rates current_json in
  let baseline = cached_rates (load baseline_path) in
  let failures = ref 0 in
  List.iter
    (fun (name, base_rate) ->
      match List.assoc_opt name current with
      | None ->
        incr failures;
        Printf.printf "FAIL %-16s missing from %s\n" name current_path
      | Some rate ->
        let floor = base_rate *. (1.0 -. tolerance) in
        let verdict = if rate >= floor then "ok  " else (incr failures; "FAIL") in
        Printf.printf
          "%s %-16s cached %.0f evals/s (baseline %.0f, floor %.0f)\n" verdict
          name rate base_rate floor)
    baseline;
  List.iter
    (fun (name, overhead) ->
      let verdict =
        if overhead <= trace_tol then "ok  " else (incr failures; "FAIL")
      in
      Printf.printf "%s %-16s trace overhead %+.1f%% (ceiling %.0f%%)\n"
        verdict name (100.0 *. overhead) (100.0 *. trace_tol))
    (trace_overheads current_json);
  let version = schema_version current_json in
  (match parallel_scaling current_json with
  | None -> ()
  | Some (r1, r4) ->
    (* Warm-pool /5 recordings removed the per-call spawn and fork
       costs from the timed region, so they owe real scaling. *)
    let floor = if version >= 5 then 2.5 else 1.5 in
    let verdict =
      if r4 >= floor *. r1 then "ok  " else (incr failures; "FAIL")
    in
    Printf.printf
      "%s %-16s 4-domain %.0f specs/s vs 1-domain %.0f (floor %.2fx)\n"
      verdict "exhaustive_par" r4 r1 floor);
  (match winners_identical ~version current_json with
  | None -> ()
  | Some ok ->
    let verdict = if ok then "ok  " else (incr failures; "FAIL") in
    Printf.printf
      "%s %-16s winners identical across domains x strategy x pruning: %b\n"
      verdict "exhaustive_par" ok);
  (match bnb_gate_inputs current_json with
  | None -> ()
  | Some (ratio, matches) ->
    let verdict = if ratio >= 0.5 then "ok  " else (incr failures; "FAIL") in
    Printf.printf "%s %-16s prune ratio %.1f%% (floor 50%%)\n" verdict
      "enumerate_bnb" (100.0 *. ratio);
    let verdict = if matches then "ok  " else (incr failures; "FAIL") in
    Printf.printf "%s %-16s winner matches pruned scan: %b\n" verdict
      "enumerate_bnb" matches);
  if !failures > 0 then begin
    Printf.printf "%d gate failure(s)\n" !failures;
    exit 1
  end
  else
    Printf.printf "all workloads within %.0f%% of baseline\n"
      (100.0 *. tolerance)

(* ------------------------------------------------------- serve gate *)

(* BENCH_serve.json (mccm-bench-serve/1, /2 or /3): hard validity
   asserts always (progress was made, nothing errored, nothing
   dropped); /2 files additionally carry the interleaved
   flight-recorder A/B, whose overhead is gated hard at [flight_tol]
   (default 2%) — the recorder rides every production reply, so it
   must stay in the noise; /3 files add the result-cache arms, gated
   hard on their structural claims (warm hits at least 5x cold
   throughput, the thundering herd resolved by exactly one evaluation
   with every reply byte-identical) — these are properties of the
   cache design, not of the box, so no baseline is needed.  The
   throughput floor only gates against a committed baseline recorded on
   a comparable box (same workers and recommended_domains) — it stays
   dormant until such a baseline exists, like the DSE scaling gates
   above. *)
let check_serve ?(flight_tol = 0.02) current_path baseline_path tolerance =
  let json = load current_path in
  (match member "schema" json with
  | Some (Str "mccm-bench-serve/1")
  | Some (Str "mccm-bench-serve/2")
  | Some (Str "mccm-bench-serve/3") -> ()
  | Some (Str other) -> failwith ("serve schema: unexpected " ^ other)
  | _ -> failwith "serve schema: missing");
  let num name = num_exn name (member name json) in
  let failures = ref 0 in
  let hard name ok detail =
    let verdict = if ok then "ok  " else (incr failures; "FAIL") in
    Printf.printf "%s %-16s %s\n" verdict name detail
  in
  let replies = num "total_replies" in
  let errors = num "errors" in
  let dropped = num "dropped" in
  let rate = num "evals_per_sec" in
  hard "serve_progress" (replies > 0.0)
    (Printf.sprintf "%.0f replies (%.0f evals/s)" replies rate);
  hard "serve_errors" (errors = 0.0) (Printf.sprintf "%.0f errors" errors);
  hard "serve_dropped" (dropped = 0.0)
    (Printf.sprintf "%.0f dropped connections" dropped);
  (match member "flight" json with
  | Some flight ->
    let fnum name = num_exn ("flight." ^ name) (member name flight) in
    let off = fnum "disabled_evals_per_sec" in
    let on = fnum "enabled_evals_per_sec" in
    let overhead = fnum "overhead" in
    hard "flight_progress" (off > 0.0 && on > 0.0)
      (Printf.sprintf "%.0f evals/s off, %.0f evals/s on" off on);
    hard "flight_overhead" (overhead <= flight_tol)
      (Printf.sprintf "%.1f%% (budget %.1f%%)" (100.0 *. overhead)
         (100.0 *. flight_tol))
  | None -> ());
  (match member "cache" json with
  | Some cache ->
    let cnum name = num_exn ("cache." ^ name) (member name cache) in
    let cold = cnum "cold_evals_per_sec" in
    let warm = cnum "warm_evals_per_sec" in
    let requests = cnum "requests" in
    hard "cache_progress" (cold > 0.0 && warm > 0.0)
      (Printf.sprintf "%.0f evals/s cold, %.0f evals/s warm" cold warm);
    hard "cache_errors"
      (cnum "errors" = 0.0)
      (Printf.sprintf "%.0f errors" (cnum "errors"));
    hard "cache_warm_hits"
      (cnum "warm_hits" = requests && cnum "warm_misses" = 0.0)
      (Printf.sprintf "%.0f/%.0f hits, %.0f misses" (cnum "warm_hits")
         requests (cnum "warm_misses"));
    hard "cache_speedup"
      (warm >= 5.0 *. cold)
      (Printf.sprintf "%.1fx warm over cold (floor 5.0x)" (warm /. cold));
    (match member "herd" cache with
    | Some herd ->
      let hnum name = num_exn ("herd." ^ name) (member name herd) in
      let size = hnum "size" in
      hard "herd_coalesced"
        (hnum "evaluations" = 1.0 && hnum "coalesced" = size -. 1.0)
        (Printf.sprintf
           "%.0f identical requests -> %.0f evaluation(s), %.0f coalesced"
           size (hnum "evaluations") (hnum "coalesced"));
      hard "herd_identical"
        (member "identical_replies" herd = Some (Bool true))
        "every herd reply byte-identical"
    | None -> hard "herd_present" false "cache member without herd")
  | None -> ());
  (match baseline_path with
  | Some path when Sys.file_exists path ->
    let base = load path in
    let bnum name = num_exn name (member name base) in
    let comparable =
      bnum "workers" = num "workers"
      && bnum "recommended_domains" = num "recommended_domains"
    in
    if comparable then begin
      let floor = bnum "evals_per_sec" *. (1.0 -. tolerance) in
      hard "serve_throughput" (rate >= floor)
        (Printf.sprintf "%.0f evals/s (baseline %.0f, floor %.0f)" rate
           (bnum "evals_per_sec") floor)
    end
    else
      Printf.printf
        "skip serve_throughput: baseline recorded on a different box \
         (workers %.0f/%.0f, cores %.0f/%.0f)\n"
        (bnum "workers") (num "workers")
        (bnum "recommended_domains")
        (num "recommended_domains")
  | Some path ->
    Printf.printf "skip serve_throughput: no baseline at %s (gate dormant)\n"
      path
  | None -> ());
  if !failures > 0 then begin
    Printf.printf "%d serve gate failure(s)\n" !failures;
    exit 1
  end
  else Printf.printf "serve bench ok\n"

let () =
  match Array.to_list Sys.argv with
  | [ _; "--serve"; c ] -> (
    try check_serve c None 0.25
    with Failure msg | Parse_error msg ->
      Printf.printf "FAIL %s: %s\n" c msg;
      exit 1)
  | [ _; "--serve"; c; b ] -> (
    try check_serve c (Some b) 0.25
    with Failure msg | Parse_error msg ->
      Printf.printf "FAIL %s: %s\n" c msg;
      exit 1)
  | [ _; "--serve"; c; b; t ] -> (
    try check_serve c (Some b) (float_of_string t)
    with Failure msg | Parse_error msg ->
      Printf.printf "FAIL %s: %s\n" c msg;
      exit 1)
  | [ _; "--serve"; c; b; t; ft ] -> (
    try
      check_serve ~flight_tol:(float_of_string ft) c (Some b)
        (float_of_string t)
    with Failure msg | Parse_error msg ->
      Printf.printf "FAIL %s: %s\n" c msg;
      exit 1)
  | [ _; "--validate-trace"; path ] -> (
    try validate_trace path
    with Failure msg | Parse_error msg ->
      Printf.printf "FAIL %s: %s\n" path msg;
      exit 1)
  | [ _; c; b ] -> gate c b 0.20 0.35
  | [ _; c; b; t ] -> gate c b (float_of_string t) 0.35
  | [ _; c; b; t; tt ] -> gate c b (float_of_string t) (float_of_string tt)
  | _ ->
    prerr_endline
      "usage: check_bench <current.json> <baseline.json> [tolerance] \
       [trace_tol]\n\
      \       check_bench --serve <current.json> [baseline.json [tolerance \
       [flight_tol]]]\n\
      \       check_bench --validate-trace <trace.json>";
    exit 2
