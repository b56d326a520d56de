(* The repository benchmark: one workload from a seed.

     bench.exe --workload explore-xcp|search-res152|serve-mix
               --seed N --seconds S --trace 0|1
               [--mccm PATH] [--out DIR] [--metrics A,B,...]

   With --trace 0 it prints the workload's end-to-end metrics; with
   --trace 1 it replays the same seeded inputs through timed calls into
   each layer and prints the per-layer metrics, writing the spans to
   DIR.  Every metric is printed with its unit and sample count; the
   last line of standard output is the JSON summary (see report.ml),
   holding exactly the [--metrics] named, or every metric without it.
   [--mccm] names the mccm executable serve-mix launches as its daemon.
   run.py builds both executables and passes both options. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--mccm PATH] [--out DIR] \
     [--metrics A,B,...]";
  exit 2

let () =
  (* A daemon that dies mid-write must cost a failed request, not us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | "--setup-probe" :: w :: rest ->
    let trace = rest = [ "--trace"; "1" ] in
    (match w with
    | "explore-xcp" -> Explore_xcp.probe ~trace
    | "search-res152" -> Search_res152.probe ~trace
    | _ -> usage ());
    exit 0
  | _ ->
    let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
    let mccm = ref "" and out = ref "." and only = ref None in
    let rec go = function
      | [] -> ()
      | "--workload" :: v :: r -> workload := v; go r
      | "--seed" :: v :: r -> seed := int_of_string v; go r
      | "--seconds" :: v :: r -> seconds := float_of_string v; go r
      | "--trace" :: v :: r -> trace := int_of_string v; go r
      | "--mccm" :: v :: r -> mccm := v; go r
      | "--out" :: v :: r -> out := v; go r
      | "--metrics" :: v :: r -> only := Some (String.split_on_char ',' v); go r
      | _ -> usage ()
    in
    (try go args with Failure _ -> usage ());
    if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
    let report = Report.create !workload in
    let seed = !seed and seconds = !seconds and trace_dir = !out in
    let spans =
      match (!workload, !trace) with
      | "explore-xcp", 0 -> Explore_xcp.run_untraced report ~seed ~seconds; []
      | "explore-xcp", _ -> Explore_xcp.run_traced report ~seed ~seconds ~trace_dir
      | "search-res152", 0 -> Search_res152.run_untraced report ~seed ~seconds; []
      | "search-res152", _ -> Search_res152.run_traced report ~seed ~seconds ~trace_dir
      | "serve-mix", 0 -> Serve_mix.run_untraced report ~seed ~seconds ~mccm:!mccm ~out:trace_dir; []
      | "serve-mix", _ -> Serve_mix.run_traced report ~seed ~seconds ~mccm:!mccm ~out:trace_dir
      | _ -> usage ()
    in
    if spans <> [] then begin
      Printf.printf "%-10s %8s %14s %14s\n" "layer" "spans" "total_ms" "self_ms";
      List.iter
        (fun (layer, n, total, self) ->
          Printf.printf "%-10s %8d %14.3f %14.3f\n" layer n (float_of_int total /. 1e6)
            (float_of_int self /. 1e6))
        (Spans.by_layer spans)
    end;
    Report.print ?only:!only report
