(* What a run prints.

   A table of every metric with its unit, sample count and, for a
   calibrated figure, the raw figure beside it; then, as the last line
   of standard output, one JSON object with exactly the keys
   [correct], [attempted], [failed] and [metrics]. *)

module Json = Util.Json

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : int;
  raw : float option;  (* the uncalibrated figure, when [value] is calibrated *)
}

type t = {
  workload : string;
  mutable metrics : metric list;
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
}

let create workload =
  { workload; metrics = []; attempted = 0; failed = 0; notes = [] }

let add t ?raw ~samples name unit_ value =
  t.metrics <- { name; unit_; value; samples; raw } :: t.metrics

let attempt t ?(failed = 0) n =
  t.attempted <- t.attempted + n;
  t.failed <- t.failed + failed

let note t fmt = Printf.ksprintf (fun s -> t.notes <- s :: t.notes) fmt

let cpus_allowed () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | l ->
        let key = "Cpus_allowed_list:" in
        let k = String.length key in
        if String.length l > k && String.sub l 0 k = key then
          Some (String.trim (String.sub l k (String.length l - k)))
        else scan ()
    in
    let v = scan () in
    close_in ic;
    (match v with
    | None -> Domain.recommended_domain_count ()
    | Some list ->
      List.fold_left
        (fun acc part ->
          match String.split_on_char '-' part with
          | [ a ] when a <> "" -> acc + 1
          | [ a; b ] -> acc + (int_of_string b - int_of_string a + 1)
          | _ -> acc)
        0
        (String.split_on_char ',' list))

let nproc = lazy (max 1 (cpus_allowed ()))

let box_line () =
  Printf.sprintf "box: nproc=%d recommended_domain_count=%d ocaml=%s"
    (Lazy.force nproc)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version

let finite m = Float.is_finite m.value

(* [only]: the metrics the result line carries, in that order (the
   manifest's end-to-end or per-layer list); every other metric is a
   figure of this workload's own, printed in the table only.  Without
   [only] the result line carries every metric. *)
let print ?only t =
  let metrics = List.rev t.metrics in
  let result =
    match only with
    | None -> metrics
    | Some names ->
      List.map
        (fun n ->
          match List.find_opt (fun m -> m.name = n) metrics with
          | Some m -> m
          | None -> failwith (Printf.sprintf "workload %s did not measure %s" t.workload n))
        names
  in
  let figures = List.filter (fun m -> not (List.memq m result)) metrics in
  Printf.printf "workload: %s\n%s\n" t.workload (box_line ());
  List.iter (fun n -> Printf.printf "note: %s\n" n) (List.rev t.notes);
  let row m =
    Printf.printf "%-34s %16.6g %-6s %8d %16s\n" m.name m.value m.unit_ m.samples
      (match m.raw with Some r -> Printf.sprintf "%.6g" r | None -> "-")
  in
  Printf.printf "%-34s %16s %-6s %8s %16s\n" "metric" "value" "unit" "samples" "raw";
  List.iter row result;
  if figures <> [] then begin
    Printf.printf "workload figures, not in the result line:\n";
    List.iter row figures
  end;
  List.iter
    (fun m ->
      let n = String.length m.name in
      if n > 4 && String.sub m.name (n - 4) 4 = "_p99" && Pstats.beyond ~n:m.samples ~pm:9900 < Pstats.min_beyond
      then Printf.printf "note: %s has fewer than %d samples beyond it\n" m.name Pstats.min_beyond)
    metrics;
  let all_finite = List.for_all finite result in
  Printf.printf "attempted %d, failed %d\n" t.attempted t.failed;
  let json =
    Json.Obj
      [
        ("correct", Json.Bool (t.failed = 0 && t.attempted > 0 && all_finite));
        ("attempted", Json.Num (float_of_int t.attempted));
        ("failed", Json.Num (float_of_int t.failed));
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   Json.Obj
                     [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]
                 ))
               result) );
      ]
  in
  print_string (Json.to_string json);
  print_newline ()
