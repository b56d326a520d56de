(* Work windows alternating with calibration windows.

   Each work window runs in a child forked from the same parent state;
   right after it, a child forked from that same state times enough
   calibration units to last about as long as the window's timed part.
   Windows continue until [seconds] have passed, and at least
   [min_windows] are run, so a slow box still yields a median. *)

let now_s () = float_of_int (Mccm_obs.Clock.now_ns ()) /. 1e9

type 'a outcome = {
  windows : (int * ('a, string) result) list;  (* in run order *)
  unit_times : float array;                      (* every calibration unit *)
}

let alternate ~seconds ~min_windows ~(timed : 'a -> float) (work : int -> 'a) =
  let deadline = now_s () +. seconds in
  let units = ref [] in
  let rec loop i acc =
    if i >= min_windows && now_s () >= deadline then List.rev acc
    else begin
      let r = Forkrun.run (fun () -> work i) in
      let d = match r with Ok v -> timed v | Error _ -> Calib.reference_unit_s in
      let n = max 2 (int_of_float (Float.ceil (d /. Calib.reference_unit_s))) in
      (match Forkrun.run (fun () -> Calib.time_units n) with
      | Ok a -> units := a :: !units
      | Error _ -> ());
      loop (i + 1) ((i, r) :: acc)
    end
  in
  let windows = loop 0 [] in
  { windows; unit_times = Array.concat (List.rev !units) }

let ok o = List.filter_map (fun (_, r) -> Result.to_option r) o.windows
let errors o = List.filter_map (fun (_, r) -> match r with Error e -> Some e | Ok _ -> None) o.windows

(* Seeds for window [i] of a run: a stream of its own, fixed by the run
   seed and the window index alone. *)
let seeds ~seed i n =
  let rng = Util.Prng.create ~seed:(Int64.of_int ((seed * 1_000_003) + i)) in
  List.init n (fun _ -> Util.Prng.next_int64 rng)

(* Set-up measured from outside: spawn a fresh copy of this executable
   in probe mode and time it from spawn to its "ready" line.  [k]
   probes; returns each probe's wall seconds and its ready line. *)
let setup_probes ~k args =
  List.init k (fun _ ->
      flush_all ();
      let r, w = Unix.pipe ~cloexec:true () in
      let t0 = now_s () in
      let pid =
        Unix.create_process Sys.executable_name
          (Array.of_list (Sys.executable_name :: args))
          Unix.stdin w Unix.stderr
      in
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let line = try input_line ic with End_of_file -> "" in
      let t1 = now_s () in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      (t1 -. t0, line))

(* [ws]: each window's GC work and its operation count. *)
let gc_metrics report ws =
  let per_op =
    Array.of_list
      (List.map (fun (g, n) -> g.Forkrun.minor_words /. float_of_int (max 1 n) /. 1e6) ws)
  in
  let n = Array.length per_op in
  Report.add report ~samples:n "gc.minor_mwords_per_op" "Mword" (Pstats.median per_op);
  Report.add report ~samples:n "gc.major_collections" "count"
    (Pstats.median (Array.of_list (List.map (fun (g, _) -> float_of_int g.Forkrun.major_collections) ws)));
  Report.add report ~samples:n "gc.top_heap_mb" "MiB"
    (Pstats.median (Array.of_list (List.map (fun (g, _) -> g.Forkrun.top_heap_mb) ws)))

(* A probe's "ready" line carries its model and table build times. *)
let probe_ms probes k =
  Array.of_list
    (List.filter_map
       (fun (_, line) ->
         match String.split_on_char ' ' line with
         | "ready" :: a :: b :: _ -> Some (float_of_string (if k = 0 then a else b) *. 1e3)
         | _ -> None)
       probes)

let cnn_metrics report probes =
  let n = List.length probes in
  Report.add report ~samples:n "cnn.model_build_ms" "ms" (Pstats.median (probe_ms probes 0));
  Report.add report ~samples:n "cnn.table_build_ms" "ms" (Pstats.median (probe_ms probes 1))

(* Set-up is a cold start timed in fresh processes, scaled by the run's
   calibration factor [f]: unscaled, its median moved by up to 29%
   between sets of ten runs of the same code as the box drifted (see
   EVIDENCE.md). *)
let setup_metric report ~f probes =
  let times = Array.of_list (List.map fst probes) in
  let raw = Pstats.median times in
  Report.add report ~raw ~samples:(Array.length times) "setup_s" "s" (Calib.time_ f raw)
