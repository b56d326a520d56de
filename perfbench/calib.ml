(* Drift calibration.

   On a shared 2-vCPU virtual machine the speed of memory-heavy code
   drifts by tens of percent within seconds, and a register-only loop
   does not see it.  This kernel does what the evaluator's memo tables
   do -- allocates a hash table, fills it with structurally keyed boxed
   entries and probes it with hits and misses -- without calling any
   code of the program, so a change to the program can never move it.

   A workload times kernel units next to its own windows, for about as
   long as the work itself.  [factor] is the reference unit time over
   the run's median unit time: above 1 on a box running faster than the
   reference, below 1 on a slower one.  A calibrated time is the raw
   time times that factor; a calibrated rate is the raw rate divided by
   it.  Raw figures are always printed next to calibrated ones. *)

(* Entries per unit.  A unit takes about [reference_unit_s] on the
   reference box, a 2-vCPU KVM guest. *)
let unit_entries = 1 lsl 16

let reference_unit_s = 0.060

let unit () =
  let h = Hashtbl.create 16 in
  let s = ref 0x2545F4914F6CDD1D in
  let next () =
    s := (!s * 0x5851F42D4C957F2D) + 0x14057B7EF767814F;
    (!s lsr 20) land 0x3FFFFFF
  in
  for i = 0 to unit_entries - 1 do
    let k = next () in
    Hashtbl.replace h (k land 0xFFF, k lsr 12) (i, [ k; i ])
  done;
  let acc = ref 0 in
  for _ = 0 to (2 * unit_entries) - 1 do
    let k = next () in
    match Hashtbl.find_opt h (k land 0xFFF, k lsr 12) with
    | Some (i, l) -> acc := !acc + i + List.length l
    | None -> incr acc
  done;
  !acc

(* Time [units] kernel units; returns each unit's wall seconds. *)
let time_units units =
  Array.init units (fun _ ->
      let t0 = Mccm_obs.Clock.now_ns () in
      ignore (Sys.opaque_identity (unit ()));
      float_of_int (Mccm_obs.Clock.now_ns () - t0) /. 1e9)

let factor ~reference ~measured =
  if measured > 0.0 then reference /. measured else nan

(* The run's factor from all of its kernel unit times. *)
let run_factor unit_times =
  factor ~reference:reference_unit_s ~measured:(Pstats.median unit_times)

let time_ f raw = raw *. f
let rate f raw = raw /. f
