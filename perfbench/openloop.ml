(* Open-loop schedule and its accounting.

   Request [i] is due at [start + i / rate], whatever happened to the
   requests before it.  Its latency runs from that due time, not from
   when the generator got round to sending it, so a stall in the
   daemon (or in the generator) is charged to every request it
   delayed.  How late the generator itself ran is reported apart. *)

type t = { start_ns : int; period_ns : float }

let create ~start_ns ~rate =
  if not (rate > 0.0) then invalid_arg "Openloop.create: non-positive rate";
  { start_ns; period_ns = 1e9 /. rate }

let due t i = t.start_ns + int_of_float (Float.round (float_of_int i *. t.period_ns))

let latency_ns t i ~reply_ns = reply_ns - due t i
let lateness_ns t i ~sent_ns = max 0 (sent_ns - due t i)

(* One request's record as the generator keeps it. *)
type outcome = {
  index : int;
  sent_ns : int;
  reply_ns : int option;  (* [None]: failed, refused or never answered *)
}

type summary = {
  sent : int;
  answered : int;
  missing : int;
  latencies_ms : float array;  (* answered requests only, from due time *)
  lateness_ms : float array;   (* every sent request *)
}

let summarise t outcomes =
  let lat = ref [] and late = ref [] and answered = ref 0 in
  List.iter
    (fun o ->
      late := (float_of_int (lateness_ns t o.index ~sent_ns:o.sent_ns) /. 1e6) :: !late;
      match o.reply_ns with
      | Some r ->
        incr answered;
        lat := (float_of_int (latency_ns t o.index ~reply_ns:r) /. 1e6) :: !lat
      | None -> ())
    outcomes;
  let sent = List.length outcomes in
  {
    sent;
    answered = !answered;
    missing = sent - !answered;
    latencies_ms = Array.of_list (List.rev !lat);
    lateness_ms = Array.of_list (List.rev !late);
  }

(* A missing request counts as missing every latency limit: for a
   percentile it sits above every answered sample. *)
let latency_percentile s ~pm =
  let with_missing =
    Array.append s.latencies_ms (Array.make s.missing infinity)
  in
  Pstats.percentile_pm with_missing ~pm
