(* Order statistics shared by every workload.

   Timings are summarised by their median and by the highest percentile
   of a fixed ladder that still has at least [min_beyond] samples above
   it, reported together with the sample count, so a tail figure is
   never read off a handful of points. *)

let min_beyond = 10

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let median a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Percentiles are expressed in hundredths of a percent so the rank
   arithmetic stays exact: 9900 is p99, 9990 is p99.9. *)
let rank ~n ~pm = max 1 (((pm * n) + 9999) / 10000)

(* Nearest-rank percentile: the smallest sample with at least [pm]
   hundredths of a percent of the samples at or below it. *)
let percentile_pm a ~pm =
  let n = Array.length a in
  if n = 0 then nan else (sorted a).(min n (rank ~n ~pm) - 1)

let percentile a ~p = percentile_pm a ~pm:(int_of_float (Float.round (p *. 100.0)))

(* Samples strictly above the nearest-rank percentile position. *)
let beyond ~n ~pm = n - rank ~n ~pm

let ladder = [ 5000; 9000; 9900; 9990; 9999 ]

let label_of_pm pm =
  if pm mod 100 = 0 then Printf.sprintf "p%d" (pm / 100)
  else if pm mod 10 = 0 then Printf.sprintf "p%d.%d" (pm / 100) (pm mod 100 / 10)
  else Printf.sprintf "p%d.%02d" (pm / 100) (pm mod 100)

(* The highest ladder percentile with at least [min_beyond] samples
   beyond it: [Some (pm, value)], or [None] when even the median has
   too few samples above it. *)
let highest_percentile a =
  let n = Array.length a in
  List.fold_left
    (fun acc pm ->
      if beyond ~n ~pm >= min_beyond then Some (pm, percentile_pm a ~pm)
      else acc)
    None ladder
