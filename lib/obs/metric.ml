type counter = { c_name : string; c_cell : int Atomic.t }
type gauge = { g_name : string; g_cell : float Atomic.t }

(* One histogram cell per (histogram, domain): the observe path touches
   only domain-local mutable state, so parallel sweeps never contend.
   Cells register themselves in [hist_cells] on first use so a snapshot
   can find them after their domain has joined. *)
type hcell = {
  mutable h_samples : float array;
  mutable h_len : int;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type histogram = { h_name : string; h_cap : int; h_key : hcell Domain.DLS.key }

let registry_mutex = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 64
let hist_cells : (string * hcell) list ref = ref []

let with_registry f = Mutex.protect registry_mutex f

(* Gauges start at nan = "unset": max-merging and rendering skip them
   without a separate presence bit. *)
let unset = Float.nan

let counter name =
  with_registry (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c = { c_name = name; c_cell = Atomic.make 0 } in
        Hashtbl.add counters name c;
        c)

let gauge name =
  with_registry (fun () ->
      match Hashtbl.find_opt gauges name with
      | Some g -> g
      | None ->
        let g = { g_name = name; g_cell = Atomic.make unset } in
        Hashtbl.add gauges name g;
        g)

let fresh_cell () =
  {
    h_samples = [||];
    h_len = 0;
    h_count = 0;
    h_sum = 0.0;
    h_min = infinity;
    h_max = neg_infinity;
  }

let histogram ?(cap = 8192) name =
  with_registry (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
        let h =
          {
            h_name = name;
            h_cap = max 1 cap;
            h_key =
              Domain.DLS.new_key (fun () ->
                  let cell = fresh_cell () in
                  Mutex.protect registry_mutex (fun () ->
                      hist_cells := (name, cell) :: !hist_cells);
                  cell);
          }
        in
        Hashtbl.add histograms name h;
        h)

let incr c = if Control.stats_on () then Atomic.incr c.c_cell
let add c n = if Control.stats_on () then ignore (Atomic.fetch_and_add c.c_cell n)
let value c = Atomic.get c.c_cell
let set g v = if Control.stats_on () then Atomic.set g.g_cell v

let update_max g v =
  if Control.stats_on () then begin
    let rec go () =
      let cur = Atomic.get g.g_cell in
      if Float.is_nan cur || v > cur then
        if not (Atomic.compare_and_set g.g_cell cur v) then go ()
    in
    go ()
  end

let observe h v =
  if Control.stats_on () then begin
    let c = Domain.DLS.get h.h_key in
    c.h_count <- c.h_count + 1;
    c.h_sum <- c.h_sum +. v;
    if v < c.h_min then c.h_min <- v;
    if v > c.h_max then c.h_max <- v;
    if c.h_len < h.h_cap then begin
      if c.h_len = Array.length c.h_samples then begin
        let grown = Array.make (min h.h_cap (max 16 (2 * c.h_len))) 0.0 in
        Array.blit c.h_samples 0 grown 0 c.h_len;
        c.h_samples <- grown
      end;
      c.h_samples.(c.h_len) <- v;
      c.h_len <- c.h_len + 1
    end
  end

(* ------------------------------------------------------- snapshots *)

type hist_snapshot = {
  count : int;
  sum : float;
  min : float;
  max : float;
  samples : float array;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

let empty_hist =
  { count = 0; sum = 0.0; min = infinity; max = neg_infinity; samples = [||] }

let merge_hist a b =
  let samples = Array.append a.samples b.samples in
  Array.sort compare samples;
  {
    count = a.count + b.count;
    sum = a.sum +. b.sum;
    min = Float.min a.min b.min;
    max = Float.max a.max b.max;
    samples;
  }

let by_name (a, _) (b, _) = compare (a : string) b

let snapshot () =
  with_registry (fun () ->
      let counters =
        Hashtbl.fold (fun name c acc -> (name, Atomic.get c.c_cell) :: acc)
          counters []
        |> List.sort by_name
      in
      let gauges =
        Hashtbl.fold
          (fun name g acc ->
            let v = Atomic.get g.g_cell in
            if Float.is_nan v then acc else (name, v) :: acc)
          gauges []
        |> List.sort by_name
      in
      let hists = Hashtbl.create 16 in
      List.iter
        (fun (name, (c : hcell)) ->
          let piece =
            {
              count = c.h_count;
              sum = c.h_sum;
              min = c.h_min;
              max = c.h_max;
              samples = Array.sub c.h_samples 0 c.h_len;
            }
          in
          let prev =
            Option.value (Hashtbl.find_opt hists name) ~default:empty_hist
          in
          Hashtbl.replace hists name (merge_hist prev piece))
        !hist_cells;
      let histograms =
        Hashtbl.fold (fun name h acc -> (name, h) :: acc) hists []
        |> List.sort by_name
      in
      { counters; gauges; histograms })

(* Union of two sorted assoc lists, combining values on a shared key —
   the merge is commutative as long as [combine] is. *)
let union combine a b =
  let rec go a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (ka, va) :: ta, (kb, vb) :: tb ->
      if ka < kb then (ka, va) :: go ta b
      else if kb < ka then (kb, vb) :: go a tb
      else (ka, combine va vb) :: go ta tb
  in
  go a b

let merge a b =
  {
    counters = union ( + ) a.counters b.counters;
    gauges = union Float.max a.gauges b.gauges;
    histograms = union merge_hist a.histograms b.histograms;
  }

let reset () =
  with_registry (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_cell 0) counters;
      Hashtbl.iter (fun _ g -> Atomic.set g.g_cell unset) gauges;
      List.iter
        (fun (_, c) ->
          c.h_samples <- [||];
          c.h_len <- 0;
          c.h_count <- 0;
          c.h_sum <- 0.0;
          c.h_min <- infinity;
          c.h_max <- neg_infinity)
        !hist_cells)

let quantile h ~q =
  Util.Stats.quantile (Array.to_list h.samples) ~q

(* ----------------------------------------------- snapshot JSON *)

(* Exact serialization over Util.Json: full sample arrays (so quantiles
   recompute bit-for-bit after a round trip through %.17g floats), with
   the empty-histogram sentinels min = infinity / max = neg_infinity
   encoded as JSON null (Util.Json renders non-finite numbers as null
   anyway, so this keeps the value-level and string-level round trips
   identical). *)

let hist_to_json h =
  let bound v = if Float.is_finite v then Util.Json.Num v else Util.Json.Null in
  Util.Json.Obj
    [
      ("count", Util.Json.Num (float_of_int h.count));
      ("sum", Util.Json.Num h.sum);
      ("min", bound h.min);
      ("max", bound h.max);
      ( "samples",
        Util.Json.Arr
          (Array.to_list (Array.map (fun v -> Util.Json.Num v) h.samples)) );
    ]

let to_json s =
  Util.Json.Obj
    [
      ( "counters",
        Util.Json.Obj
          (List.map
             (fun (k, v) -> (k, Util.Json.Num (float_of_int v)))
             s.counters) );
      ( "gauges",
        Util.Json.Obj (List.map (fun (k, v) -> (k, Util.Json.Num v)) s.gauges)
      );
      ( "histograms",
        Util.Json.Obj (List.map (fun (k, h) -> (k, hist_to_json h)) s.histograms)
      );
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let obj what = function
    | Some (Util.Json.Obj kvs) -> Ok kvs
    | Some _ -> Error (what ^ ": expected an object")
    | None -> Error (what ^ ": missing")
  in
  let num what = function
    | Some (Util.Json.Num v) -> Ok v
    | Some _ | None -> Error (what ^ ": expected a number")
  in
  let int_ what = function
    | Some (Util.Json.Num v) when Float.is_integer v -> Ok (int_of_float v)
    | Some _ | None -> Error (what ^ ": expected an integer")
  in
  let bound what ~empty = function
    | Some Util.Json.Null -> Ok empty
    | Some (Util.Json.Num v) -> Ok v
    | Some _ | None -> Error (what ^ ": expected a number or null")
  in
  let rec each f acc = function
    | [] -> Ok (List.rev acc)
    | kv :: tl ->
      let* x = f kv in
      each f (x :: acc) tl
  in
  let hist_of_json name = function
    | Util.Json.Obj _ as hj ->
      let m k = Util.Json.member k hj in
      let* count = int_ (name ^ ".count") (m "count") in
      let* sum = num (name ^ ".sum") (m "sum") in
      let* min = bound (name ^ ".min") ~empty:infinity (m "min") in
      let* max = bound (name ^ ".max") ~empty:neg_infinity (m "max") in
      let* samples =
        match m "samples" with
        | Some (Util.Json.Arr xs) ->
          let* l =
            each
              (function
                | Util.Json.Num v -> Ok v
                | _ -> Error (name ^ ".samples: expected numbers"))
              [] xs
          in
          Ok (Array.of_list l)
        | Some _ | None -> Error (name ^ ".samples: expected an array")
      in
      Ok { count; sum; min; max; samples }
    | _ -> Error (name ^ ": expected a histogram object")
  in
  match j with
  | Util.Json.Obj _ ->
    let* cs = obj "counters" (Util.Json.member "counters" j) in
    let* counters =
      each
        (fun (k, v) ->
          let* n = int_ ("counters." ^ k) (Some v) in
          Ok (k, n))
        [] cs
    in
    let* gs = obj "gauges" (Util.Json.member "gauges" j) in
    let* gauges =
      each
        (fun (k, v) ->
          let* n = num ("gauges." ^ k) (Some v) in
          Ok (k, n))
        [] gs
    in
    let* hs = obj "histograms" (Util.Json.member "histograms" j) in
    let* histograms =
      each
        (fun (k, v) ->
          let* h = hist_of_json ("histograms." ^ k) v in
          Ok (k, h))
        [] hs
    in
    Ok { counters; gauges; histograms }
  | _ -> Error "snapshot: expected an object"

(* ----------------------------------------------------------- delta *)

(* Sorted-multiset difference [later \ earlier]; under the monotone
   precondition every sample of [earlier] still appears in [later]. *)
let diff_samples later earlier =
  let n = Array.length later and m = Array.length earlier in
  let out = ref [] in
  let i = ref 0 and j = ref 0 in
  (* [incr] is shadowed by this module's counter op. *)
  let bump r = r := !r + 1 in
  while !i < n do
    let v = later.(!i) in
    if !j >= m then begin
      out := v :: !out;
      bump i
    end
    else
      let c = compare earlier.(!j) v in
      if c = 0 then begin
        bump i;
        bump j
      end
      else if c < 0 then bump j
      else begin
        out := v :: !out;
        bump i
      end
  done;
  Array.of_list (List.rev !out)

let delta_hist later earlier =
  let count = Stdlib.max 0 (later.count - earlier.count) in
  let samples = diff_samples later.samples earlier.samples in
  if count = 0 && Array.length samples = 0 then empty_hist
  else
    {
      count;
      sum = later.sum -. earlier.sum;
      min = later.min;
      max = later.max;
      samples;
    }

let delta later earlier =
  let counters =
    List.map
      (fun (k, v) ->
        (k, v - Option.value ~default:0 (List.assoc_opt k earlier.counters)))
      later.counters
  in
  let histograms =
    List.map
      (fun (k, h) ->
        ( k,
          delta_hist h
            (Option.value ~default:empty_hist
               (List.assoc_opt k earlier.histograms)) ))
      later.histograms
  in
  { counters; gauges = later.gauges; histograms }

(* ------------------------------------------------------- rendering *)

let pp ppf s =
  (* Defensive sort: snapshots are built sorted, but render
     deterministically whatever the caller assembled. *)
  let s =
    {
      counters = List.sort by_name s.counters;
      gauges = List.sort by_name s.gauges;
      histograms = List.sort by_name s.histograms;
    }
  in
  let scalars =
    Util.Table.create ~title:"counters & gauges"
      ~columns:[ ("metric", Util.Table.Left); ("value", Util.Table.Right) ]
      ()
  in
  List.iter
    (fun (name, v) ->
      if v <> 0 then Util.Table.add_row scalars [ name; string_of_int v ])
    s.counters;
  List.iter
    (fun (name, v) ->
      Util.Table.add_row scalars [ name; Format.sprintf "%.4g" v ])
    s.gauges;
  Format.fprintf ppf "@[<v>%s" (String.trim (Util.Table.render scalars));
  let nonempty = List.filter (fun (_, h) -> h.count > 0) s.histograms in
  if nonempty <> [] then begin
    let hists =
      Util.Table.create ~title:"span durations"
        ~columns:
          [ ("span", Util.Table.Left); ("count", Util.Table.Right);
            ("total", Util.Table.Right); ("p50", Util.Table.Right);
            ("p95", Util.Table.Right); ("p99", Util.Table.Right);
            ("max", Util.Table.Right) ]
        ()
    in
    let ms v = Format.sprintf "%.3f ms" (1e3 *. v) in
    List.iter
      (fun (name, h) ->
        Util.Table.add_row hists
          [ name; string_of_int h.count; ms h.sum;
            ms (quantile h ~q:0.50); ms (quantile h ~q:0.95);
            ms (quantile h ~q:0.99); ms h.max ])
      nonempty;
    Format.fprintf ppf "@,%s" (String.trim (Util.Table.render hists))
  end;
  Format.fprintf ppf "@]"
