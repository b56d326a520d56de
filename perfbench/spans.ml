(* In-memory spans recorded around calls into the program's layers.

   A span has a name ("<layer>.<call>"), monotonic start and end,
   the span that caused it and the request id it serves.  Spans stay
   in memory while the workload runs and are written out as JSON lines
   when it ends.  A span's self time is its duration minus the part of
   it that its children cover. *)

type span = {
  id : int;
  name : string;
  start_ns : int;
  end_ns : int;
  parent : int;  (* -1 for a root *)
  rid : string;
}

type t = {
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : int list;
}

let create () = { spans = []; next_id = 0; stack = [] }

let add t ?(parent = -1) ?(rid = "") name ~start_ns ~end_ns =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.spans <- { id; name; start_ns; end_ns; parent; rid } :: t.spans;
  id

(* Run [f] inside a span whose parent is the innermost open one. *)
let with_ t ?rid name f =
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let id = t.next_id in
  t.next_id <- id + 1;
  t.stack <- id :: t.stack;
  let start_ns = Mccm_obs.Clock.now_ns () in
  let finish () =
    let end_ns = Mccm_obs.Clock.now_ns () in
    t.stack <- List.tl t.stack;
    t.spans <-
      { id; name; start_ns; end_ns; parent; rid = Option.value rid ~default:"" }
      :: t.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let spans t = List.rev t.spans

(* Re-home spans recorded elsewhere (a forked window) under fresh ids,
   hanging their roots under [parent]. *)
let import t ?(parent = -1) spans =
  let base = t.next_id in
  let top = List.fold_left (fun m s -> max m s.id) (-1) spans in
  t.next_id <- base + top + 1;
  List.iter
    (fun s ->
      t.spans <-
        {
          s with
          id = base + s.id;
          parent = (if s.parent < 0 then parent else base + s.parent);
        }
        :: t.spans)
    spans

let duration_ns s = s.end_ns - s.start_ns

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, max cb b))
          else (total + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match last with Some (a, b) -> total + (b - a) | None -> total

let self_ns spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.end_ns)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      (s, duration_ns s - covered ~lo:s.start_ns ~hi:s.end_ns kids))
    spans

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Per layer: (layer, spans, total ns, self ns), in first-seen order. *)
let by_layer spans =
  let order = ref [] and acc = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let l = layer_of s.name in
      let n, tot, sf =
        match Hashtbl.find_opt acc l with
        | Some v -> v
        | None ->
          order := l :: !order;
          (0, 0, 0)
      in
      Hashtbl.replace acc l (n + 1, tot + duration_ns s, sf + self))
    (self_ns spans);
  List.rev_map
    (fun l ->
      let n, tot, sf = Hashtbl.find acc l in
      (l, n, tot, sf))
    !order

let to_json s =
  Util.Json.Obj
    [
      ("id", Util.Json.Num (float_of_int s.id));
      ("name", Util.Json.Str s.name);
      ("start_ns", Util.Json.Num (float_of_int s.start_ns));
      ("end_ns", Util.Json.Num (float_of_int s.end_ns));
      ("parent", Util.Json.Num (float_of_int s.parent));
      ("rid", Util.Json.Str s.rid);
    ]

let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (Util.Json.to_string (to_json s));
      output_char oc '\n')
    spans;
  close_out oc
