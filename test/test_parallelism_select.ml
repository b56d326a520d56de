(* Builder.Parallelism_select against its slow reference (Parallelism_ref,
   the original list-based search): [choose], [choose_indices] and
   [smooth_degree] must agree with it exactly, factor by factor.

   The shared 7-smooth table starts small and grows on demand, so the
   first batch runs on four domains before any sequential call: the
   table grows while several domains read and extend it. *)

module P = Engine.Parallelism
module S = Builder.Parallelism_select

(* One input: a model and the index lists an engine could be given
   (a contiguous range, the slots of a pipelined block), at a PE count. *)
type case = { model : Cnn.Model.t; sets : int list list; pes : int }

let model_of name layers =
  Cnn.Model.v ~name ~abbreviation:name
    ~layers:
      (List.mapi
         (fun index mk -> mk ~index ~name:(Printf.sprintf "%s%d" name index))
         layers)

(* A range of a random model plus the pipelined slots over it. *)
let model_case =
  QCheck2.Gen.(
    map
      (fun (model, (a, b, ces)) ->
        let n = Cnn.Model.num_layers model in
        let first = min (a mod n) (b mod n) and last = max (a mod n) (b mod n) in
        let range = List.init (last - first + 1) (fun k -> first + k) in
        let slots =
          Array.to_list (Builder.Workload.pipelined_assignment ~ces ~first ~last)
        in
        (model, range :: slots))
      (pair Generators.model (triple small_nat small_nat (int_range 1 6))))

(* Every loop extent is 1, so every candidate ties: the answer is 1x1x1. *)
let unit_layer ~index ~name =
  Cnn.Layer.v ~index ~name ~kind:Cnn.Layer.Pointwise
    ~in_shape:(Cnn.Shape.v ~channels:1 ~height:1 ~width:1)
    ~out_channels:1 ~kernel:1 ~stride:1 ~padding:0 ()

let unit_case =
  QCheck2.Gen.map
    (fun n ->
      (model_of "unit" (List.init n (fun _ -> unit_layer)), [ List.init n Fun.id ]))
    (QCheck2.Gen.int_range 1 6)

(* The first depthwise layer alone outweighs the trailing pointwise one
   (a 3x3 or 5x5 kernel against one filter, at least half the output
   height and width), so depthwise MACs are the majority and the engine
   runs in channel mode. *)
let depthwise_case =
  QCheck2.Gen.(
    map
      (fun (dws, hw) ->
        let dw (c, k, stride) ~index ~name =
          Cnn.Layer.v ~index ~name ~kind:Cnn.Layer.Depthwise
            ~in_shape:(Cnn.Shape.v ~channels:c ~height:hw ~width:hw)
            ~out_channels:c ~kernel:k ~stride ~padding:(k / 2) ()
        in
        let c, _, _ = List.hd dws in
        let pw ~index ~name =
          Cnn.Layer.v ~index ~name ~kind:Cnn.Layer.Pointwise
            ~in_shape:(Cnn.Shape.v ~channels:c ~height:hw ~width:hw)
            ~out_channels:1 ~kernel:1 ~stride:1 ~padding:0 ()
        in
        let layers = List.map dw dws @ [ pw ] in
        let m = model_of "dw" layers in
        (m, [ List.init (List.length layers) Fun.id ]))
      (pair
         (list_size (int_range 1 5)
            (triple (int_range 1 1024) (oneofl [ 3; 5 ]) (int_range 1 2)))
         (int_range 5 112)))

let case_gen =
  QCheck2.Gen.(
    map
      (fun ((model, sets), pes) -> { model; sets; pes })
      (pair
         (frequency [ (6, model_case); (1, unit_case); (2, depthwise_case) ])
         (oneof [ int_range 1 64; int_range 1 4096; int_range 1 3_000_000 ])))

let print_case c =
  Printf.sprintf "%s (%d layers), pes %d, sets %s" c.model.Cnn.Model.name
    (Cnn.Model.num_layers c.model) c.pes
    (String.concat " | "
       (List.map (fun s -> String.concat "," (List.map string_of_int s)) c.sets))

(* The library's answers for one case: per index set, [choose] and
   [choose_indices]; and [smooth_degree pes]. *)
let fast c =
  let t = Cnn.Table.of_model c.model in
  ( List.map
      (fun s ->
        ( S.choose ~pes:c.pes ~layers:(List.map (Cnn.Model.layer c.model) s),
          S.choose_indices ~pes:c.pes t s ))
      c.sets,
    S.smooth_degree c.pes )

let same a b = List.for_all (fun d -> P.factor a d = P.factor b d) P.all_dims

(* [fast]'s answers against the reference, all six factors each. *)
let agrees c (picks, smooth) =
  smooth = Parallelism_ref.smooth_degree c.pes
  && List.for_all2
       (fun s (by_layers, by_indices) ->
         let want =
           Parallelism_ref.choose ~pes:c.pes
             ~layers:(List.map (Cnn.Model.layer c.model) s)
         in
         let ok = same by_layers want && same by_indices want in
         if not ok then
           Printf.eprintf "choose %s / choose_indices %s, reference %s\n%!"
             (Fmt.to_to_string P.pp by_layers)
             (Fmt.to_to_string P.pp by_indices)
             (Fmt.to_to_string P.pp want);
         ok)
       c.sets picks

let test_pooled_first_batch () =
  let rand = Random.State.make [| 14 |] in
  let cases = Array.of_list (QCheck2.Gen.generate ~rand ~n:96 case_gen) in
  let answers =
    List.concat
      (Util.Parallel.map_pooled ~clamp:false ~domains:4
         ~n:(Array.length cases) (fun ~worker:_ ~chunk:_ ~lo ~hi ->
           List.init (hi - lo) (fun k -> fast cases.(lo + k))))
  in
  List.iteri
    (fun i a ->
      if not (agrees cases.(i) a) then
        Alcotest.failf "case %d disagrees: %s" i (print_case cases.(i)))
    answers

let prop_matches_reference =
  QCheck2.Test.make ~name:"choose and choose_indices equal the reference"
    ~count:200 ~print:print_case case_gen (fun c -> agrees c (fast c))

let test_unit_extents () =
  let layers =
    List.init 3 (fun index -> unit_layer ~index ~name:(string_of_int index))
  in
  List.iter
    (fun pes ->
      Alcotest.(check bool)
        (Printf.sprintf "1x1x1 at %d PEs" pes)
        true
        (same (S.choose ~pes ~layers) P.scalar))
    [ 1; 7; 4096; 3_000_000 ]

let () =
  Alcotest.run "parallelism_select"
    [
      ( "reference",
        [
          (* Must stay first: it is what grows the table under contention. *)
          Alcotest.test_case "pooled first batch" `Quick test_pooled_first_batch;
          Alcotest.test_case "unit extents" `Quick test_unit_extents;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1499 |])
            prop_matches_reference;
        ] );
    ]
