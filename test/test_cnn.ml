(* Unit and property tests for the CNN representation and model zoo. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------ Shape *)

let test_shape_basics () =
  let s = Cnn.Shape.v ~channels:3 ~height:224 ~width:224 in
  check "elements" (3 * 224 * 224) (Cnn.Shape.elements s);
  Alcotest.(check string) "to_string" "3x224x224" (Cnn.Shape.to_string s)

let test_shape_invalid () =
  Alcotest.check_raises "zero channel"
    (Invalid_argument "Shape.v: non-positive dimension") (fun () ->
      ignore (Cnn.Shape.v ~channels:0 ~height:1 ~width:1))

let test_conv_output_same () =
  let s = Cnn.Shape.v ~channels:3 ~height:224 ~width:224 in
  let o =
    Cnn.Shape.conv_output s ~kernel:3 ~stride:1
      ~padding:(Cnn.Shape.same_padding ~kernel:3)
      ~out_channels:64
  in
  checkb "same padding preserves spatial" true
    (Cnn.Shape.equal o (Cnn.Shape.v ~channels:64 ~height:224 ~width:224))

let test_conv_output_strided () =
  let s = Cnn.Shape.v ~channels:3 ~height:224 ~width:224 in
  let o = Cnn.Shape.conv_output s ~kernel:7 ~stride:2 ~padding:3 ~out_channels:64 in
  check "112 high" 112 o.Cnn.Shape.height;
  check "112 wide" 112 o.Cnn.Shape.width

let test_same_padding () =
  check "k=1" 0 (Cnn.Shape.same_padding ~kernel:1);
  check "k=3" 1 (Cnn.Shape.same_padding ~kernel:3);
  check "k=7" 3 (Cnn.Shape.same_padding ~kernel:7)

(* ------------------------------------------------------------ Layer *)

let conv_layer ?(index = 0) ?(kind = Cnn.Layer.Standard) ?(in_c = 3)
    ?(out_c = 64) ?(hw = 224) ?(k = 3) ?(stride = 1) ?(extra = 0) () =
  Cnn.Layer.v ~index ~name:(Printf.sprintf "l%d" index) ~kind
    ~in_shape:(Cnn.Shape.v ~channels:in_c ~height:hw ~width:hw)
    ~out_channels:out_c ~kernel:k ~stride
    ~padding:(Cnn.Shape.same_padding ~kernel:k)
    ~extra_resident_elements:extra ()

let test_layer_weights () =
  check "standard 3x3" (64 * 3 * 3 * 3)
    (Cnn.Layer.weight_elements (conv_layer ()));
  check "pointwise" (128 * 64)
    (Cnn.Layer.weight_elements
       (conv_layer ~kind:Cnn.Layer.Pointwise ~in_c:64 ~out_c:128 ~k:1 ()));
  check "depthwise" (64 * 9)
    (Cnn.Layer.weight_elements
       (conv_layer ~kind:Cnn.Layer.Depthwise ~in_c:64 ~out_c:64 ()))

let test_layer_macs () =
  (* Standard conv: out_h*out_w*out_c*in_c*k*k. *)
  check "standard" (224 * 224 * 64 * 3 * 9) (Cnn.Layer.macs (conv_layer ()));
  (* Depthwise drops the cross-channel factor. *)
  check "depthwise" (224 * 224 * 64 * 9)
    (Cnn.Layer.macs (conv_layer ~kind:Cnn.Layer.Depthwise ~in_c:64 ~out_c:64 ()))

let test_layer_fms () =
  let l = conv_layer ~extra:100 () in
  check "ifm" (3 * 224 * 224) (Cnn.Layer.ifm_elements l);
  check "ofm" (64 * 224 * 224) (Cnn.Layer.ofm_elements l);
  check "fms includes extra"
    ((3 * 224 * 224) + (64 * 224 * 224) + 100)
    (Cnn.Layer.fms_elements l)

let test_layer_loop_extents () =
  let l = conv_layer ~in_c:16 ~out_c:32 ~hw:56 () in
  check "filters" 32 (Cnn.Layer.loop_extent l `Filters);
  check "channels" 16 (Cnn.Layer.loop_extent l `Channels);
  check "height" 56 (Cnn.Layer.loop_extent l `Height);
  check "kernel" 3 (Cnn.Layer.loop_extent l `Kernel_w);
  let dw = conv_layer ~kind:Cnn.Layer.Depthwise ~in_c:16 ~out_c:16 () in
  check "depthwise has no filter loop" 1 (Cnn.Layer.loop_extent dw `Filters)

let test_layer_invalid () =
  Alcotest.check_raises "depthwise channel mismatch"
    (Invalid_argument "Layer.v: depthwise must preserve channel count")
    (fun () ->
      ignore (conv_layer ~kind:Cnn.Layer.Depthwise ~in_c:16 ~out_c:32 ()));
  Alcotest.check_raises "pointwise kernel"
    (Invalid_argument "Layer.v: pointwise kernel must be 1") (fun () ->
      ignore (conv_layer ~kind:Cnn.Layer.Pointwise ~k:3 ()))

(* ------------------------------------------------------------ Model *)

let tiny_model () =
  let l0 = conv_layer ~index:0 () in
  let l1 =
    Cnn.Layer.v ~index:1 ~name:"l1" ~kind:Cnn.Layer.Pointwise
      ~in_shape:(Cnn.Layer.out_shape l0) ~out_channels:32 ~kernel:1 ~stride:1
      ~padding:0 ()
  in
  Cnn.Model.v ~name:"Tiny" ~abbreviation:"Tny" ~layers:[ l0; l1 ]

let test_model_ranges () =
  let m = tiny_model () in
  check "num_layers" 2 (Cnn.Model.num_layers m);
  check "macs range = total"
    (Cnn.Model.total_macs m)
    (Cnn.Model.macs_in_range m ~first:0 ~last:1);
  check "weights single layer"
    (Cnn.Layer.weight_elements (Cnn.Model.layer m 1))
    (Cnn.Model.weights_in_range m ~first:1 ~last:1)

let test_model_validation () =
  let l0 = conv_layer ~index:0 () in
  let bad = conv_layer ~index:5 () in
  Alcotest.check_raises "bad indices"
    (Invalid_argument "Model.v: layer l5 has index 5, expected 1") (fun () ->
      ignore
        (Cnn.Model.v ~name:"Bad" ~abbreviation:"B"
           ~layers:[ l0; Cnn.Layer.with_index bad ~index:5 ]))

let test_model_out_of_range () =
  let m = tiny_model () in
  Alcotest.check_raises "layer 9"
    (Invalid_argument "Model.layer: index 9 out of range") (fun () ->
      ignore (Cnn.Model.layer m 9))

(* -------------------------------------------------------- Model zoo *)

(* Conv-layer counts from the paper's Table III. *)
let test_zoo_layer_counts () =
  check "ResNet152" 155 (Cnn.Model.num_layers (Cnn.Model_zoo.resnet152 ()));
  check "ResNet50" 53 (Cnn.Model.num_layers (Cnn.Model_zoo.resnet50 ()));
  check "Xception" 74 (Cnn.Model.num_layers (Cnn.Model_zoo.xception ()));
  check "DenseNet121" 120 (Cnn.Model.num_layers (Cnn.Model_zoo.densenet121 ()));
  check "MobileNetV2" 52 (Cnn.Model.num_layers (Cnn.Model_zoo.mobilenet_v2 ()))

(* Convolutional weight totals within a few percent of the published
   architectures (Table III totals additionally include classifier and
   batch-norm parameters). *)
let test_zoo_weight_ballpark () =
  let within model lo hi =
    let w = Cnn.Model.total_weights model in
    checkb
      (Printf.sprintf "%s weights %d in [%d, %d]" model.Cnn.Model.name w lo hi)
      true
      (w >= lo && w <= hi)
  in
  within (Cnn.Model_zoo.resnet50 ()) 23_000_000 24_000_000;
  within (Cnn.Model_zoo.resnet152 ()) 57_000_000 59_000_000;
  within (Cnn.Model_zoo.xception ()) 20_000_000 21_500_000;
  within (Cnn.Model_zoo.densenet121 ()) 6_500_000 7_200_000;
  within (Cnn.Model_zoo.mobilenet_v2 ()) 2_100_000 2_300_000

(* Published MAC counts (one 224/299-input inference). *)
let test_zoo_mac_ballpark () =
  let within model lo hi =
    let m = Cnn.Model.total_macs model in
    checkb
      (Printf.sprintf "%s MACs %d in [%d, %d]" model.Cnn.Model.name m lo hi)
      true
      (m >= lo && m <= hi)
  in
  within (Cnn.Model_zoo.resnet50 ()) 3_800_000_000 4_300_000_000;
  within (Cnn.Model_zoo.mobilenet_v2 ()) 280_000_000 320_000_000;
  within (Cnn.Model_zoo.xception ()) 8_000_000_000 9_000_000_000

let test_zoo_shapes_chain () =
  (* Every layer's spatial extent must divide sensibly: outputs are
     positive and channels match declared structures. *)
  List.iter
    (fun m ->
      for i = 0 to Cnn.Model.num_layers m - 1 do
        let l = Cnn.Model.layer m i in
        let o = Cnn.Layer.out_shape l in
        checkb "positive out" true
          (o.Cnn.Shape.channels > 0 && o.Cnn.Shape.height > 0
         && o.Cnn.Shape.width > 0)
      done)
    (Cnn.Model_zoo.all ())

let test_zoo_residual_extras () =
  (* ResNet50 carries shortcut residency on mid-block layers. *)
  let m = Cnn.Model_zoo.resnet50 () in
  let with_extra =
    List.length
      (List.filter
         (fun (l : Cnn.Layer.t) -> l.Cnn.Layer.extra_resident_elements > 0)
         (Cnn.Model.layers_in_range m ~first:0 ~last:(Cnn.Model.num_layers m - 1)))
  in
  (* 16 blocks x (c1-of-first-block + c2 + c3 coverage) => at least 32. *)
  checkb "many layers carry shortcut residency" true (with_extra >= 32)

let test_zoo_depthwise_presence () =
  let count_kind m kind =
    List.length
      (List.filter
         (fun (l : Cnn.Layer.t) -> l.Cnn.Layer.kind = kind)
         (Cnn.Model.layers_in_range m ~first:0 ~last:(Cnn.Model.num_layers m - 1)))
  in
  check "MobileNetV2 depthwise" 17
    (count_kind (Cnn.Model_zoo.mobilenet_v2 ()) Cnn.Layer.Depthwise);
  check "Xception depthwise" 34
    (count_kind (Cnn.Model_zoo.xception ()) Cnn.Layer.Depthwise);
  check "ResNet50 has none" 0
    (count_kind (Cnn.Model_zoo.resnet50 ()) Cnn.Layer.Depthwise)

let test_zoo_lookup () =
  checkb "res50" true (Cnn.Model_zoo.by_abbreviation "res50" <> None);
  checkb "XCP case-insensitive" true (Cnn.Model_zoo.by_abbreviation "XCP" <> None);
  checkb "unknown" true (Cnn.Model_zoo.by_abbreviation "nope" = None);
  (* Every extended-zoo name, in mixed case, builds its own model. *)
  List.iter
    (fun (name, generate) ->
      checkb name true (Cnn.Model_zoo.by_abbreviation name = Some (generate ())))
    [ ("rES152", Cnn.Model_zoo.resnet152); ("rEs50", Cnn.Model_zoo.resnet50);
      ("xcP", Cnn.Model_zoo.xception); ("dNS121", Cnn.Model_zoo.densenet121);
      ("mObv2", Cnn.Model_zoo.mobilenet_v2);
      ("EFFb0", Cnn.Model_zoo.efficientnet_b0);
      ("mNASa1", Cnn.Model_zoo.mnasnet_a1); ("vgG16", Cnn.Model_zoo.vgg16) ]

let test_zoo_input_shapes () =
  checkb "imagenet input" true
    (Cnn.Shape.equal
       (Cnn.Model.input_shape (Cnn.Model_zoo.resnet50 ()))
       (Cnn.Shape.v ~channels:3 ~height:224 ~width:224));
  checkb "xception input" true
    (Cnn.Shape.equal
       (Cnn.Model.input_shape (Cnn.Model_zoo.xception ()))
       (Cnn.Shape.v ~channels:3 ~height:299 ~width:299))

(* ------------------------------------------------------- properties *)

let layer_gen =
  QCheck2.Gen.(
    let* in_c = int_range 1 64 in
    let* out_c = int_range 1 64 in
    let* hw = int_range 7 64 in
    let* k = oneofl [ 1; 3; 5; 7 ] in
    let* stride = int_range 1 2 in
    return (in_c, out_c, hw, k, stride))

let prop_macs_vs_weights =
  QCheck2.Test.make ~name:"macs = weights x output spatial (standard conv)"
    layer_gen (fun (in_c, out_c, hw, k, stride) ->
      let l =
        Cnn.Layer.v ~index:0 ~name:"p" ~kind:Cnn.Layer.Standard
          ~in_shape:(Cnn.Shape.v ~channels:in_c ~height:hw ~width:hw)
          ~out_channels:out_c ~kernel:k ~stride
          ~padding:(Cnn.Shape.same_padding ~kernel:k)
          ()
      in
      let o = Cnn.Layer.out_shape l in
      Cnn.Layer.macs l
      = Cnn.Layer.weight_elements l * o.Cnn.Shape.height * o.Cnn.Shape.width)

let prop_out_shape_shrinks =
  QCheck2.Test.make ~name:"stride-2 halves spatial extent (same padding)"
    layer_gen (fun (in_c, out_c, hw, k, _) ->
      QCheck2.assume (k mod 2 = 1);
      let l =
        Cnn.Layer.v ~index:0 ~name:"p" ~kind:Cnn.Layer.Standard
          ~in_shape:(Cnn.Shape.v ~channels:in_c ~height:hw ~width:hw)
          ~out_channels:out_c ~kernel:k ~stride:2
          ~padding:(Cnn.Shape.same_padding ~kernel:k)
          ()
      in
      let o = Cnn.Layer.out_shape l in
      o.Cnn.Shape.height = ((hw - 1) / 2) + 1 || o.Cnn.Shape.height = hw / 2)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_macs_vs_weights; prop_out_shape_shrinks ]

let () =
  Alcotest.run "cnn"
    [
      ( "shape",
        [
          Alcotest.test_case "basics" `Quick test_shape_basics;
          Alcotest.test_case "invalid" `Quick test_shape_invalid;
          Alcotest.test_case "conv same" `Quick test_conv_output_same;
          Alcotest.test_case "conv strided" `Quick test_conv_output_strided;
          Alcotest.test_case "same padding" `Quick test_same_padding;
        ] );
      ( "layer",
        [
          Alcotest.test_case "weights" `Quick test_layer_weights;
          Alcotest.test_case "macs" `Quick test_layer_macs;
          Alcotest.test_case "fms" `Quick test_layer_fms;
          Alcotest.test_case "loop extents" `Quick test_layer_loop_extents;
          Alcotest.test_case "invalid" `Quick test_layer_invalid;
        ] );
      ( "model",
        [
          Alcotest.test_case "ranges" `Quick test_model_ranges;
          Alcotest.test_case "validation" `Quick test_model_validation;
          Alcotest.test_case "out of range" `Quick test_model_out_of_range;
        ] );
      ( "zoo",
        [
          Alcotest.test_case "layer counts (Table III)" `Quick test_zoo_layer_counts;
          Alcotest.test_case "weight ballpark" `Quick test_zoo_weight_ballpark;
          Alcotest.test_case "MAC ballpark" `Quick test_zoo_mac_ballpark;
          Alcotest.test_case "shape chain" `Quick test_zoo_shapes_chain;
          Alcotest.test_case "residual extras" `Quick test_zoo_residual_extras;
          Alcotest.test_case "depthwise presence" `Quick test_zoo_depthwise_presence;
          Alcotest.test_case "lookup" `Quick test_zoo_lookup;
          Alcotest.test_case "input shapes" `Quick test_zoo_input_shapes;
        ] );
      ("properties", properties);
    ]
