(* Structural generators for the evaluation CNNs.  Each generator threads a
   running feature-map shape through a small mutable builder; branch layers
   (projection shortcuts) read an explicit input shape and leave the running
   shape untouched. *)

module B = struct
  type t = {
    mutable shape : Shape.t;
    mutable rev_layers : Layer.t list;
    mutable count : int;
  }

  let create input = { shape = input; rev_layers = []; count = 0 }

  let push t layer =
    t.rev_layers <- layer :: t.rev_layers;
    t.count <- t.count + 1

  (* Append a layer consuming the running shape and advance it. *)
  let add t ~name ~kind ~out_channels ~kernel ~stride ?(extra = 0) () =
    let padding =
      match kind with
      | Layer.Pointwise | Layer.Fully_connected -> 0
      | Layer.Standard | Layer.Depthwise -> Shape.same_padding ~kernel
    in
    let layer =
      Layer.v ~index:t.count ~name ~kind ~in_shape:t.shape ~out_channels
        ~kernel ~stride ~padding ~extra_resident_elements:extra ()
    in
    push t layer;
    t.shape <- Layer.out_shape layer

  (* Append a branch layer that reads [from_shape] instead of the running
     shape (projection shortcuts); the running shape is unchanged.  Returns
     the branch OFM element count so callers can keep it resident. *)
  let add_branch t ~name ~kind ~from_shape ~out_channels ~kernel ~stride
      ?(extra = 0) () =
    let padding =
      match kind with
      | Layer.Pointwise | Layer.Fully_connected -> 0
      | Layer.Standard | Layer.Depthwise -> Shape.same_padding ~kernel
    in
    let layer =
      Layer.v ~index:t.count ~name ~kind ~in_shape:from_shape ~out_channels
        ~kernel ~stride ~padding ~extra_resident_elements:extra ()
    in
    push t layer;
    Layer.ofm_elements layer

  let conv t name out_channels kernel stride =
    add t ~name ~kind:Layer.Standard ~out_channels ~kernel ~stride ()

  let pw ?(extra = 0) t name out_channels stride =
    (* A strided 1x1 "pointwise" is a standard conv in our taxonomy so that
       the pointwise invariant (kernel = stride = 1 semantics) stays crisp;
       functionally both have kernel 1. *)
    if stride = 1 then
      add t ~name ~kind:Layer.Pointwise ~out_channels ~kernel:1 ~stride ~extra
        ()
    else
      add t ~name ~kind:Layer.Standard ~out_channels ~kernel:1 ~stride ~extra
        ()

  let dw ?(extra = 0) t name kernel stride =
    add t ~name ~kind:Layer.Depthwise
      ~out_channels:t.shape.Shape.channels ~kernel ~stride ~extra ()

  (* Non-parametric pooling: spatial reduction only, no layer appended. *)
  let pool t ~stride =
    let s = t.shape in
    t.shape <-
      Shape.v ~channels:s.Shape.channels
        ~height:(max 1 ((s.Shape.height + stride - 1) / stride))
        ~width:(max 1 ((s.Shape.width + stride - 1) / stride))

  let shape t = t.shape

  let finish t ~name ~abbreviation =
    Model.v ~name ~abbreviation ~layers:(List.rev t.rev_layers)
end

let imagenet_input = Shape.v ~channels:3 ~height:224 ~width:224

(* ---------------------------------------------------------------- ResNet *)

let resnet ~name ~abbreviation ~stage_depths =
  let b = B.create imagenet_input in
  B.conv b "stem" 64 7 2;
  B.pool b ~stride:2;
  let widths = [| 64; 128; 256; 512 |] in
  List.iteri
    (fun stage depth ->
      let mid = widths.(stage) in
      let out = mid * 4 in
      for block = 0 to depth - 1 do
        let stride = if block = 0 && stage > 0 then 2 else 1 in
        let tag = Printf.sprintf "s%db%d" (stage + 1) (block + 1) in
        let block_input = B.shape b in
        let block_input_elems = Shape.elements block_input in
        (* First block of each stage needs a projection shortcut; its output
           stays resident until the elementwise add after conv3. *)
        let shortcut_elems =
          if block = 0 then
            B.add_branch b ~name:(tag ^ "_proj") ~kind:Layer.Standard
              ~from_shape:block_input ~out_channels:out ~kernel:1 ~stride ()
          else block_input_elems
        in
        let extra_c1 = if block = 0 then shortcut_elems else 0 in
        B.pw ~extra:extra_c1 b (tag ^ "_c1") mid 1;
        B.add b ~name:(tag ^ "_c2") ~kind:Layer.Standard ~out_channels:mid
          ~kernel:3 ~stride ~extra:shortcut_elems ();
        B.pw ~extra:shortcut_elems b (tag ^ "_c3") out 1
      done)
    stage_depths;
  B.finish b ~name ~abbreviation

let resnet50 () =
  resnet ~name:"ResNet50" ~abbreviation:"Res50" ~stage_depths:[ 3; 4; 6; 3 ]

let resnet152 () =
  resnet ~name:"ResNet152" ~abbreviation:"Res152"
    ~stage_depths:[ 3; 8; 36; 3 ]

(* ------------------------------------------------------------- Xception *)

let xception () =
  let b = B.create (Shape.v ~channels:3 ~height:299 ~width:299) in
  B.conv b "stem1" 32 3 2;
  B.conv b "stem2" 64 3 1;
  (* Entry-flow modules: projection shortcut (stride 2) + two separable
     convolutions + max-pool. *)
  let entry_module i out =
    let tag = Printf.sprintf "entry%d" i in
    let block_input = B.shape b in
    let shortcut =
      B.add_branch b ~name:(tag ^ "_proj") ~kind:Layer.Standard
        ~from_shape:block_input ~out_channels:out ~kernel:1 ~stride:2 ()
    in
    B.dw ~extra:shortcut b (tag ^ "_dw1") 3 1;
    B.pw ~extra:shortcut b (tag ^ "_pw1") out 1;
    B.dw ~extra:shortcut b (tag ^ "_dw2") 3 1;
    B.pw ~extra:shortcut b (tag ^ "_pw2") out 1;
    B.pool b ~stride:2
  in
  entry_module 1 128;
  entry_module 2 256;
  entry_module 3 728;
  (* Middle-flow modules: identity shortcut + three separable convs. *)
  for i = 1 to 8 do
    let tag = Printf.sprintf "mid%d" i in
    let shortcut = Shape.elements (B.shape b) in
    for j = 1 to 3 do
      B.dw ~extra:shortcut b (Printf.sprintf "%s_dw%d" tag j) 3 1;
      B.pw ~extra:shortcut b (Printf.sprintf "%s_pw%d" tag j) 728 1
    done
  done;
  (* Exit flow: one shortcut module then two plain separable convs. *)
  let block_input = B.shape b in
  let shortcut =
    B.add_branch b ~name:"exit_proj" ~kind:Layer.Standard
      ~from_shape:block_input ~out_channels:1024 ~kernel:1 ~stride:2 ()
  in
  B.dw ~extra:shortcut b "exit_dw1" 3 1;
  B.pw ~extra:shortcut b "exit_pw1" 728 1;
  B.dw ~extra:shortcut b "exit_dw2" 3 1;
  B.pw ~extra:shortcut b "exit_pw2" 1024 1;
  B.pool b ~stride:2;
  B.dw b "exit_dw3" 3 1;
  B.pw b "exit_pw3" 1536 1;
  B.dw b "exit_dw4" 3 1;
  B.pw b "exit_pw4" 2048 1;
  B.finish b ~name:"Xception" ~abbreviation:"XCp"

(* ----------------------------------------------------------- DenseNet121 *)

let densenet121 () =
  let growth = 32 in
  let b = B.create imagenet_input in
  B.conv b "stem" 64 7 2;
  B.pool b ~stride:2;
  let block_depths = [ 6; 12; 24; 16 ] in
  List.iteri
    (fun bi depth ->
      for li = 1 to depth do
        let tag = Printf.sprintf "d%dl%d" (bi + 1) li in
        (* The concatenated feature stack so far is this layer's IFM; it
           must stay resident across the bottleneck for the concatenation
           that follows. *)
        let concat_resident = Shape.elements (B.shape b) in
        B.pw b (tag ^ "_bott") (4 * growth) 1;
        B.add b ~name:(tag ^ "_conv") ~kind:Layer.Standard
          ~out_channels:growth ~kernel:3 ~stride:1 ~extra:concat_resident ();
        (* Concatenate: channels grow by [growth]; spatial unchanged. *)
        let s = B.shape b in
        b.B.shape <-
          Shape.v
            ~channels:(concat_resident / (s.Shape.height * s.Shape.width)
                       + growth)
            ~height:s.Shape.height ~width:s.Shape.width
      done;
      if bi < List.length block_depths - 1 then begin
        let s = B.shape b in
        B.pw b (Printf.sprintf "trans%d" (bi + 1)) (s.Shape.channels / 2) 1;
        B.pool b ~stride:2
      end)
    block_depths;
  B.finish b ~name:"DenseNet121" ~abbreviation:"Dns121"

(* --------------------------------------- MobileNetV2-family (MBConv) *)

(* One stack of inverted-residual (MBConv) blocks.  [settings] lists
   (expansion, out_channels, repeats, first_stride, kernel) per stage;
   identity shortcuts exist when stride is 1 and channels match, and stay
   resident through the whole expand/depthwise/project triple. *)
let mbconv_stages b ~counter settings =
  List.iter
    (fun (expansion, out, repeats, first_stride, kernel) ->
      for r = 0 to repeats - 1 do
        incr counter;
        let tag = Printf.sprintf "b%d" !counter in
        let stride = if r = 0 then first_stride else 1 in
        let in_c = (B.shape b).Shape.channels in
        let shortcut =
          if stride = 1 && in_c = out then Shape.elements (B.shape b) else 0
        in
        if expansion > 1 then
          B.pw ~extra:shortcut b (tag ^ "_exp") (expansion * in_c) 1;
        B.dw ~extra:shortcut b (tag ^ "_dw") kernel stride;
        B.pw ~extra:shortcut b (tag ^ "_prj") out 1
      done)
    settings

let mobilenet_v2 () =
  let b = B.create imagenet_input in
  B.conv b "stem" 32 3 2;
  (* First inverted residual has no expansion: depthwise + project. *)
  B.dw b "b0_dw" 3 1;
  B.pw b "b0_pw" 16 1;
  let counter = ref 0 in
  mbconv_stages b ~counter
    [ (6, 24, 2, 2, 3); (6, 32, 3, 2, 3); (6, 64, 4, 2, 3); (6, 96, 3, 1, 3);
      (6, 160, 3, 2, 3); (6, 320, 1, 1, 3) ];
  B.pw b "head" 1280 1;
  B.finish b ~name:"MobileNetV2" ~abbreviation:"MobV2"

let efficientnet_b0 () =
  let b = B.create imagenet_input in
  B.conv b "stem" 32 3 2;
  let counter = ref 0 in
  mbconv_stages b ~counter
    [ (1, 16, 1, 1, 3); (6, 24, 2, 2, 3); (6, 40, 2, 2, 5); (6, 80, 3, 2, 3);
      (6, 112, 3, 1, 5); (6, 192, 4, 2, 5); (6, 320, 1, 1, 3) ];
  B.pw b "head" 1280 1;
  B.finish b ~name:"EfficientNet-B0" ~abbreviation:"EffB0"

let mnasnet_a1 () =
  let b = B.create imagenet_input in
  B.conv b "stem" 32 3 2;
  (* SepConv block. *)
  B.dw b "b0_dw" 3 1;
  B.pw b "b0_pw" 16 1;
  let counter = ref 0 in
  mbconv_stages b ~counter
    [ (6, 24, 2, 2, 3); (3, 40, 3, 2, 5); (6, 80, 4, 2, 3); (6, 112, 2, 1, 3);
      (6, 160, 3, 2, 5); (6, 320, 1, 1, 3) ];
  B.pw b "head" 1280 1;
  B.finish b ~name:"MnasNet-A1" ~abbreviation:"MnasA1"

let vgg16 () =
  let b = B.create imagenet_input in
  let block i widths =
    List.iteri
      (fun j w -> B.conv b (Printf.sprintf "b%dc%d" i (j + 1)) w 3 1)
      widths;
    B.pool b ~stride:2
  in
  block 1 [ 64; 64 ];
  block 2 [ 128; 128 ];
  block 3 [ 256; 256; 256 ];
  block 4 [ 512; 512; 512 ];
  block 5 [ 512; 512; 512 ];
  B.finish b ~name:"VGG16" ~abbreviation:"VGG16"

(* ------------------------------------------------------------------ API *)

let all () =
  [ resnet152 (); resnet50 (); xception (); densenet121 (); mobilenet_v2 () ]

(* Each generator under the abbreviation its model carries, so a lookup
   builds only the model it returns. *)
let generators =
  [ ("Res152", resnet152); ("Res50", resnet50); ("XCp", xception);
    ("Dns121", densenet121); ("MobV2", mobilenet_v2);
    ("EffB0", efficientnet_b0); ("MnasA1", mnasnet_a1); ("VGG16", vgg16) ]

let extended () = List.map (fun (_, generate) -> generate ()) generators

let by_abbreviation s =
  let target = String.lowercase_ascii s in
  List.find_map
    (fun (abbreviation, generate) ->
      if String.lowercase_ascii abbreviation = target then Some (generate ())
      else None)
    generators
