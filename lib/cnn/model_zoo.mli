(** The five CNNs of the paper's evaluation (Table III), generated
    structurally from their published architectures.

    Conv-layer counts match the paper exactly: ResNet152 155, ResNet50 53,
    Xception 74, DenseNet121 120, MobileNetV2 52.  Fully connected
    classifier layers are excluded (the paper counts convolution layers
    only and MCCM models convolutions); weight totals are therefore the
    convolutional weights, a few percent below Table III's full-model
    counts. *)

val resnet50 : unit -> Model.t
(** ResNet-50 (He et al. 2016), 224x224 input, bottleneck residual blocks
    with linearised projection shortcuts. *)

val resnet152 : unit -> Model.t
(** ResNet-152, stage depths 3/8/36/3. *)

val xception : unit -> Model.t
(** Xception (Chollet 2017), 299x299 input; separable convolutions are
    expanded into explicit depthwise + pointwise layer pairs. *)

val densenet121 : unit -> Model.t
(** DenseNet-121 (Huang et al. 2017), growth rate 32; concatenated features
    appear as growing input-channel counts and as extra resident
    feature-map elements. *)

val mobilenet_v2 : unit -> Model.t
(** MobileNetV2 (Sandler et al. 2018), inverted residual blocks expanded
    into expand / depthwise / project layer triples. *)

val efficientnet_b0 : unit -> Model.t
(** EfficientNet-B0 (Tan and Le 2019).  Not part of the paper's Table III,
    but the paper motivates generalisation through it: its MBConv blocks
    are MobileNetV2's.  Squeeze-excitation layers (not convolutions) are
    omitted. *)

val mnasnet_a1 : unit -> Model.t
(** MnasNet-A1 (Tan et al. 2019), same rationale as
    {!efficientnet_b0}. *)

val vgg16 : unit -> Model.t
(** VGG-16 (Simonyan and Zisserman 2015): the benchmark the Segmented
    baseline's original paper (Shen et al.) evaluated on — 13 uniform
    3x3 convolutions, the homogeneous extreme of the zoo. *)

val all : unit -> Model.t list
(** The five models in the paper's Table III order: ResNet152, ResNet50,
    Xception, DenseNet121, MobileNetV2. *)

val extended : unit -> Model.t list
(** {!all} plus {!efficientnet_b0}, {!mnasnet_a1} and {!vgg16}. *)

val by_abbreviation : string -> Model.t option
(** [by_abbreviation s] looks a model up by its short name (["Res152"],
    ["Res50"], ["XCp"], ["Dns121"], ["MobV2"], ["EffB0"], ["MnasA1"], ["VGG16"]);
    case-insensitive, over the models of {!extended}.  Only the matching
    model is built. *)
