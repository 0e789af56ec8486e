open Mikpoly_tensor

type config = {
  name : string;
  build : batch:int -> resolution:int -> Op.graph;
}

(* Imperative layer-stack builder tracking the feature map through the
   network. *)
type state = {
  batch : int;
  mutable spatial : int;
  mutable channels : int;
  mutable rev_ops : Op.t list;
  mutable counter : int;
}

let fresh ~batch ~resolution = { batch; spatial = resolution; channels = 3; rev_ops = []; counter = 0 }

let label st prefix =
  st.counter <- st.counter + 1;
  Printf.sprintf "%s%d" prefix st.counter

let push st op = st.rev_ops <- op :: st.rev_ops

let conv ?(stride = 1) ?pad ?(track = true) st ~out_channels ~kernel =
  let spec =
    Conv_spec.make ~stride ?pad ~batch:st.batch ~in_channels:st.channels
      ~out_channels ~in_h:st.spatial ~in_w:st.spatial ~kernel ()
  in
  push st (Op.conv ~label:(label st "conv") spec);
  if track then begin
    st.spatial <- Conv_spec.out_h spec;
    st.channels <- out_channels
  end

let act_bytes st = float_of_int (st.batch * st.channels * st.spatial * st.spatial) *. 2.

let relu st = push st (Op.mem ~label:(label st "relu") ~bytes:(2. *. act_bytes st))

let residual st = push st (Op.mem ~label:(label st "residual") ~bytes:(3. *. act_bytes st))

let maxpool ?(kernel = 3) ?(stride = 2) ?(pad = 0) st =
  push st (Op.mem ~label:(label st "pool") ~bytes:(2. *. act_bytes st));
  st.spatial <- max 1 (Conv_spec.out_dim st.spatial kernel stride pad)

let adaptive_pool st target =
  push st (Op.mem ~label:(label st "adaptive_pool") ~bytes:(2. *. act_bytes st));
  st.spatial <- target

let fc st ~out ~in_features =
  push st (Op.gemm ~label:(label st "fc") ~m:st.batch ~n:out ~k:in_features ())

let finish st name = Op.graph ~name (List.rev st.rev_ops)

let graph_name base ~batch ~resolution =
  Printf.sprintf "%s@b%d-r%d" base batch resolution

let alexnet =
  let build ~batch ~resolution =
    let st = fresh ~batch ~resolution in
    conv st ~out_channels:64 ~kernel:11 ~stride:4 ~pad:2;
    relu st;
    maxpool st;
    conv st ~out_channels:192 ~kernel:5;
    relu st;
    maxpool st;
    conv st ~out_channels:384 ~kernel:3;
    relu st;
    conv st ~out_channels:256 ~kernel:3;
    relu st;
    conv st ~out_channels:256 ~kernel:3;
    relu st;
    maxpool st;
    adaptive_pool st 6;
    fc st ~out:4096 ~in_features:(256 * 6 * 6);
    fc st ~out:4096 ~in_features:4096;
    fc st ~out:1000 ~in_features:4096;
    finish st (graph_name "alexnet" ~batch ~resolution)
  in
  { name = "alexnet"; build }

let vgg11 =
  let build ~batch ~resolution =
    let st = fresh ~batch ~resolution in
    let block channels n =
      for _ = 1 to n do
        conv st ~out_channels:channels ~kernel:3;
        relu st
      done;
      maxpool st ~kernel:2 ~stride:2
    in
    block 64 1;
    block 128 1;
    block 256 2;
    block 512 2;
    block 512 2;
    adaptive_pool st 7;
    fc st ~out:4096 ~in_features:(512 * 7 * 7);
    fc st ~out:4096 ~in_features:4096;
    fc st ~out:1000 ~in_features:4096;
    finish st (graph_name "vgg11" ~batch ~resolution)
  in
  { name = "vgg11"; build }

let resnet18 =
  let build ~batch ~resolution =
    let st = fresh ~batch ~resolution in
    conv st ~out_channels:64 ~kernel:7 ~stride:2;
    relu st;
    maxpool st ~pad:1;
    let basic_block ~channels ~downsample =
      let stride = if downsample then 2 else 1 in
      let in_spatial = st.spatial and in_channels = st.channels in
      conv st ~out_channels:channels ~kernel:3 ~stride;
      relu st;
      conv st ~out_channels:channels ~kernel:3;
      if downsample then begin
        (* 1x1 projection shortcut on the original feature map. *)
        let spec =
          Conv_spec.make ~stride:2 ~pad:0 ~batch:st.batch ~in_channels
            ~out_channels:channels ~in_h:in_spatial ~in_w:in_spatial ~kernel:1 ()
        in
        push st (Op.conv ~label:(label st "downsample") spec)
      end;
      residual st
    in
    basic_block ~channels:64 ~downsample:false;
    basic_block ~channels:64 ~downsample:false;
    basic_block ~channels:128 ~downsample:true;
    basic_block ~channels:128 ~downsample:false;
    basic_block ~channels:256 ~downsample:true;
    basic_block ~channels:256 ~downsample:false;
    basic_block ~channels:512 ~downsample:true;
    basic_block ~channels:512 ~downsample:false;
    adaptive_pool st 1;
    fc st ~out:1000 ~in_features:512;
    finish st (graph_name "resnet18" ~batch ~resolution)
  in
  { name = "resnet18"; build }

let googlenet =
  let build ~batch ~resolution =
    let st = fresh ~batch ~resolution in
    conv st ~out_channels:64 ~kernel:7 ~stride:2;
    maxpool st;
    conv st ~out_channels:64 ~kernel:1;
    conv st ~out_channels:192 ~kernel:3;
    maxpool st;
    let inception (b1, b3r, b3, b5r, b5, pp) =
      let in_channels = st.channels and spatial = st.spatial in
      let branch_conv ~in_c ~out_c ~kernel =
        let spec =
          Conv_spec.make ~batch:st.batch ~in_channels:in_c ~out_channels:out_c
            ~in_h:spatial ~in_w:spatial ~kernel ()
        in
        push st (Op.conv ~label:(label st "inception") spec)
      in
      branch_conv ~in_c:in_channels ~out_c:b1 ~kernel:1;
      branch_conv ~in_c:in_channels ~out_c:b3r ~kernel:1;
      branch_conv ~in_c:b3r ~out_c:b3 ~kernel:3;
      branch_conv ~in_c:in_channels ~out_c:b5r ~kernel:1;
      branch_conv ~in_c:b5r ~out_c:b5 ~kernel:3;
      branch_conv ~in_c:in_channels ~out_c:pp ~kernel:1;
      push st (Op.mem ~label:(label st "concat") ~bytes:(2. *. act_bytes st));
      st.channels <- b1 + b3 + b5 + pp
    in
    inception (64, 96, 128, 16, 32, 32);
    inception (128, 128, 192, 32, 96, 64);
    maxpool st;
    inception (192, 96, 208, 16, 48, 64);
    inception (160, 112, 224, 24, 64, 64);
    inception (128, 128, 256, 24, 64, 64);
    inception (112, 144, 288, 32, 64, 64);
    inception (256, 160, 320, 32, 128, 128);
    maxpool st;
    inception (256, 160, 320, 32, 128, 128);
    inception (384, 192, 384, 48, 128, 128);
    adaptive_pool st 1;
    fc st ~out:1000 ~in_features:1024;
    finish st (graph_name "googlenet" ~batch ~resolution)
  in
  { name = "googlenet"; build }

let all = [ alexnet; googlenet; resnet18; vgg11 ]

let min_resolution cfg =
  match cfg.name with
  | "alexnet" -> 64
  | "googlenet" | "resnet18" -> 64
  | _ -> 32
