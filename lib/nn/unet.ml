(* The generator network shared by the CB-GAN teacher and the distilled
   student: a pix2pix U-Net whose bottleneck is concatenated with the output
   of a cache-parameter MLP. A network shallower than log2 image_size has a
   bottleneck wider than 1x1; the conditioning vector is tiled over it. *)

type config = {
  image_size : int;
  levels : int;
  ngf : int;
  use_cond : bool;
  cond_hidden : int;
  cond_dim : int;
}

type t = {
  cfg : config;
  downs : (Layers.conv2d * Layers.batch_norm option) array;
  ups : (Layers.conv_transpose2d * Layers.batch_norm option) array;
  cond : (Layers.linear * Layers.linear * Layers.linear) option;
}

(* Encoder channel plan: ngf, 2ngf, 4ngf, then 8ngf for all deeper levels
   (the pix2pix progression). *)
let channel_plan cfg = Array.init cfg.levels (fun i -> cfg.ngf * min 8 (1 lsl min i 3))

let validate cfg =
  if cfg.image_size land (cfg.image_size - 1) <> 0 then
    invalid_arg "Unet.create: image_size must be a power of two";
  if cfg.levels < 2 || 1 lsl cfg.levels > cfg.image_size then
    invalid_arg "Unet.create: levels incompatible with image_size";
  if cfg.ngf < 1 then invalid_arg "Unet.create: ngf must be positive";
  if cfg.use_cond && (cfg.cond_dim < 1 || cfg.cond_hidden < 1) then
    invalid_arg "Unet.create: conditioning dims must be positive"

(* Each block's layers are bound with [let] in draw order: a tuple or record
   built in one expression is evaluated right to left. *)
let create rng ~prefix cfg =
  validate cfg;
  let ch = channel_plan cfg in
  let levels = cfg.levels in
  let downs =
    Array.init levels (fun i ->
        let name = Printf.sprintf "%s.down%d" prefix i in
        let conv =
          Layers.conv2d rng ~name
            ~in_channels:(if i = 0 then 1 else ch.(i - 1))
            ~out_channels:ch.(i) ~kernel:4 ~stride:2 ~pad:1 ~bias:true
        in
        (* No norm on the outermost block (pix2pix) nor on the bottleneck. *)
        let bn =
          if i = 0 || i = levels - 1 then None
          else Some (Layers.batch_norm rng ~name:(name ^ ".bn") ~channels:ch.(i))
        in
        (conv, bn))
  in
  let cond =
    if not cfg.use_cond then None
    else begin
      let linear j ~in_dim ~out_dim =
        Layers.linear rng ~name:(Printf.sprintf "%s.cond%d" prefix j) ~in_dim ~out_dim ~bias:true
      in
      (* Last layer first: the draw order of every seeded checkpoint. *)
      let l2 = linear 2 ~in_dim:cfg.cond_hidden ~out_dim:cfg.cond_dim in
      let l1 = linear 1 ~in_dim:cfg.cond_hidden ~out_dim:cfg.cond_hidden in
      let l0 = linear 0 ~in_dim:2 ~out_dim:cfg.cond_hidden in
      Some (l0, l1, l2)
    end
  in
  let bottleneck_ch = ch.(levels - 1) + if cfg.use_cond then cfg.cond_dim else 0 in
  let ups =
    Array.init levels (fun i ->
        (* Up block i consumes the previous decoder output concatenated with
           encoder level [levels-1-i] (the first consumes the conditioned
           bottleneck) and produces encoder level [levels-2-i]'s channel
           count, ending at 1 output channel. *)
        let last = i = levels - 1 in
        let out_channels = if last then 1 else ch.(levels - 2 - i) in
        let name = Printf.sprintf "%s.up%d" prefix i in
        let conv =
          Layers.conv_transpose2d rng ~name
            ~in_channels:(if i = 0 then bottleneck_ch else 2 * ch.(levels - 1 - i))
            ~out_channels ~kernel:4 ~stride:2 ~pad:1 ~bias:true
        in
        let bn =
          if last then None
          else Some (Layers.batch_norm rng ~name:(name ^ ".bn") ~channels:out_channels)
        in
        (* Heatmaps are sparse: starting the tanh near -1 (empty) makes the
           early training signal the misses to add rather than a uniform
           background to remove. *)
        if last then Option.iter (fun (b : Param.t) -> Tensor.fill b.value (-1.5)) conv.Layers.tbias;
        (conv, bn))
  in
  { cfg; downs; ups; cond }

let config t = t.cfg

let norm bn ~training y =
  match bn with Some bn -> Layers.apply_batch_norm bn ~training y | None -> y

(* The encoder's activations, outermost first. *)
let encode t ~who ~training x =
  let size = t.cfg.image_size in
  if Tensor.dim x 2 <> size || Tensor.dim x 3 <> size then
    invalid_arg (who ^ ": image size mismatch");
  let enc = Array.make t.cfg.levels (Value.const x) in
  Array.iteri
    (fun i (conv, bn) ->
      let input = if i = 0 then Value.const x else Value.leaky_relu 0.2 enc.(i - 1) in
      enc.(i) <- norm bn ~training (Layers.apply_conv2d conv input))
    t.downs;
  enc

let forward t ?(who = "Unet.forward") ?dropout ~training ?cache_params x =
  let levels = t.cfg.levels in
  let n = Tensor.dim x 0 in
  let enc = encode t ~who ~training x in
  let bottleneck =
    match (t.cond, cache_params) with
    | None, None -> enc.(levels - 1)
    | None, Some _ -> invalid_arg (who ^ ": model built without cache parameters")
    | Some _, None -> invalid_arg (who ^ ": cache parameters required")
    | Some (fc0, fc1, fc2), Some cp ->
      if Tensor.dim cp 0 <> n || Tensor.dim cp 1 <> 2 then
        invalid_arg (who ^ ": cache_params must be [n; 2]");
      let h = Value.relu (Layers.apply_linear fc0 (Value.const cp)) in
      let h = Value.relu (Layers.apply_linear fc1 h) in
      let h = Value.reshape (Layers.apply_linear fc2 h) [| n; t.cfg.cond_dim; 1; 1 |] in
      let b = t.cfg.image_size lsr levels in
      Value.concat_channels enc.(levels - 1)
        (if b > 1 then Value.broadcast_spatial h ~h:b ~w:b else h)
  in
  let dropout_blocks = min 3 (max 0 (levels - 2)) in
  let d = ref bottleneck in
  Array.iteri
    (fun i (conv, bn) ->
      let y = Layers.apply_conv_transpose2d conv (Value.relu !d) in
      if i = levels - 1 then d := Value.tanh_ y
      else begin
        let y = norm bn ~training y in
        let y =
          match dropout with
          | Some (rng, rate) when i < dropout_blocks -> Value.dropout rng ~rate ~training y
          | _ -> y
        in
        d := Value.concat_channels y enc.(levels - 2 - i)
      end)
    t.ups;
  (!d, enc.(levels - 1))

let bottleneck t x =
  Value.value (encode t ~who:"Unet.bottleneck" ~training:false x).(t.cfg.levels - 1)

let bottleneck_channels t = (channel_plan t.cfg).(t.cfg.levels - 1)

let bn_params = function Some bn -> Layers.batch_norm_params bn | None -> []
let bn_state = function Some bn -> Layers.batch_norm_state bn | None -> []

let params t =
  Param.group
    [
      List.concat_map (fun (c, bn) -> Layers.conv2d_params c @ bn_params bn) (Array.to_list t.downs);
      List.concat_map
        (fun (c, bn) -> Layers.conv_transpose2d_params c @ bn_params bn)
        (Array.to_list t.ups);
      (match t.cond with
      | None -> []
      | Some (a, b, c) -> Layers.linear_params a @ Layers.linear_params b @ Layers.linear_params c);
    ]

let state t =
  List.concat_map (fun (_, bn) -> bn_state bn) (Array.to_list t.downs)
  @ List.concat_map (fun (_, bn) -> bn_state bn) (Array.to_list t.ups)

let parameter_count t = List.fold_left (fun acc p -> acc + Param.numel p) 0 (params t)

let downs t = Array.copy t.downs
let ups t = Array.copy t.ups
let cond t = t.cond
