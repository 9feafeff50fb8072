type config = {
  image_size : int;
  levels : int;
  ngf : int;
  ndf : int;
  disc_layers : int;
  use_cache_params : bool;
  cond_hidden : int;
  cond_dim : int;
  dropout_rate : float;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let default_config ?(image_size = 64) ?(ngf = 16) ?(ndf = 16) () =
  if image_size land (image_size - 1) <> 0 then
    invalid_arg "Cbgan.default_config: image_size must be a power of two";
  {
    image_size;
    levels = log2 image_size;
    ngf;
    ndf;
    disc_layers = 2;
    use_cache_params = true;
    cond_hidden = 32;
    cond_dim = 2 * ngf;
    dropout_rate = 0.5;
  }

type down_block = { d_conv : Layers.conv2d; d_bn : Layers.batch_norm option }

type up_block = {
  u_conv : Layers.conv_transpose2d;
  u_bn : Layers.batch_norm option;
  u_dropout : bool;
}

type generator = {
  downs : down_block array;
  ups : up_block array;
  cond : (Layers.linear * Layers.linear * Layers.linear) option;
}

type disc_block = { p_conv : Layers.conv2d; p_bn : Layers.batch_norm option }

type discriminator = { blocks : disc_block array; head : Layers.conv2d }

type t = { cfg : config; gen : generator; disc : discriminator }

(* Encoder channel plan: ngf, 2ngf, 4ngf, then 8ngf for all deeper levels
   (the pix2pix progression). *)
let channel_plan cfg =
  Array.init cfg.levels (fun i -> cfg.ngf * min 8 (1 lsl min i 3))

let build_generator rng cfg =
  let ch = channel_plan cfg in
  let levels = cfg.levels in
  let downs =
    Array.init levels (fun i ->
        let in_channels = if i = 0 then 1 else ch.(i - 1) in
        let name = Printf.sprintf "gen.down%d" i in
        let d_conv =
          Layers.conv2d rng ~name ~in_channels ~out_channels:ch.(i) ~kernel:4
            ~stride:2 ~pad:1 ~bias:true
        in
        (* No norm on the outermost block (pix2pix) nor on the 1x1
           bottleneck. *)
        let d_bn =
          if i = 0 || i = levels - 1 then None
          else Some (Layers.batch_norm rng ~name:(name ^ ".bn") ~channels:ch.(i))
        in
        { d_conv; d_bn })
  in
  let cond =
    if not cfg.use_cache_params then None
    else
      Some
        ( Layers.linear rng ~name:"gen.cond0" ~in_dim:2 ~out_dim:cfg.cond_hidden ~bias:true,
          Layers.linear rng ~name:"gen.cond1" ~in_dim:cfg.cond_hidden
            ~out_dim:cfg.cond_hidden ~bias:true,
          Layers.linear rng ~name:"gen.cond2" ~in_dim:cfg.cond_hidden
            ~out_dim:cfg.cond_dim ~bias:true )
  in
  let bottleneck_ch = ch.(levels - 1) + if cfg.use_cache_params then cfg.cond_dim else 0 in
  let dropout_blocks = min 3 (max 0 (levels - 2)) in
  let ups =
    Array.init levels (fun i ->
        (* Up block i consumes the previous decoder output concatenated with
           encoder level [levels-1-i] (except the first, which consumes the
           conditioned bottleneck) and produces encoder level
           [levels-2-i]'s channel count, ending at 1 output channel. *)
        let in_channels = if i = 0 then bottleneck_ch else 2 * ch.(levels - 1 - i) in
        let out_channels = if i = levels - 1 then 1 else ch.(levels - 2 - i) in
        let name = Printf.sprintf "gen.up%d" i in
        let u_conv =
          Layers.conv_transpose2d rng ~name ~in_channels ~out_channels ~kernel:4
            ~stride:2 ~pad:1 ~bias:true
        in
        let u_bn =
          if i = levels - 1 then None
          else Some (Layers.batch_norm rng ~name:(name ^ ".bn") ~channels:out_channels)
        in
        (* Bias the output layer towards "no misses": heatmaps are sparse,
           so starting the tanh near -1 (empty) makes the early training
           signal the misses to *add* rather than a uniform background to
           remove. *)
        if i = levels - 1 then
          Option.iter (fun (b : Param.t) -> Tensor.fill b.value (-1.5)) u_conv.Layers.tbias;
        { u_conv; u_bn; u_dropout = i < dropout_blocks })
  in
  { downs; ups; cond }

let build_discriminator rng cfg =
  let blocks =
    Array.init cfg.disc_layers (fun i ->
        let in_channels = if i = 0 then 2 else cfg.ndf * (1 lsl (i - 1)) in
        let out_channels = cfg.ndf * (1 lsl i) in
        let name = Printf.sprintf "disc.conv%d" i in
        let p_conv =
          Layers.conv2d rng ~name ~in_channels ~out_channels ~kernel:4 ~stride:2
            ~pad:1 ~bias:true
        in
        let p_bn =
          if i = 0 then None
          else Some (Layers.batch_norm rng ~name:(name ^ ".bn") ~channels:out_channels)
        in
        { p_conv; p_bn })
  in
  let head_in = cfg.ndf * (1 lsl (cfg.disc_layers - 1)) in
  let head =
    Layers.conv2d rng ~name:"disc.head" ~in_channels:head_in ~out_channels:1
      ~kernel:4 ~stride:1 ~pad:1 ~bias:true
  in
  { blocks; head }

let create ~seed cfg =
  if cfg.levels < 2 || 1 lsl cfg.levels > cfg.image_size then
    invalid_arg "Cbgan.create: levels incompatible with image_size";
  let rng = Prng.create seed in
  { cfg; gen = build_generator rng cfg; disc = build_discriminator rng cfg }

let model_config t = t.cfg

(* Read-only structure views for the inference compiler (Qgen):
   it walks the generator's layers to pack, fold and quantize weights
   without this module having to know about them. *)
let generator_downs t = Array.map (fun b -> (b.d_conv, b.d_bn)) t.gen.downs
let generator_ups t = Array.map (fun b -> (b.u_conv, b.u_bn, b.u_dropout)) t.gen.ups
let generator_cond t = t.gen.cond

let normalize_cache_params (c : Cache.config) =
  (float_of_int (log2 c.sets) /. 12.0, float_of_int c.ways /. 16.0)

let cache_params_tensor configs =
  let n = List.length configs in
  let t = Tensor.create [| n; 2 |] in
  List.iteri
    (fun i c ->
      let s, w = normalize_cache_params c in
      Tensor.set2 t i 0 s;
      Tensor.set2 t i 1 w)
    configs;
  t

let generator_forward t ~rng ~training ?cache_params x =
  let cfg = t.cfg in
  let gen = t.gen in
  let levels = cfg.levels in
  let n = Tensor.dim x 0 in
  if Tensor.dim x 2 <> cfg.image_size || Tensor.dim x 3 <> cfg.image_size then
    invalid_arg "Cbgan.generator_forward: image size mismatch";
  (* Encoder *)
  let enc = Array.make levels (Value.const x) in
  for i = 0 to levels - 1 do
    let input = if i = 0 then Value.const x else Value.leaky_relu 0.2 enc.(i - 1) in
    let y = Layers.apply_conv2d gen.downs.(i).d_conv input in
    let y =
      match gen.downs.(i).d_bn with
      | Some bn -> Layers.apply_batch_norm bn ~training y
      | None -> y
    in
    enc.(i) <- y
  done;
  (* Cache-parameter conditioning at the bottleneck *)
  let bottleneck =
    match (gen.cond, cache_params) with
    | None, None -> enc.(levels - 1)
    | None, Some _ ->
      invalid_arg "Cbgan.generator_forward: model built without cache parameters"
    | Some _, None ->
      invalid_arg "Cbgan.generator_forward: cache parameters required"
    | Some (fc0, fc1, fc2), Some cp ->
      if Tensor.dim cp 0 <> n || Tensor.dim cp 1 <> 2 then
        invalid_arg "Cbgan.generator_forward: cache_params must be [n; 2]";
      let h = Value.relu (Layers.apply_linear fc0 (Value.const cp)) in
      let h = Value.relu (Layers.apply_linear fc1 h) in
      let h = Layers.apply_linear fc2 h in
      let h = Value.reshape h [| n; cfg.cond_dim; 1; 1 |] in
      Value.concat_channels enc.(levels - 1) h
  in
  (* Decoder with skip connections *)
  let d = ref bottleneck in
  for i = 0 to levels - 1 do
    let input = Value.relu !d in
    let y = Layers.apply_conv_transpose2d t.gen.ups.(i).u_conv input in
    if i = levels - 1 then d := Value.tanh_ y
    else begin
      let y =
        match t.gen.ups.(i).u_bn with
        | Some bn -> Layers.apply_batch_norm bn ~training y
        | None -> y
      in
      let y =
        if t.gen.ups.(i).u_dropout then
          Value.dropout rng ~rate:cfg.dropout_rate ~training y
        else y
      in
      d := Value.concat_channels y enc.(levels - 2 - i)
    end
  done;
  !d

(* Eval-mode encoder tap: the bottleneck activations (pre-conditioning)
   the feature-matching distillation loss compares against. Running-stats
   batch norm makes each sample's features independent of its batch mates,
   so precomputed teacher features are bit-identical at any batching. *)
let generator_encode t x =
  let cfg = t.cfg in
  let gen = t.gen in
  let levels = cfg.levels in
  if Tensor.dim x 2 <> cfg.image_size || Tensor.dim x 3 <> cfg.image_size then
    invalid_arg "Cbgan.generator_encode: image size mismatch";
  let y = ref (Value.const x) in
  for i = 0 to levels - 1 do
    let input = if i = 0 then !y else Value.leaky_relu 0.2 !y in
    let z = Layers.apply_conv2d gen.downs.(i).d_conv input in
    let z =
      match gen.downs.(i).d_bn with
      | Some bn -> Layers.apply_batch_norm bn ~training:false z
      | None -> z
    in
    y := z
  done;
  Value.value !y

let discriminator_forward t ~training ~access ~miss =
  let pair = Value.concat_channels (Value.const access) miss in
  let y = ref pair in
  Array.iter
    (fun blk ->
      let z = Layers.apply_conv2d blk.p_conv !y in
      let z =
        match blk.p_bn with
        | Some bn -> Layers.apply_batch_norm bn ~training z
        | None -> z
      in
      y := Value.leaky_relu 0.2 z)
    t.disc.blocks;
  Layers.apply_conv2d t.disc.head !y

let generator_params t =
  let down_params =
    Array.to_list t.gen.downs
    |> List.concat_map (fun b ->
           Layers.conv2d_params b.d_conv
           @ (match b.d_bn with Some bn -> Layers.batch_norm_params bn | None -> []))
  in
  let up_params =
    Array.to_list t.gen.ups
    |> List.concat_map (fun b ->
           Layers.conv_transpose2d_params b.u_conv
           @ (match b.u_bn with Some bn -> Layers.batch_norm_params bn | None -> []))
  in
  let cond_params =
    match t.gen.cond with
    | None -> []
    | Some (a, b, c) ->
      Layers.linear_params a @ Layers.linear_params b @ Layers.linear_params c
  in
  Param.group [ down_params; up_params; cond_params ]

let discriminator_params t =
  let blocks =
    Array.to_list t.disc.blocks
    |> List.concat_map (fun b ->
           Layers.conv2d_params b.p_conv
           @ (match b.p_bn with Some bn -> Layers.batch_norm_params bn | None -> []))
  in
  Param.group [ blocks; Layers.conv2d_params t.disc.head ]

let parameter_count t =
  List.fold_left
    (fun acc p -> acc + Param.numel p)
    0
    (generator_params t @ discriminator_params t)

let bn_states t =
  let of_down b = match b.d_bn with Some bn -> Layers.batch_norm_state bn | None -> [] in
  let of_up b = match b.u_bn with Some bn -> Layers.batch_norm_state bn | None -> [] in
  let of_disc b = match b.p_bn with Some bn -> Layers.batch_norm_state bn | None -> [] in
  List.concat_map of_down (Array.to_list t.gen.downs)
  @ List.concat_map of_up (Array.to_list t.gen.ups)
  @ List.concat_map of_disc (Array.to_list t.disc.blocks)

let state = bn_states

let save t path =
  Checkpoint.save path
    ~params:(generator_params t @ discriminator_params t)
    ~state:(bn_states t)

let load t path =
  Checkpoint.load path
    ~params:(generator_params t @ discriminator_params t)
    ~state:(bn_states t)
