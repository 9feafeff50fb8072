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

type disc_block = { p_conv : Layers.conv2d; p_bn : Layers.batch_norm option }

type discriminator = { blocks : disc_block array; head : Layers.conv2d }

type t = { cfg : config; gen : Unet.t; disc : discriminator }

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

(* The discriminator's weights are drawn before the generator's: every
   seeded checkpoint depends on this order. *)
let create ~seed cfg =
  let rng = Prng.create seed in
  let disc = build_discriminator rng cfg in
  let gen =
    Unet.create rng ~prefix:"gen"
      {
        Unet.image_size = cfg.image_size;
        levels = cfg.levels;
        ngf = cfg.ngf;
        use_cond = cfg.use_cache_params;
        cond_hidden = cfg.cond_hidden;
        cond_dim = cfg.cond_dim;
      }
  in
  { cfg; gen; disc }

let model_config t = t.cfg
let generator t = t.gen

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
  fst
    (Unet.forward t.gen ~who:"Cbgan.generator_forward" ~dropout:(rng, t.cfg.dropout_rate)
       ~training ?cache_params x)

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

let generator_params t = Unet.params t.gen

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

let state t =
  let of_disc b = match b.p_bn with Some bn -> Layers.batch_norm_state bn | None -> [] in
  Unet.state t.gen @ List.concat_map of_disc (Array.to_list t.disc.blocks)

let save t path =
  Checkpoint.save path ~params:(generator_params t @ discriminator_params t) ~state:(state t)

let load t path =
  Checkpoint.load path ~params:(generator_params t @ discriminator_params t) ~state:(state t)
