(* Distilled student generator: a channel-scaled (half-width) and
   optionally truncated (half-depth) U-Net with the same conditioning
   plumbing as the CB-GAN teacher. Fewer levels leave the bottleneck at a
   spatial extent above 1x1, so the conditioning vector is broadcast over
   it instead of concatenated at a single pixel. The student is a pure
   regressor: no discriminator, no dropout — its forward pass is
   deterministic, which keeps distillation and quantized compilation
   bit-reproducible. *)

type config = {
  st_image_size : int;
  st_levels : int;
  st_ngf : int;
  st_use_cond : bool;
  st_cond_hidden : int;
  st_cond_dim : int;
}

let default_config ?(image_size = 64) ?(levels = 3) ?(ngf = 8) () =
  {
    st_image_size = image_size;
    st_levels = levels;
    st_ngf = ngf;
    st_use_cond = true;
    st_cond_hidden = 16;
    st_cond_dim = 2 * ngf;
  }

type down_block = { d_conv : Layers.conv2d; d_bn : Layers.batch_norm option }
type up_block = { u_conv : Layers.conv_transpose2d; u_bn : Layers.batch_norm option }

type t = {
  cfg : config;
  downs : down_block array;
  ups : up_block array;
  cond : (Layers.linear * Layers.linear * Layers.linear) option;
}

(* Same progression as the teacher: ngf, 2ngf, 4ngf, 8ngf capped. *)
let channel_plan cfg = Array.init cfg.st_levels (fun i -> cfg.st_ngf * min 8 (1 lsl min i 3))

let bottleneck_size cfg = cfg.st_image_size lsr cfg.st_levels

let validate cfg =
  if cfg.st_image_size land (cfg.st_image_size - 1) <> 0 then
    invalid_arg "Student.create: image_size must be a power of two";
  if cfg.st_levels < 2 || 1 lsl cfg.st_levels > cfg.st_image_size then
    invalid_arg "Student.create: levels incompatible with image_size";
  if cfg.st_ngf < 1 then invalid_arg "Student.create: ngf must be positive";
  if cfg.st_use_cond && (cfg.st_cond_dim < 1 || cfg.st_cond_hidden < 1) then
    invalid_arg "Student.create: conditioning dims must be positive"

let create ~seed cfg =
  validate cfg;
  let rng = Prng.create seed in
  let ch = channel_plan cfg in
  let levels = cfg.st_levels in
  let downs =
    Array.init levels (fun i ->
        let in_channels = if i = 0 then 1 else ch.(i - 1) in
        let name = Printf.sprintf "student.down%d" i in
        let d_conv =
          Layers.conv2d rng ~name ~in_channels ~out_channels:ch.(i) ~kernel:4
            ~stride:2 ~pad:1 ~bias:true
        in
        let d_bn =
          if i = 0 || i = levels - 1 then None
          else Some (Layers.batch_norm rng ~name:(name ^ ".bn") ~channels:ch.(i))
        in
        { d_conv; d_bn })
  in
  let cond =
    if not cfg.st_use_cond then None
    else
      Some
        ( Layers.linear rng ~name:"student.cond0" ~in_dim:2 ~out_dim:cfg.st_cond_hidden
            ~bias:true,
          Layers.linear rng ~name:"student.cond1" ~in_dim:cfg.st_cond_hidden
            ~out_dim:cfg.st_cond_hidden ~bias:true,
          Layers.linear rng ~name:"student.cond2" ~in_dim:cfg.st_cond_hidden
            ~out_dim:cfg.st_cond_dim ~bias:true )
  in
  let bottleneck_ch = ch.(levels - 1) + if cfg.st_use_cond then cfg.st_cond_dim else 0 in
  let ups =
    Array.init levels (fun i ->
        let in_channels = if i = 0 then bottleneck_ch else 2 * ch.(levels - 1 - i) in
        let out_channels = if i = levels - 1 then 1 else ch.(levels - 2 - i) in
        let name = Printf.sprintf "student.up%d" i in
        let u_conv =
          Layers.conv_transpose2d rng ~name ~in_channels ~out_channels ~kernel:4
            ~stride:2 ~pad:1 ~bias:true
        in
        let u_bn =
          if i = levels - 1 then None
          else Some (Layers.batch_norm rng ~name:(name ^ ".bn") ~channels:out_channels)
        in
        (* Same sparse-heatmap prior as the teacher: start the tanh output
           near -1 (empty). *)
        if i = levels - 1 then
          Option.iter (fun (b : Param.t) -> Tensor.fill b.Param.value (-1.5)) u_conv.Layers.tbias;
        { u_conv; u_bn })
  in
  { cfg; downs; ups; cond }

let model_config t = t.cfg

(* Read-only structure views for the inference compiler (Qgen); the
   third component mirrors Cbgan.generator_ups's dropout flag (always off
   for the student). *)
let student_downs t = Array.map (fun b -> (b.d_conv, b.d_bn)) t.downs
let student_ups t = Array.map (fun b -> (b.u_conv, b.u_bn, false)) t.ups
let student_cond t = t.cond

(* Encoder + conditioned bottleneck; shared by the plain forward and the
   feature-matching tap. Returns (encoder activations, conditioned
   bottleneck). *)
let encode t ~training ?cache_params x =
  let cfg = t.cfg in
  let levels = cfg.st_levels in
  let n = Tensor.dim x 0 in
  if Tensor.dim x 2 <> cfg.st_image_size || Tensor.dim x 3 <> cfg.st_image_size then
    invalid_arg "Student.forward: image size mismatch";
  let enc = Array.make levels (Value.const x) in
  for i = 0 to levels - 1 do
    let input = if i = 0 then Value.const x else Value.leaky_relu 0.2 enc.(i - 1) in
    let y = Layers.apply_conv2d t.downs.(i).d_conv input in
    let y =
      match t.downs.(i).d_bn with
      | Some bn -> Layers.apply_batch_norm bn ~training y
      | None -> y
    in
    enc.(i) <- y
  done;
  let b = bottleneck_size cfg in
  let bottleneck =
    match (t.cond, cache_params) with
    | None, None -> enc.(levels - 1)
    | None, Some _ -> invalid_arg "Student.forward: model built without cache parameters"
    | Some _, None -> invalid_arg "Student.forward: cache parameters required"
    | Some (fc0, fc1, fc2), Some cp ->
      if Tensor.dim cp 0 <> n || Tensor.dim cp 1 <> 2 then
        invalid_arg "Student.forward: cache_params must be [n; 2]";
      let h = Value.relu (Layers.apply_linear fc0 (Value.const cp)) in
      let h = Value.relu (Layers.apply_linear fc1 h) in
      let h = Layers.apply_linear fc2 h in
      let h = Value.reshape h [| n; cfg.st_cond_dim; 1; 1 |] in
      (* A half-depth bottleneck is wider than 1x1: tile the conditioning
         vector over it so every spatial position sees the geometry. *)
      let h = if b > 1 then Value.broadcast_spatial h ~h:b ~w:b else h in
      Value.concat_channels enc.(levels - 1) h
  in
  (enc, bottleneck)

let decode t ~training enc bottleneck =
  let levels = t.cfg.st_levels in
  let d = ref bottleneck in
  for i = 0 to levels - 1 do
    let input = Value.relu !d in
    let y = Layers.apply_conv_transpose2d t.ups.(i).u_conv input in
    if i = levels - 1 then d := Value.tanh_ y
    else begin
      let y =
        match t.ups.(i).u_bn with
        | Some bn -> Layers.apply_batch_norm bn ~training y
        | None -> y
      in
      d := Value.concat_channels y enc.(levels - 2 - i)
    end
  done;
  !d

let forward t ~training ?cache_params x =
  let enc, bottleneck = encode t ~training ?cache_params x in
  decode t ~training enc bottleneck

let forward_with_bottleneck t ~training ?cache_params x =
  let enc, bottleneck = encode t ~training ?cache_params x in
  let out = decode t ~training enc bottleneck in
  (out, enc.(t.cfg.st_levels - 1))

let params t =
  let down_params =
    Array.to_list t.downs
    |> List.concat_map (fun b ->
           Layers.conv2d_params b.d_conv
           @ (match b.d_bn with Some bn -> Layers.batch_norm_params bn | None -> []))
  in
  let up_params =
    Array.to_list t.ups
    |> List.concat_map (fun b ->
           Layers.conv_transpose2d_params b.u_conv
           @ (match b.u_bn with Some bn -> Layers.batch_norm_params bn | None -> []))
  in
  let cond_params =
    match t.cond with
    | None -> []
    | Some (a, b, c) ->
      Layers.linear_params a @ Layers.linear_params b @ Layers.linear_params c
  in
  Param.group [ down_params; up_params; cond_params ]

let parameter_count t = List.fold_left (fun acc p -> acc + Param.numel p) 0 (params t)

let state t =
  let of_down b = match b.d_bn with Some bn -> Layers.batch_norm_state bn | None -> [] in
  let of_up b = match b.u_bn with Some bn -> Layers.batch_norm_state bn | None -> [] in
  List.concat_map of_down (Array.to_list t.downs)
  @ List.concat_map of_up (Array.to_list t.ups)

(* --- checkpoint container (schema cachebox-student/1) ---

   The architecture travels in the metadata section, so a student loads
   from its checkpoint alone; the CRC-32 + atomic-write discipline of the
   shared container makes corrupt-byte rejection and bit-identical
   round-trips free. *)

let schema = "cachebox-student/1"

let save t path =
  let cfg = t.cfg in
  Checkpoint.save path
    ~meta:
      [
        ("schema", schema);
        ("student.image_size", string_of_int cfg.st_image_size);
        ("student.levels", string_of_int cfg.st_levels);
        ("student.ngf", string_of_int cfg.st_ngf);
        ("student.use_cond", if cfg.st_use_cond then "1" else "0");
        ("student.cond_hidden", string_of_int cfg.st_cond_hidden);
        ("student.cond_dim", string_of_int cfg.st_cond_dim);
      ]
    ~params:(params t) ~state:(state t)

let config_of_meta meta =
  let geti k =
    match List.assoc_opt k meta with
    | Some v -> (
      match int_of_string_opt v with
      | Some i -> i
      | None -> failwith (Printf.sprintf "student checkpoint: bad %s=%S" k v))
    | None -> failwith (Printf.sprintf "student checkpoint: missing %s" k)
  in
  {
    st_image_size = geti "student.image_size";
    st_levels = geti "student.levels";
    st_ngf = geti "student.ngf";
    st_use_cond = geti "student.use_cond" <> 0;
    st_cond_hidden = geti "student.cond_hidden";
    st_cond_dim = geti "student.cond_dim";
  }

let load path =
  let c = Checkpoint.read path in
  let meta = Checkpoint.meta c in
  (match List.assoc_opt "schema" meta with
  | Some s when s = schema -> ()
  | Some s -> failwith (Printf.sprintf "not a student checkpoint (schema %s)" s)
  | None -> failwith "not a student checkpoint (no schema)");
  let cfg = config_of_meta meta in
  (match validate cfg with
  | () -> ()
  | exception Invalid_argument m -> failwith m);
  let t = create ~seed:0 cfg in
  Checkpoint.restore c ~params:(params t) ~state:(state t);
  t
