(* Compiled generators: the one inference compiler and the one
   interpreter for every learned backend.

   A compile turns one {!Unet} (a {!Cbgan}'s generator or a {!Student})
   into a flat program — encoder convolutions, the conditioning MLP,
   decoder transposed convolutions — whose ops are each float32 or int8,
   and [forward] walks any such program. The Value tape is not involved:
   training keeps it, inference never builds a node.

   - A float32 op carries its weight packed once into GEMM panels
     ({!Blas.Packed}), its bias and its batch norm's running statistics.
     The epilogue applies bias and batch norm in the tape's own order of
     float32 operations (nothing is folded), so a float program is
     bit-identical to the eval-mode tape forward it was compiled from.
   - An int8 op carries a {!Blas.Int8.qweight} with the batch norm folded
     into it (exact at inference, where batch norm is a per-channel affine
     map) and one calibrated per-tensor activation scale. The int8 compile
     packs the folded float weights, runs that float program over a
     calibration batch with an observer recording the largest absolute
     input each GEMM sees ({!Quant.observer}), and quantizes the folded
     weights with per-output-row scales.
   - Every activation is applied where the next op loads its operand:
     LeakyReLU as an encoder convolution's im2col unfolds its input (as an
     int8 convolution quantizes it), ReLU as a decoder GEMM packs its B
     panels, tanh in the last op's epilogue. No op copies a whole
     activation tensor to activate it.

   A program is a snapshot: compiling copies (packs or quantizes) every
   weight and statistic, and the program never reads the model again. It
   holds no mutable state, so any number of domains may run one program at
   once. No program is stored: the model's float checkpoint is the only
   artifact, and the int8 compile is deterministic, so an int8 program
   compiled from a reloaded checkpoint runs bit-identically to one
   compiled from the model that wrote it. *)

type weight =
  | F32 of Blas.Packed.t
  | I8 of Blas.Int8.qweight * float  (* the weight, its calibrated activation scale *)

(* Running-statistics batch norm as the tape evaluates it per element:
   gamma * ((y - mean) * inv_std) + beta. *)
type bn = { mean : float array; inv_std : float array; gamma : float array; beta : float array }

type conv = {
  w : weight;  (* convolution: [oc; ic*k*k]; transposed: [oc*k*k; ic] *)
  bias : Tensor.t option;
      (* added after the GEMM (convolution) or the col2im scatter
         (transposed); an int8 convolution fuses its bias into the GEMM *)
  bn : bn option;  (* float32 only: the int8 compile folds it *)
  kernel : int;
  stride : int;
  pad : int;
}

(* The conditioning MLP's three layers. Float layers compute x W^T + b in
   [n; features] orientation, as the tape does; int8 layers chain in
   [features; n] orientation with the bias fused. *)
type mlp =
  | Mlp_f32 of (Tensor.t * Tensor.t option) array
  | Mlp_i8 of (Blas.Int8.qweight * float) array

type t = {
  q_image_size : int;
  q_levels : int;
  q_cond_dim : int;
  q_bneck : int;  (* bottleneck spatial side, image_size / 2^levels: 1 at
                     full depth *)
  q_downs : conv array;
  q_ups : conv array;
  q_cond : mlp option;
}

let image_size t = t.q_image_size
let uses_cache_params t = t.q_cond <> None

(* --- the interpreter --- *)

let leaky = Blas.Leaky 0.2

let rows = function F32 p -> Blas.Packed.rows p | I8 (q, _) -> Blas.Int8.rows q

let gemm_of w ~act =
  match w with
  | F32 a -> fun b c -> Blas.Packed.gemm ~act ~a ~b c
  | I8 (a, act_scale) -> fun b c -> Blas.Int8.gemm ~act ~a ~act_scale ~b c

(* act(x), materialised for a calibration observer only. *)
let activated act x =
  if act = Blas.No_act then x
  else
    let y = Tensor.copy x in
    Blas.activate_ act y;
    y

(* Bias, then batch norm, then tanh, each as a pass over one channel plane
   whose result is stored (rounded to float32) before the next reads it:
   the tape's separate bias, batch-norm and tanh nodes, value for value. *)
let epilogue op ~tanh y =
  if op.bias <> None || op.bn <> None || tanh then begin
    let n = Tensor.dim y 0 and c = Tensor.dim y 1 in
    let hw = Tensor.dim y 2 * Tensor.dim y 3 in
    let yd = y.Tensor.data in
    Dpool.parallel_for n (fun nlo nhi ->
        for ni = nlo to nhi do
          for ci = 0 to c - 1 do
            let lo = ((ni * c) + ci) * hw in
            let hi = lo + hw - 1 in
            (match op.bias with
            | Some b ->
              let bv = Bigarray.Array1.unsafe_get b.Tensor.data ci in
              for i = lo to hi do
                Bigarray.Array1.unsafe_set yd i (Bigarray.Array1.unsafe_get yd i +. bv)
              done
            | None -> ());
            (match op.bn with
            | Some bn ->
              let mean = bn.mean.(ci) and inv = bn.inv_std.(ci) in
              let g = bn.gamma.(ci) and beta = bn.beta.(ci) in
              for i = lo to hi do
                Bigarray.Array1.unsafe_set yd i
                  ((g *. ((Bigarray.Array1.unsafe_get yd i -. mean) *. inv)) +. beta)
              done
            | None -> ());
            if tanh then
              for i = lo to hi do
                Bigarray.Array1.unsafe_set yd i (Float.tanh (Bigarray.Array1.unsafe_get yd i))
              done
          done
        done)
  end

(* An int8 convolution quantizes each sample's activated input once and
   packs its GEMM operand from the quantized planes. *)
let conv_op ~observe key op ~act x =
  Option.iter (fun f -> f key (activated act x)) observe;
  let product =
    match op.w with
    | F32 a -> Conv.Gemm (fun b c -> Blas.Packed.gemm ~a ~b c)
    | I8 (a, act_scale) -> Conv.Int8 (a, act_scale)
  in
  let y =
    Conv.conv2d_with ~product ~act ~x ~oc:(rows op.w) ~kernel:op.kernel ~stride:op.stride
      ~pad:op.pad ()
  in
  epilogue op ~tanh:false y;
  y

let deconv_op ~observe key op ~tanh x =
  Option.iter (fun f -> f key (activated Blas.Relu x)) observe;
  let y =
    Conv.conv_transpose2d_with ~gemm:(gemm_of op.w ~act:Blas.Relu) ~x
      ~oc:(rows op.w / (op.kernel * op.kernel))
      ~kernel:op.kernel ~stride:op.stride ~pad:op.pad
  in
  epilogue op ~tanh y;
  y

(* y[n; out] = x[n; in] W^T + b, then ReLU: Value.linear and Value.relu. *)
let linear_f32 (w, b) ~relu x =
  let n = Tensor.dim x 0 and out = Tensor.dim w 0 in
  let y = Tensor.create [| n; out |] in
  Blas.gemm ~trans_b:true ~alpha:1.0 ~a:x ~b:w ~beta:0.0 y;
  let yd = y.Tensor.data in
  Option.iter
    (fun (b : Tensor.t) ->
      for i = 0 to n - 1 do
        for j = 0 to out - 1 do
          let o = (i * out) + j in
          Bigarray.Array1.unsafe_set yd o
            (Bigarray.Array1.unsafe_get yd o +. Bigarray.Array1.unsafe_get b.Tensor.data j)
        done
      done)
    b;
  if relu then Blas.activate_ Blas.Relu y;
  y

(* The conditioning vector as [n; cond_dim; 1; 1]. The int8 chain consumes
   cp^T via trans_b, after which each raw output is already the next GEMM's
   B operand, activated as it is packed: no transposes or ReLU passes
   inside the chain. The fused per-row bias is per feature, which is
   correct for every column. *)
let cond_vector ~observe mlp cp ~cond_dim =
  let n = Tensor.dim cp 0 in
  let observe j x = Option.iter (fun f -> f ("cond", j) x) observe in
  match mlp with
  | Mlp_f32 layers ->
    observe 0 cp;
    let h = linear_f32 layers.(0) ~relu:true cp in
    observe 1 h;
    let h = linear_f32 layers.(1) ~relu:true h in
    observe 2 h;
    Tensor.view (linear_f32 layers.(2) ~relu:false h) [| n; cond_dim; 1; 1 |]
  | Mlp_i8 layers ->
    let step j ?trans_b ~act b =
      let a, act_scale = layers.(j) in
      let c = Tensor.create [| Blas.Int8.rows a; n |] in
      Blas.Int8.gemm ?trans_b ~act ~a ~act_scale ~b c;
      c
    in
    let h = step 0 ~trans_b:true ~act:Blas.No_act cp in
    let h = step 1 ~act:Blas.Relu h in
    let h = step 2 ~act:Blas.Relu h in
    let out = Tensor.create [| n; cond_dim; 1; 1 |] in
    for i = 0 to n - 1 do
      for c = 0 to cond_dim - 1 do
        Tensor.set out ((i * cond_dim) + c) (Tensor.get2 h c i)
      done
    done;
    out

(* [observe], when given, receives every GEMM's (activated) input under the
   keys [("down", i)], [("up", i)] and [("cond", j)]: the calibration hook. *)
let run ?observe t ?cache_params x =
  let levels = t.q_levels in
  let n = Tensor.dim x 0 in
  if Tensor.dim x 2 <> t.q_image_size || Tensor.dim x 3 <> t.q_image_size then
    invalid_arg "Qgen.forward: image size mismatch";
  let enc = Array.make levels x in
  for i = 0 to levels - 1 do
    enc.(i) <-
      (if i = 0 then conv_op ~observe ("down", 0) t.q_downs.(0) ~act:Blas.No_act x
       else conv_op ~observe ("down", i) t.q_downs.(i) ~act:leaky enc.(i - 1))
  done;
  let bottleneck =
    match (t.q_cond, cache_params) with
    | None, _ -> enc.(levels - 1)
    | Some _, None -> invalid_arg "Qgen.forward: cache parameters required"
    | Some mlp, Some cp ->
      if Tensor.dim cp 0 <> n || Tensor.dim cp 1 <> 2 then
        invalid_arg "Qgen.forward: cache_params must be [n; 2]";
      let h = cond_vector ~observe mlp cp ~cond_dim:t.q_cond_dim in
      let b = t.q_bneck in
      (* A half-depth bottleneck is wider than 1x1: the vector is tiled
         over it, as in the tape. *)
      Tensor.concat_channels enc.(levels - 1)
        (if b > 1 then Tensor.broadcast_spatial h ~h:b ~w:b else h)
  in
  let d = ref bottleneck in
  for i = 0 to levels - 1 do
    let last = i = levels - 1 in
    let y = deconv_op ~observe ("up", i) t.q_ups.(i) ~tanh:last !d in
    d := if last then y else Tensor.concat_channels y enc.(levels - 2 - i)
  done;
  !d

let forward t ?cache_params x = run t ?cache_params x

(* --- compilation --- *)

(* What the compiler reads of one convolution block: the layer's weight
   ([oc; ic; k; k], or [ic; oc; k; k] when [trans]posed) and bias, and the
   block's batch norm. *)
type layer = {
  weight : Tensor.t;
  lbias : Param.t option;
  stride : int;
  pad : int;
  lbn : Layers.batch_norm option;
}

(* The program skeleton of a generator: [op ~trans] compiles one
   convolution block (transposed in the decoder); the MLP is compiled to
   float32. Dropout is off at inference and needs no op. *)
let program g ~op =
  let cfg = Unet.config g in
  let copy (p : Param.t) = Tensor.copy p.Param.value in
  let linear (l : Layers.linear) = (copy l.Layers.lweight, Option.map copy l.Layers.lbias) in
  let down ((cv : Layers.conv2d), lbn) =
    op ~trans:false
      { weight = cv.Layers.weight.Param.value; lbias = cv.Layers.bias; stride = cv.Layers.stride;
        pad = cv.Layers.pad; lbn }
  in
  let up ((tc : Layers.conv_transpose2d), lbn) =
    op ~trans:true
      { weight = tc.Layers.tweight.Param.value; lbias = tc.Layers.tbias;
        stride = tc.Layers.tstride; pad = tc.Layers.tpad; lbn }
  in
  {
    q_image_size = cfg.Unet.image_size;
    q_levels = cfg.Unet.levels;
    q_cond_dim = cfg.Unet.cond_dim;
    q_bneck = cfg.Unet.image_size lsr cfg.Unet.levels;
    q_downs = Array.map down (Unet.downs g);
    q_ups = Array.map up (Unet.ups g);
    q_cond =
      Option.map (fun (l0, l1, l2) -> Mlp_f32 [| linear l0; linear l1; linear l2 |]) (Unet.cond g);
  }

let channel_values (p : Param.t) =
  Array.init (Tensor.numel p.Param.value) (Tensor.get p.Param.value)

(* The weight as a GEMM's A operand, before op(): [oc; ic*k*k] for a
   convolution; [ic; oc*k*k] for a transposed one, which packs its
   transpose. *)
let weight_matrix w = Tensor.view w [| Tensor.dim w 0; Tensor.numel w / Tensor.dim w 0 |]

let float_op ~trans l =
  {
    w = F32 (Blas.Packed.pack ~trans (weight_matrix l.weight));
    bias = Option.map (fun (p : Param.t) -> Tensor.copy p.Param.value) l.lbias;
    bn =
      Option.map
        (fun (bn : Layers.batch_norm) ->
          {
            mean = Array.copy bn.Layers.running_mean;
            inv_std = Array.map (fun v -> 1.0 /. sqrt (v +. bn.Layers.eps)) bn.Layers.running_var;
            gamma = channel_values bn.Layers.gamma;
            beta = channel_values bn.Layers.beta;
          })
        l.lbn;
    kernel = Tensor.dim l.weight 2;
    stride = l.stride;
    pad = l.pad;
  }

(* Batch-norm folding, for the int8 compile:
   BN(y)_o = (y_o - mu_o) * g_o + beta_o with g_o = gamma_o / sqrt(var_o + eps),
   so conv-then-BN folds to a conv with W'[o,:] = W[o,:] * g_o and
   b'_o = (b_o - mu_o) * g_o + beta_o. Without a BN, W and b pass through.
   Output channel o owns packed rows [o*k*k .. (o+1)*k*k) of a transposed
   convolution's weight, and row o of a convolution's. *)
let folded_op ~trans l =
  let oc = Tensor.dim l.weight (if trans then 1 else 0) in
  let per_channel = if trans then Tensor.dim l.weight 2 * Tensor.dim l.weight 3 else 1 in
  let b = match l.lbias with Some p -> channel_values p | None -> Array.make oc 0.0 in
  let row_scale, bias =
    match l.lbn with
    | None -> (None, b)
    | Some (bn : Layers.batch_norm) ->
      let gamma = channel_values bn.Layers.gamma and beta = channel_values bn.Layers.beta in
      let g =
        Array.init oc (fun o ->
            gamma.(o) /. Float.sqrt (bn.Layers.running_var.(o) +. bn.Layers.eps))
      in
      ( Some (Array.init (oc * per_channel) (fun r -> g.(r / per_channel))),
        Array.init oc (fun o -> ((b.(o) -. bn.Layers.running_mean.(o)) *. g.(o)) +. beta.(o)) )
  in
  {
    w = F32 (Blas.Packed.pack ~trans ?row_scale (weight_matrix l.weight));
    bias = Some (Tensor.of_array [| oc |] bias);
    bn = None;
    kernel = Tensor.dim l.weight 2;
    stride = l.stride;
    pad = l.pad;
  }

(* --- calibration batch --- *)

(* Deterministic default calibration inputs: a mix of strided and
   pseudo-random (LCG) traces whose heatmaps span sparse and dense access
   patterns, plus a spread of cache geometries for the conditioning MLP.
   Two images per trace keep the batch small enough to calibrate in
   milliseconds. *)
let default_calib spec =
  let len = 2 * Heatmap.accesses_per_image spec in
  let strided stride = Array.init len (fun i -> i * stride) in
  let lcg seed =
    let s = ref seed in
    Array.init len (fun _ ->
        s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
        (!s land 0xFFFF) * 64)
  in
  let traces = [ strided 64; strided 320; strided 4096; lcg 1; lcg 7 ] in
  List.concat_map (fun tr -> Heatmap.of_trace spec tr) traces

let calib_geometries =
  [
    Cache.config ~sets:64 ~ways:8 ();
    Cache.config ~sets:16 ~ways:16 ();
    Cache.config ~sets:256 ~ways:4 ();
    Cache.config ~sets:1024 ~ways:2 ();
  ]

(* Calibrate the folded float program [folded] over the default
   calibration batch and quantize it. Each convolution's folded bias moves
   into its int8 weight, where the GEMM epilogue adds it; a transposed
   convolution accumulates many GEMM outputs per pixel through col2im, so
   its bias stays an epilogue op. *)
let quantize ~spec folded =
  let x = Cbox_dataset.batch_images spec (default_calib spec) in
  let n = Tensor.dim x 0 in
  let cp =
    if uses_cache_params folded then
      let caches = Array.of_list calib_geometries in
      Some (Cbgan.cache_params_tensor (List.init n (fun i -> caches.(i mod Array.length caches))))
    else None
  in
  let observers = Hashtbl.create 32 in
  let obs key =
    match Hashtbl.find_opt observers key with
    | Some o -> o
    | None ->
      let o = Quant.observer () in
      Hashtbl.add observers key o;
      o
  in
  ignore (run ~observe:(fun key a -> Quant.observe (obs key) a) folded ?cache_params:cp x);
  let act key = Quant.observed_scale (obs key) in
  let packed op = match op.w with F32 p -> p | I8 _ -> invalid_arg "Qgen: already quantized" in
  let values t = Array.init (Tensor.numel t) (Tensor.get t) in
  {
    folded with
    q_downs =
      Array.mapi
        (fun i op ->
          let bias = Option.map values op.bias in
          {
            op with
            w = I8 (Blas.Int8.quantize_packed ?bias (packed op), act ("down", i));
            bias = None;
          })
        folded.q_downs;
    q_ups =
      Array.mapi
        (fun i op ->
          { op with w = I8 (Blas.Int8.quantize_packed (packed op), act ("up", i)) })
        folded.q_ups;
    q_cond =
      Option.map
        (function
          | Mlp_f32 layers ->
            Mlp_i8
              (Array.mapi
                 (fun j (w, b) ->
                   let bias =
                     match b with Some b -> values b | None -> Array.make (Tensor.dim w 0) 0.0
                   in
                   (Blas.Int8.quantize ~bias w, act ("cond", j)))
                 layers)
          | Mlp_i8 _ as m -> m)
        folded.q_cond;
  }

let int8 ~spec g = quantize ~spec (program g ~op:folded_op)
let of_model ~spec model = int8 ~spec (Cbgan.generator model)

let of_student = int8
let float_of_model model = program (Cbgan.generator model) ~op:float_op
let float_of_student student = program student ~op:float_op
