type t = {
  id : int;
  v : Tensor.t;
  mutable g : Tensor.t option;
  parents : t array;
  push : (t -> unit) option;
      (* Reads [t.g] (guaranteed present) and accumulates into parents. *)
}

let counter = ref 0

let node ?(parents = [||]) ?push v =
  incr counter;
  { id = !counter; v; g = None; parents; push }

let value t = t.v

let grad t =
  match t.g with
  | Some g -> g
  | None -> invalid_arg "Value.grad: no gradient was propagated to this node"

let accum t delta =
  match t.g with
  | Some g -> Tensor.add_ g delta
  | None -> t.g <- Some (Tensor.copy delta)

let the_grad t =
  match t.g with Some g -> g | None -> assert false

(* Accumulate a gradient that [fill] writes whole into a tensor of [t]'s
   shape: the first gradient to reach [t] becomes its own, a later one is
   written into a workspace borrow and added, so neither needs a copy. *)
let accum_with t fill =
  match t.g with
  | None ->
    let d = Tensor.create (Tensor.shape t.v) in
    fill d;
    t.g <- Some d
  | Some g ->
    Workspace.with_buf (Tensor.shape t.v) (fun d ->
        fill d;
        Tensor.add_ g d)

let const x = node x
let leaf x = node x

let of_param (p : Param.t) =
  let n = node p.value in
  n.g <- Some p.grad;
  n

(* --- arithmetic --- *)

let add a b =
  let push self =
    let g = the_grad self in
    accum a g;
    accum b g
  in
  node ~parents:[| a; b |] ~push (Tensor.add a.v b.v)

let sub a b =
  let push self =
    let g = the_grad self in
    accum a g;
    accum b (Tensor.neg g)
  in
  node ~parents:[| a; b |] ~push (Tensor.sub a.v b.v)

let mul a b =
  let push self =
    let g = the_grad self in
    accum a (Tensor.mul g b.v);
    accum b (Tensor.mul g a.v)
  in
  node ~parents:[| a; b |] ~push (Tensor.mul a.v b.v)

let scale a alpha =
  let push self = accum a (Tensor.scale (the_grad self) alpha) in
  node ~parents:[| a |] ~push (Tensor.scale a.v alpha)

let neg a = scale a (-1.0)

(* --- activations ---

   Each activation's forward and backward is one loop over the raw
   buffers, fanned out over the domain pool for large tensors as Tensor's
   elementwise loops are. A closure call per element, or a cross-module
   Tensor.get/set (the dev profile builds with -opaque, so those do not
   inline), would box every float. The backward multiplies the incoming
   gradient by the derivative, [g *. df x y], exactly as written. *)

(* An elementwise node over [a]: [fwd y lo hi] writes slice [lo..hi] of
   the output's buffer; [bwd y g d lo hi] writes that slice of the
   gradient with respect to [a], from the output [y] and the incoming
   gradient [g]. Each is called once per slice, never per element. *)
let elementwise a ~fwd ~bwd =
  let n = Tensor.numel a.v in
  let y = Tensor.create (Tensor.shape a.v) in
  let yd = y.Tensor.data in
  Tensor.pfor n (fwd yd);
  let push self =
    let gd = (the_grad self).Tensor.data in
    accum_with a (fun d -> Tensor.pfor n (bwd yd gd d.Tensor.data))
  in
  node ~parents:[| a |] ~push y

let relu a =
  let xd = a.v.Tensor.data in
  elementwise a
    ~fwd:(fun yd lo hi ->
      for i = lo to hi do
        Bigarray.Array1.unsafe_set yd i (Float.max 0.0 (Bigarray.Array1.unsafe_get xd i))
      done)
    ~bwd:(fun _ gd dd lo hi ->
      for i = lo to hi do
        let x = Bigarray.Array1.unsafe_get xd i in
        Bigarray.Array1.unsafe_set dd i
          (Bigarray.Array1.unsafe_get gd i *. if x > 0.0 then 1.0 else 0.0)
      done)

let leaky_relu slope a =
  let xd = a.v.Tensor.data in
  elementwise a
    ~fwd:(fun yd lo hi ->
      for i = lo to hi do
        let x = Bigarray.Array1.unsafe_get xd i in
        Bigarray.Array1.unsafe_set yd i (if x > 0.0 then x else slope *. x)
      done)
    ~bwd:(fun _ gd dd lo hi ->
      for i = lo to hi do
        let x = Bigarray.Array1.unsafe_get xd i in
        Bigarray.Array1.unsafe_set dd i
          (Bigarray.Array1.unsafe_get gd i *. if x > 0.0 then 1.0 else slope)
      done)

let tanh_ a =
  let xd = a.v.Tensor.data in
  elementwise a
    ~fwd:(fun yd lo hi ->
      for i = lo to hi do
        Bigarray.Array1.unsafe_set yd i (Float.tanh (Bigarray.Array1.unsafe_get xd i))
      done)
    ~bwd:(fun yd gd dd lo hi ->
      for i = lo to hi do
        let y = Bigarray.Array1.unsafe_get yd i in
        Bigarray.Array1.unsafe_set dd i (Bigarray.Array1.unsafe_get gd i *. (1.0 -. (y *. y)))
      done)

let sigmoid_f x = 1.0 /. (1.0 +. exp (-.x))

let dropout rng ~rate ~training a =
  if (not training) || rate <= 0.0 then a
  else begin
    if rate >= 1.0 then invalid_arg "Value.dropout: rate must be < 1";
    let keep = 1.0 -. rate in
    let mask = Tensor.create (Tensor.shape a.v) in
    let md = mask.Tensor.data in
    for i = 0 to Tensor.numel mask - 1 do
      Bigarray.Array1.unsafe_set md i (if Prng.float rng 1.0 < rate then 0.0 else 1.0 /. keep)
    done;
    let xd = a.v.Tensor.data in
    elementwise a
      ~fwd:(fun yd lo hi ->
        for i = lo to hi do
          Bigarray.Array1.unsafe_set yd i
            (Bigarray.Array1.unsafe_get xd i *. Bigarray.Array1.unsafe_get md i)
        done)
      ~bwd:(fun _ gd dd lo hi ->
        for i = lo to hi do
          Bigarray.Array1.unsafe_set dd i
            (Bigarray.Array1.unsafe_get gd i *. Bigarray.Array1.unsafe_get md i)
        done)
  end

(* --- shape --- *)

let reshape a shape =
  let push self = accum a (Tensor.view (the_grad self) (Tensor.shape a.v)) in
  node ~parents:[| a |] ~push (Tensor.view a.v shape)

let concat_channels a b =
  let ca = Tensor.dim a.v 1 in
  let push self =
    let ga, gb = Tensor.split_channels (the_grad self) ca in
    accum a ga;
    accum b gb
  in
  node ~parents:[| a; b |] ~push (Tensor.concat_channels a.v b.v)

let broadcast_spatial a ~h ~w =
  let push self = accum a (Tensor.spatial_sum (the_grad self)) in
  node ~parents:[| a |] ~push (Tensor.broadcast_spatial a.v ~h ~w)

let spatial_mean a =
  let shp = Tensor.shape a.v in
  if Array.length shp <> 4 then invalid_arg "Value.spatial_mean: need NCHW";
  let n = shp.(0) and c = shp.(1) and h = shp.(2) and w = shp.(3) in
  let push self =
    let g = the_grad self in
    let inv = 1.0 /. float_of_int (h * w) in
    let gb = Tensor.view (Tensor.scale g inv) [| n; c; 1; 1 |] in
    accum a (Tensor.broadcast_spatial gb ~h ~w)
  in
  node ~parents:[| a |] ~push (Tensor.spatial_mean a.v)

(* --- layers --- *)

let conv2d ~weight ~bias ~stride ~pad x =
  let bias_v = Option.map (fun b -> b.v) bias in
  let y = Conv.conv2d ~x:x.v ~weight:weight.v ~bias:bias_v ~stride ~pad in
  let parents =
    match bias with Some b -> [| x; weight; b |] | None -> [| x; weight |]
  in
  let push self =
    let gout = the_grad self in
    (* The gradient temporaries live only until [accum] copies them out, so
       they are borrowed from the workspace arena. Both need zeroing: the
       kernel accumulates (gemm beta=1 into gw, col2im into gx). *)
    Workspace.with_buf2 ~zero:true (Tensor.shape weight.v) (Tensor.shape x.v)
      (fun gw gx ->
        let gb = Option.map (fun b -> Tensor.zeros (Tensor.shape b.v)) bias in
        Conv.conv2d_backward_into ~x:x.v ~weight:weight.v ~gout ~stride ~pad
          ~grad_weight:gw ~grad_bias:gb ~gx;
        accum x gx;
        accum weight gw;
        match (bias, gb) with
        | Some b, Some g -> accum b g
        | None, None -> ()
        | _ -> assert false)
  in
  node ~parents ~push y

let conv_transpose2d ~weight ~bias ~stride ~pad x =
  let bias_v = Option.map (fun b -> b.v) bias in
  let y = Conv.conv_transpose2d ~x:x.v ~weight:weight.v ~bias:bias_v ~stride ~pad in
  let parents =
    match bias with Some b -> [| x; weight; b |] | None -> [| x; weight |]
  in
  let push self =
    let gout = the_grad self in
    (* gw needs zeroing (the kernel accumulates into it); gx is fully
       overwritten by conv_transpose2d_backward_into, so it is borrowed
       uninitialised. *)
    Workspace.with_buf ~zero:true (Tensor.shape weight.v) (fun gw ->
        Workspace.with_buf (Tensor.shape x.v) (fun gx ->
            let gb = Option.map (fun b -> Tensor.zeros (Tensor.shape b.v)) bias in
            Conv.conv_transpose2d_backward_into ~x:x.v ~weight:weight.v ~gout
              ~stride ~pad ~grad_weight:gw ~grad_bias:gb ~gx;
            accum x gx;
            accum weight gw;
            match (bias, gb) with
            | Some b, Some g -> accum b g
            | None, None -> ()
            | _ -> assert false))
  in
  node ~parents ~push y

let linear ~weight ~bias x =
  let n = Tensor.dim x.v 0 and out_dim = Tensor.dim weight.v 0 in
  let y = Tensor.zeros [| n; out_dim |] in
  Blas.gemm ~trans_b:true ~alpha:1.0 ~a:x.v ~b:weight.v ~beta:0.0 y;
  (match bias with
  | None -> ()
  | Some b ->
    let yd = y.Tensor.data and bd = b.v.Tensor.data in
    for i = 0 to n - 1 do
      let base = i * out_dim in
      for j = 0 to out_dim - 1 do
        Bigarray.Array1.unsafe_set yd (base + j)
          (Bigarray.Array1.unsafe_get yd (base + j)
          +. Bigarray.Array1.unsafe_get bd j)
      done
    done);
  let parents =
    match bias with Some b -> [| x; weight; b |] | None -> [| x; weight |]
  in
  let push self =
    let gout = the_grad self in
    (* Both GEMMs run with beta=0 and fully overwrite their outputs, so the
       borrowed buffers need no zeroing. *)
    Workspace.with_buf2 (Tensor.shape x.v) (Tensor.shape weight.v) (fun gx gw ->
        Blas.gemm ~alpha:1.0 ~a:gout ~b:weight.v ~beta:0.0 gx;
        accum x gx;
        Blas.gemm ~trans_a:true ~alpha:1.0 ~a:gout ~b:x.v ~beta:0.0 gw;
        accum weight gw);
    match bias with
    | None -> ()
    | Some b ->
      let gb = Tensor.zeros (Tensor.shape b.v) in
      let gd = gout.Tensor.data and gbd = gb.Tensor.data in
      for i = 0 to n - 1 do
        let base = i * out_dim in
        for j = 0 to out_dim - 1 do
          Bigarray.Array1.unsafe_set gbd j
            (Bigarray.Array1.unsafe_get gbd j
            +. Bigarray.Array1.unsafe_get gd (base + j))
        done
      done;
      accum b gb
  in
  node ~parents ~push y

let batch_norm ~gamma ~beta ~running_mean ~running_var ~momentum ~eps ~training x =
  let shp = Tensor.shape x.v in
  if Array.length shp <> 4 then invalid_arg "Value.batch_norm: need NCHW";
  let n = shp.(0) and c = shp.(1) and h = shp.(2) and w = shp.(3) in
  if Array.length running_mean <> c || Array.length running_var <> c then
    invalid_arg "Value.batch_norm: running stats size mismatch";
  let mu, var =
    if training then begin
      let m, v = Tensor.channel_mean_var x.v in
      for ci = 0 to c - 1 do
        running_mean.(ci) <- ((1.0 -. momentum) *. running_mean.(ci)) +. (momentum *. m.(ci));
        running_var.(ci) <- ((1.0 -. momentum) *. running_var.(ci)) +. (momentum *. v.(ci))
      done;
      (m, v)
    end
    else (Array.copy running_mean, Array.copy running_var)
  in
  let inv_std = Array.map (fun v -> 1.0 /. sqrt (v +. eps)) var in
  let hw = h * w in
  let xhat = Tensor.create shp in
  let y = Tensor.create shp in
  let xd = x.v.Tensor.data and xhd = xhat.Tensor.data and yd = y.Tensor.data in
  let gammad = gamma.v.Tensor.data and betad = beta.v.Tensor.data in
  for ni = 0 to n - 1 do
    for ci = 0 to c - 1 do
      let base = ((ni * c) + ci) * hw in
      let g = Bigarray.Array1.unsafe_get gammad ci and b = Bigarray.Array1.unsafe_get betad ci in
      let m = mu.(ci) and s = inv_std.(ci) in
      for i = base to base + hw - 1 do
        let xh = (Bigarray.Array1.unsafe_get xd i -. m) *. s in
        Bigarray.Array1.unsafe_set xhd i xh;
        Bigarray.Array1.unsafe_set yd i ((g *. xh) +. b)
      done
    done
  done;
  let push self =
    let gd = (the_grad self).Tensor.data in
    let count = float_of_int (n * hw) in
    let dgamma = Tensor.zeros [| c |] and dbeta = Tensor.zeros [| c |] in
    let sum_g = Array.make c 0.0 and sum_gx = Array.make c 0.0 in
    for ni = 0 to n - 1 do
      for ci = 0 to c - 1 do
        let base = ((ni * c) + ci) * hw in
        let sg = ref sum_g.(ci) and sgx = ref sum_gx.(ci) in
        for i = base to base + hw - 1 do
          let go = Bigarray.Array1.unsafe_get gd i and xh = Bigarray.Array1.unsafe_get xhd i in
          sg := !sg +. go;
          sgx := !sgx +. (go *. xh)
        done;
        sum_g.(ci) <- !sg;
        sum_gx.(ci) <- !sgx
      done
    done;
    for ci = 0 to c - 1 do
      Bigarray.Array1.unsafe_set dbeta.Tensor.data ci sum_g.(ci);
      Bigarray.Array1.unsafe_set dgamma.Tensor.data ci sum_gx.(ci)
    done;
    accum_with x (fun gx ->
        let gxd = gx.Tensor.data in
        for ni = 0 to n - 1 do
          for ci = 0 to c - 1 do
            let base = ((ni * c) + ci) * hw in
            let scale = Bigarray.Array1.unsafe_get gammad ci *. inv_std.(ci) in
            let sg = sum_g.(ci) and sgx = sum_gx.(ci) in
            for i = base to base + hw - 1 do
              let go = Bigarray.Array1.unsafe_get gd i and xh = Bigarray.Array1.unsafe_get xhd i in
              let v =
                if training then scale *. (go -. (sg /. count) -. (xh *. sgx /. count))
                else scale *. go
              in
              Bigarray.Array1.unsafe_set gxd i v
            done
          done
        done);
    accum gamma dgamma;
    accum beta dbeta
  in
  node ~parents:[| x; gamma; beta |] ~push y

(* --- reductions and losses --- *)

let mean_all a =
  let n = float_of_int (Tensor.numel a.v) in
  let push self =
    let g = Tensor.get (the_grad self) 0 /. n in
    accum a (Tensor.full (Tensor.shape a.v) g)
  in
  node ~parents:[| a |] ~push (Tensor.scalar (Tensor.mean a.v))

let sum_all a =
  let push self =
    let g = Tensor.get (the_grad self) 0 in
    accum a (Tensor.full (Tensor.shape a.v) g)
  in
  node ~parents:[| a |] ~push (Tensor.scalar (Tensor.sum a.v))

(* The losses read both operands' raw buffers, as the activations do. *)
let l1_loss a target =
  if Tensor.numel a.v <> Tensor.numel target then invalid_arg "Value.l1_loss: size mismatch";
  let n = float_of_int (Tensor.numel a.v) in
  let ad = a.v.Tensor.data and td = target.Tensor.data in
  let total = ref 0.0 in
  for i = 0 to Tensor.numel a.v - 1 do
    total :=
      !total +. Float.abs (Bigarray.Array1.unsafe_get ad i -. Bigarray.Array1.unsafe_get td i)
  done;
  let push self =
    let g = Tensor.get (the_grad self) 0 /. n in
    accum_with a (fun d ->
        let dd = d.Tensor.data in
        for i = 0 to Tensor.numel d - 1 do
          let diff = Bigarray.Array1.unsafe_get ad i -. Bigarray.Array1.unsafe_get td i in
          Bigarray.Array1.unsafe_set dd i
            (if diff > 0.0 then g else if diff < 0.0 then -.g else 0.0)
        done)
  in
  node ~parents:[| a |] ~push (Tensor.scalar (!total /. n))

let mse_loss a target =
  if Tensor.numel a.v <> Tensor.numel target then invalid_arg "Value.mse_loss: size mismatch";
  let n = float_of_int (Tensor.numel a.v) in
  let ad = a.v.Tensor.data and td = target.Tensor.data in
  let total = ref 0.0 in
  for i = 0 to Tensor.numel a.v - 1 do
    let d = Bigarray.Array1.unsafe_get ad i -. Bigarray.Array1.unsafe_get td i in
    total := !total +. (d *. d)
  done;
  let push self =
    let g = Tensor.get (the_grad self) 0 /. n in
    accum_with a (fun d ->
        let dd = d.Tensor.data in
        for i = 0 to Tensor.numel d - 1 do
          Bigarray.Array1.unsafe_set dd i
            (2.0 *. g *. (Bigarray.Array1.unsafe_get ad i -. Bigarray.Array1.unsafe_get td i))
        done)
  in
  node ~parents:[| a |] ~push (Tensor.scalar (!total /. n))

let bce_with_logits a target =
  if Tensor.numel a.v <> Tensor.numel target then
    invalid_arg "Value.bce_with_logits: size mismatch";
  let n = float_of_int (Tensor.numel a.v) in
  let ad = a.v.Tensor.data and td = target.Tensor.data in
  let total = ref 0.0 in
  for i = 0 to Tensor.numel a.v - 1 do
    let x = Bigarray.Array1.unsafe_get ad i and t = Bigarray.Array1.unsafe_get td i in
    (* max(x,0) - x*t + log(1 + exp(-|x|)) *)
    total :=
      !total +. Float.max x 0.0 -. (x *. t) +. log (1.0 +. exp (-.Float.abs x))
  done;
  let push self =
    let g = Tensor.get (the_grad self) 0 /. n in
    accum_with a (fun d ->
        let dd = d.Tensor.data in
        for i = 0 to Tensor.numel d - 1 do
          let x = Bigarray.Array1.unsafe_get ad i and t = Bigarray.Array1.unsafe_get td i in
          Bigarray.Array1.unsafe_set dd i (g *. (sigmoid_f x -. t))
        done)
  in
  node ~parents:[| a |] ~push (Tensor.scalar (!total /. n))

(* --- engine --- *)

let topological_order root =
  let visited = Hashtbl.create 256 in
  let order = ref [] in
  (* Iterative post-order DFS. *)
  let stack = Stack.create () in
  Stack.push (root, ref 0) stack;
  Hashtbl.replace visited root.id ();
  while not (Stack.is_empty stack) do
    let n, next = Stack.top stack in
    if !next < Array.length n.parents then begin
      let p = n.parents.(!next) in
      incr next;
      if not (Hashtbl.mem visited p.id) then begin
        Hashtbl.replace visited p.id ();
        Stack.push (p, ref 0) stack
      end
    end
    else begin
      ignore (Stack.pop stack);
      order := n :: !order
    end
  done;
  !order (* root first: reverse topological order *)

let backward root =
  (match root.g with
  | None -> root.g <- Some (Tensor.ones (Tensor.shape root.v))
  | Some g -> Tensor.fill g 1.0);
  let order = topological_order root in
  List.iter
    (fun n ->
      match (n.push, n.g) with
      | Some f, Some _ -> f n
      | _ -> ())
    order
