let set_wide_batch (_ : bool) = ()

let out_size ~size ~kernel ~stride ~pad =
  let o = ((size + (2 * pad) - kernel) / stride) + 1 in
  if o <= 0 then invalid_arg "Conv.out_size: non-positive output size";
  o

let tconv_out_size ~size ~kernel ~stride ~pad =
  let o = ((size - 1) * stride) - (2 * pad) + kernel in
  if o <= 0 then invalid_arg "Conv.tconv_out_size: non-positive output size";
  o

(* Channel work below this many scalar reads stays serial (same cutoff idea
   as Blas.par_flops); thresholding never changes results. *)
let par_work = 16_384

(* Blas.activate, repeated: the library builds with -opaque in the dev
   profile, so a cross-module call could not inline and would box every
   float it passes. *)
let[@inline] activate act v =
  match act with
  | Blas.No_act -> v
  | Blas.Relu ->
    let a = Float.abs v in
    if a < Float.infinity then (v +. a) *. 0.5 else if v <= 0.0 then 0.0 else v
  | Blas.Leaky s ->
    let a = Float.abs v in
    if a < Float.infinity then ((v +. a) *. 0.5) +. (s *. ((v -. a) *. 0.5))
    else if v > 0.0 then v else s *. v

(* Unfold sample [n] of [x] into a caller-owned [c*k*k x oh*ow] column
   matrix, applying [act] to each value as it is loaded. Only in-bounds
   positions are written — a set that depends on the geometry alone, never
   the data — so a workspace buffer zeroed once can be reused across
   samples of the same shape without re-zeroing: the padding positions stay
   zero (every activation maps 0 to 0) and every written position is
   overwritten. *)
let im2col_into ?(act = Blas.No_act) x ~n ~kernel ~stride ~pad cols =
  let c = Tensor.dim x 1 and h = Tensor.dim x 2 and w = Tensor.dim x 3 in
  let oh = out_size ~size:h ~kernel ~stride ~pad in
  let ow = out_size ~size:w ~kernel ~stride ~pad in
  if Tensor.dim cols 0 <> c * kernel * kernel || Tensor.dim cols 1 <> oh * ow then
    invalid_arg "Conv.im2col_into: column matrix shape mismatch";
  let xd = x.Tensor.data and cd = cols.Tensor.data in
  let sample_base = n * c * h * w in
  let ncols = oh * ow in
  (* Channel ci touches only rows [ci*k*k .. (ci+1)*k*k) of the column
     matrix, so channel slices write disjoint regions. *)
  let channels clo chi =
    for ci = clo to chi do
      let chan_base = sample_base + (ci * h * w) in
      for kh = 0 to kernel - 1 do
        for kw = 0 to kernel - 1 do
          let row = (((ci * kernel) + kh) * kernel) + kw in
          let row_base = row * ncols in
          for ohi = 0 to oh - 1 do
            let ih = (ohi * stride) - pad + kh in
            if ih >= 0 && ih < h then begin
              let in_row = chan_base + (ih * w) in
              let out_row = row_base + (ohi * ow) in
              for owi = 0 to ow - 1 do
                let iw = (owi * stride) - pad + kw in
                if iw >= 0 && iw < w then
                  Bigarray.Array1.unsafe_set cd (out_row + owi)
                    (activate act (Bigarray.Array1.unsafe_get xd (in_row + iw)))
              done
            end
          done
        done
      done
    done
  in
  if c * kernel * kernel * ncols < par_work then channels 0 (c - 1)
  else Dpool.parallel_for c channels

let col2im cols ~dst ~n ~channels:nchan ~height ~width ~kernel ~stride ~pad =
  let oh = out_size ~size:height ~kernel ~stride ~pad in
  let ow = out_size ~size:width ~kernel ~stride ~pad in
  if Tensor.dim cols 0 <> nchan * kernel * kernel || Tensor.dim cols 1 <> oh * ow then
    invalid_arg "Conv.col2im: column matrix shape mismatch";
  let cd = cols.Tensor.data and dd = dst.Tensor.data in
  let sample_base = n * nchan * height * width in
  let ncols = oh * ow in
  (* Channel ci accumulates only into its own plane of dst, so channel
     slices write disjoint regions and keep the serial accumulation order
     within each element. *)
  let channels clo chi =
    for ci = clo to chi do
      let chan_base = sample_base + (ci * height * width) in
      for kh = 0 to kernel - 1 do
        for kw = 0 to kernel - 1 do
          let row = (((ci * kernel) + kh) * kernel) + kw in
          let row_base = row * ncols in
          for ohi = 0 to oh - 1 do
            let ih = (ohi * stride) - pad + kh in
            if ih >= 0 && ih < height then begin
              let out_row = chan_base + (ih * width) in
              let col_row = row_base + (ohi * ow) in
              for owi = 0 to ow - 1 do
                let iw = (owi * stride) - pad + kw in
                if iw >= 0 && iw < width then
                  Bigarray.Array1.unsafe_set dd (out_row + iw)
                    (Bigarray.Array1.unsafe_get dd (out_row + iw)
                    +. Bigarray.Array1.unsafe_get cd (col_row + owi))
              done
            end
          done
        done
      done
    done
  in
  if nchan * kernel * kernel * ncols < par_work then channels 0 (nchan - 1)
  else Dpool.parallel_for nchan channels

let add_bias_nchw y bias =
  match bias with
  | None -> ()
  | Some b ->
    let n = Tensor.dim y 0 and c = Tensor.dim y 1 in
    let hw = Tensor.dim y 2 * Tensor.dim y 3 in
    let yd = y.Tensor.data and bd = b.Tensor.data in
    for ni = 0 to n - 1 do
      for ci = 0 to c - 1 do
        let v = Bigarray.Array1.unsafe_get bd ci in
        let base = ((ni * c) + ci) * hw in
        for i = 0 to hw - 1 do
          Bigarray.Array1.unsafe_set yd (base + i)
            (Bigarray.Array1.unsafe_get yd (base + i) +. v)
        done
      done
    done

let bias_grad_nchw gout grad_bias =
  match grad_bias with
  | None -> ()
  | Some gb ->
    let n = Tensor.dim gout 0 and c = Tensor.dim gout 1 in
    let hw = Tensor.dim gout 2 * Tensor.dim gout 3 in
    let gd = gout.Tensor.data and gbd = gb.Tensor.data in
    for ni = 0 to n - 1 do
      for ci = 0 to c - 1 do
        let base = ((ni * c) + ci) * hw in
        let acc = ref 0.0 in
        for i = 0 to hw - 1 do
          acc := !acc +. Bigarray.Array1.unsafe_get gd (base + i)
        done;
        Bigarray.Array1.unsafe_set gbd ci (Bigarray.Array1.unsafe_get gbd ci +. !acc)
      done
    done

(* --- per-sample lowerings ---

   One product per sample, with the product as an argument. A [Gemm] must
   overwrite its output with the layer's weight matrix times its B operand:
   the float tape passes a [Blas.Packed] product over the weight it packs
   once per call, the compiled inference programs one over a weight packed
   at compile time, so every forward shares this unfold/scatter plumbing
   and only the product differs. An int8 convolution ([Int8])
   quantizes each sample's input once and packs B straight from the
   quantized planes. Samples are independent and write disjoint planes of
   y, so they run on separate domains; the GEMM inside a lane detects the
   nesting and stays serial, while a single sample lets it parallelise
   itself. *)

type product = Gemm of (Tensor.t -> Tensor.t -> unit) | Int8 of Blas.Int8.qweight * float

(* Pack the im2col column matrix of one sample's quantized planes [qd]
   ([c; h; w]) as the int8 GEMM's B operand: 4-wide k-major panels over the
   whole depth (Blas.Int8.panels_size), with 0 for positions outside the
   input and for the columns that pad the last panel. A padding column's
   window starts [kernel] rows above the input, so it is never in bounds.
   The four values of a panel row are loaded before any is stored, so each
   float32 load has a register of its own (see Blas.Int8.pack_b). *)
let pack_unfolded (qd : Tensor.buffer) ~c ~h ~w ~kernel ~stride ~pad ~oh ~ow
    (dst : Tensor.buffer) =
  let k = c * kernel * kernel and ncols = oh * ow in
  (* The input row and column where column j's window starts. *)
  let row0 j = if j < ncols then (j / ow * stride) - pad else -kernel in
  let col0 j = if j < ncols then (j mod ow * stride) - pad else 0 in
  for pj = 0 to ((ncols + 3) / 4) - 1 do
    let j = pj * 4 in
    let r0 = row0 j and r1 = row0 (j + 1) and r2 = row0 (j + 2) and r3 = row0 (j + 3) in
    let c0 = col0 j and c1 = col0 (j + 1) and c2 = col0 (j + 2) and c3 = col0 (j + 3) in
    let o = ref (j * k) and plane = ref 0 and kh = ref 0 and kw = ref 0 in
    for _p = 1 to k do
      let y0 = r0 + !kh and y1 = r1 + !kh and y2 = r2 + !kh and y3 = r3 + !kh in
      let x0 = c0 + !kw and x1 = c1 + !kw and x2 = c2 + !kw and x3 = c3 + !kw in
      let v0 =
        if y0 >= 0 && y0 < h && x0 >= 0 && x0 < w then
          Bigarray.Array1.unsafe_get qd (!plane + (y0 * w) + x0)
        else 0.0
      and v1 =
        if y1 >= 0 && y1 < h && x1 >= 0 && x1 < w then
          Bigarray.Array1.unsafe_get qd (!plane + (y1 * w) + x1)
        else 0.0
      and v2 =
        if y2 >= 0 && y2 < h && x2 >= 0 && x2 < w then
          Bigarray.Array1.unsafe_get qd (!plane + (y2 * w) + x2)
        else 0.0
      and v3 =
        if y3 >= 0 && y3 < h && x3 >= 0 && x3 < w then
          Bigarray.Array1.unsafe_get qd (!plane + (y3 * w) + x3)
        else 0.0
      in
      Bigarray.Array1.unsafe_set dst !o v0;
      Bigarray.Array1.unsafe_set dst (!o + 1) v1;
      Bigarray.Array1.unsafe_set dst (!o + 2) v2;
      Bigarray.Array1.unsafe_set dst (!o + 3) v3;
      o := !o + 4;
      incr kw;
      if !kw = kernel then begin
        kw := 0;
        incr kh;
        if !kh = kernel then begin
          kh := 0;
          plane := !plane + (h * w)
        end
      end
    done
  done

(* y[n; oc; oh; ow] with sample ni = the product over act(x_ni) unfolded.
   Each lane borrows one buffer from its domain's workspace arena and
   reuses it for every sample it owns: a [Gemm] lane's column matrix is
   zeroed once (see im2col_into); an [Int8] lane's holds the quantized
   planes, then the packed B, both fully rewritten per sample. *)
let conv2d_with ~product ?act ~x ~oc ~kernel ~stride ~pad () =
  let n = Tensor.dim x 0 and ic = Tensor.dim x 1 in
  let h = Tensor.dim x 2 and w = Tensor.dim x 3 in
  let oh = out_size ~size:h ~kernel ~stride ~pad in
  let ow = out_size ~size:w ~kernel ~stride ~pad in
  let kk = ic * kernel * kernel and ncols = oh * ow in
  let y = Tensor.create [| n; oc; oh; ow |] in
  let scratch, lane =
    match product with
    | Gemm gemm ->
      ( [| kk; ncols |],
        fun cols ->
          Tensor.fill cols 0.0;
          fun ni yi ->
            im2col_into ?act x ~n:ni ~kernel ~stride ~pad cols;
            gemm cols yi )
    | Int8 (a, act_scale) ->
      let plane = ic * h * w and panels = Blas.Int8.panels_size ~k:kk ~n:ncols in
      ( [| plane + panels |],
        fun buf ->
          let q = Tensor.sub_view buf ~off:0 ~shape:[| plane |] in
          let bp = Tensor.sub_view buf ~off:plane ~shape:[| panels |] in
          fun ni yi ->
            Blas.Int8.quantize_into ?act ~act_scale
              ~src:(Tensor.sub_view x ~off:(ni * plane) ~shape:[| plane |])
              q;
            pack_unfolded q.Tensor.data ~c:ic ~h ~w ~kernel ~stride ~pad ~oh ~ow bp.Tensor.data;
            Blas.Int8.gemm_panels ~a ~act_scale ~b:bp yi )
  in
  Dpool.parallel_for n (fun nlo nhi ->
      Workspace.with_buf scratch (fun buf ->
          let sample = lane buf in
          for ni = nlo to nhi do
            sample ni (Tensor.sub_view y ~off:(ni * oc * ncols) ~shape:[| oc; ncols |])
          done));
  y

(* y[n; oc; oh; ow] with sample ni = col2im (gemm x_ni): the GEMM reads the
   sample's [ic; h*w] plane in place, so an activation of x is the GEMM's
   to apply as it packs B. [cols] is fully overwritten by each GEMM, so it
   is borrowed unzeroed. *)
let conv_transpose2d_with ~gemm ~x ~oc ~kernel ~stride ~pad =
  let n = Tensor.dim x 0 and ic = Tensor.dim x 1 in
  let h = Tensor.dim x 2 and w = Tensor.dim x 3 in
  let oh = tconv_out_size ~size:h ~kernel ~stride ~pad in
  let ow = tconv_out_size ~size:w ~kernel ~stride ~pad in
  let y = Tensor.zeros [| n; oc; oh; ow |] in
  Dpool.parallel_for n (fun nlo nhi ->
      Workspace.with_buf [| oc * kernel * kernel; h * w |] (fun cols ->
          for ni = nlo to nhi do
            gemm (Tensor.sub_view x ~off:(ni * ic * h * w) ~shape:[| ic; h * w |]) cols;
            col2im cols ~dst:y ~n:ni ~channels:oc ~height:oh ~width:ow ~kernel ~stride ~pad
          done));
  y

(* The tape's lowerings pack W (or W^T) once per call, in a workspace
   borrow, and run every sample's product over those panels: by
   Blas.Packed's contract each product is bit-identical to the
   [Blas.gemm ~alpha:1.0 ~beta:0.0] that would pack W again per sample. *)
let conv2d ~x ~weight ~bias ~stride ~pad =
  let ic = Tensor.dim x 1 in
  let oc = Tensor.dim weight 0 and kernel = Tensor.dim weight 2 in
  if Tensor.dim weight 1 <> ic then invalid_arg "Conv.conv2d: channel mismatch";
  let wm = Tensor.view weight [| oc; ic * kernel * kernel |] in
  let y =
    Blas.Packed.with_packed wm (fun a ->
        conv2d_with
          ~product:(Gemm (fun b c -> Blas.Packed.gemm ~a ~b c))
          ~x ~oc ~kernel ~stride ~pad ())
  in
  add_bias_nchw y bias;
  y

let conv2d_backward_into ~x ~weight ~gout ~stride ~pad ~grad_weight ~grad_bias ~gx =
  let n = Tensor.dim x 0 and ic = Tensor.dim x 1 in
  let h = Tensor.dim x 2 and w = Tensor.dim x 3 in
  let oc = Tensor.dim weight 0 and kernel = Tensor.dim weight 2 in
  let oh = Tensor.dim gout 2 and ow = Tensor.dim gout 3 in
  let wm = Tensor.view weight [| oc; ic * kernel * kernel |] in
  let gwm = Tensor.view grad_weight [| oc; ic * kernel * kernel |] in
  if Tensor.shape gx <> [| n; ic; h; w |] then
    invalid_arg "Conv.conv2d_backward_into: gx shape mismatch";
  (* The sample loop stays serial: grad_weight accumulates across samples and
     its float accumulation order is part of the determinism guarantee, so
     each sample adds its own product (beta=1) and the samples are never
     merged into one. The kernels inside each iteration (im2col, both gemms,
     col2im) parallelise internally with disjoint-write slices, which keeps
     every value bit-identical to the serial path. [cols] is zeroed once and
     reused across samples; [dcols] is fully overwritten by its product. *)
  Blas.Packed.with_packed ~trans:true wm (fun wt ->
      Workspace.with_buf ~zero:true [| ic * kernel * kernel; oh * ow |] (fun cols ->
          Workspace.with_buf [| ic * kernel * kernel; oh * ow |] (fun dcols ->
              for ni = 0 to n - 1 do
                im2col_into x ~n:ni ~kernel ~stride ~pad cols;
                let gout_m =
                  Tensor.sub_view gout ~off:(ni * oc * oh * ow) ~shape:[| oc; oh * ow |]
                in
                (* dW += gout * cols^T *)
                Blas.gemm ~trans_b:true ~alpha:1.0 ~a:gout_m ~b:cols ~beta:1.0 gwm;
                (* dcols = W^T * gout, then fold back into the input plane. *)
                Blas.Packed.gemm ~a:wt ~b:gout_m dcols;
                col2im dcols ~dst:gx ~n:ni ~channels:ic ~height:h ~width:w ~kernel ~stride
                  ~pad
              done)));
  bias_grad_nchw gout grad_bias

let conv_transpose2d ~x ~weight ~bias ~stride ~pad =
  let ic = Tensor.dim x 1 in
  if Tensor.dim weight 0 <> ic then invalid_arg "Conv.conv_transpose2d: channel mismatch";
  let oc = Tensor.dim weight 1 and kernel = Tensor.dim weight 2 in
  let wm = Tensor.view weight [| ic; oc * kernel * kernel |] in
  let y =
    Blas.Packed.with_packed ~trans:true wm (fun a ->
        conv_transpose2d_with
          ~gemm:(fun b c -> Blas.Packed.gemm ~a ~b c)
          ~x ~oc ~kernel ~stride ~pad)
  in
  add_bias_nchw y bias;
  y

let conv_transpose2d_backward_into ~x ~weight ~gout ~stride ~pad ~grad_weight ~grad_bias
    ~gx =
  let n = Tensor.dim x 0 and ic = Tensor.dim x 1 in
  let h = Tensor.dim x 2 and w = Tensor.dim x 3 in
  let oc = Tensor.dim weight 1 and kernel = Tensor.dim weight 2 in
  let wm = Tensor.view weight [| ic; oc * kernel * kernel |] in
  let gwm = Tensor.view grad_weight [| ic; oc * kernel * kernel |] in
  if Tensor.shape gx <> [| n; ic; h; w |] then
    invalid_arg "Conv.conv_transpose2d_backward_into: gx shape mismatch";
  (* Serial sample loop for the same reason as conv2d_backward_into: the
     weight gradient's accumulation order must match the serial path
     exactly. *)
  Blas.Packed.with_packed wm (fun wp ->
      Workspace.with_buf ~zero:true [| oc * kernel * kernel; h * w |] (fun cols ->
          for ni = 0 to n - 1 do
            (* The forward pass is col2im(W^T x); its adjoint unfolds gout. *)
            im2col_into gout ~n:ni ~kernel ~stride ~pad cols;
            let xm = Tensor.sub_view x ~off:(ni * ic * h * w) ~shape:[| ic; h * w |] in
            (* dW += x * cols^T *)
            Blas.gemm ~trans_b:true ~alpha:1.0 ~a:xm ~b:cols ~beta:1.0 gwm;
            (* dx = W * cols *)
            let gxm = Tensor.sub_view gx ~off:(ni * ic * h * w) ~shape:[| ic; h * w |] in
            Blas.Packed.gemm ~a:wp ~b:cols gxm
          done));
  bias_grad_nchw gout grad_bias
