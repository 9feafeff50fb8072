(* Post-training int8 quantization helpers.

   The scheme is symmetric (zero-point 0) everywhere: weights carry one
   scale per output row (per-channel for convolutions, whose im2col-lowered
   weight matrix has one row per output channel), activations one scale per
   tensor, observed on a calibration batch.

   The scale rule, the packing and the integer kernel live in {!Blas.Int8};
   this module observes activation ranges on a calibration batch. *)

let amax t =
  let d = t.Tensor.data in
  let n = Tensor.numel t in
  let m = ref 0.0 in
  for i = 0 to n - 1 do
    let v = Float.abs (Bigarray.Array1.unsafe_get d i) in
    if v > !m then m := v
  done;
  !m

let scale_of_amax = Blas.Int8.scale_of_amax

(* A running per-tensor range observer: feed it every calibration activation
   that will flow into one quantized GEMM, then read the scale once. *)
type observer = { mutable obs_amax : float }

let observer () = { obs_amax = 0.0 }

let observe o t =
  let a = amax t in
  if a > o.obs_amax then o.obs_amax <- a

let observed_scale o = scale_of_amax o.obs_amax
