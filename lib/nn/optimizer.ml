type t = {
  mutable lr : float;
  params : Param.t array;
  beta1 : float;
  beta2 : float;
  eps : float;
  m : Tensor.t array;
  v : Tensor.t array;
  mutable step_count : int;
}

let adam ~lr ?(beta1 = 0.9) ?(beta2 = 0.999) ?(eps = 1e-8) params =
  let params = Array.of_list params in
  let m = Array.map (fun p -> Tensor.zeros (Tensor.shape p.Param.value)) params in
  let v = Array.map (fun p -> Tensor.zeros (Tensor.shape p.Param.value)) params in
  { lr; params; beta1; beta2; eps; m; v; step_count = 0 }

let zero_grad t = Array.iter Param.zero_grad t.params
let set_lr t lr = t.lr <- lr
let lr t = t.lr
let params t = Array.to_list t.params

(* The update and the norm read and write the raw buffers: a cross-module
   [Tensor.get]/[set] or a closure per element would box every float. *)
let grad_norm t =
  let acc = ref 0.0 in
  Array.iter
    (fun p ->
      let gd = p.Param.grad.Tensor.data in
      let sq = ref 0.0 in
      for j = 0 to Bigarray.Array1.dim gd - 1 do
        let g = Bigarray.Array1.unsafe_get gd j in
        sq := !sq +. (g *. g)
      done;
      acc := !acc +. !sq)
    t.params;
  sqrt !acc

(* Serializable optimizer state. Every entry is a named float array so it
   drops straight into a {!Checkpoint} state list; [set_state] is the exact
   inverse, fixing the historical silent reset-to-zero of Adam moments when a
   run was resumed from a weights-only checkpoint. *)
let state t =
  [ ("lr", [| t.lr |]); ("step", [| float_of_int t.step_count |]) ]
  @ Array.to_list
      (Array.mapi (fun i p -> ("m." ^ p.Param.name, Tensor.to_array t.m.(i))) t.params)
  @ Array.to_list
      (Array.mapi (fun i p -> ("v." ^ p.Param.name, Tensor.to_array t.v.(i))) t.params)

let set_state t entries =
  let find name =
    match List.assoc_opt name entries with
    | Some a -> a
    | None -> failwith ("Optimizer.set_state: missing entry " ^ name)
  in
  let restore_tensor name dst =
    let a = find name in
    if Array.length a <> Tensor.numel dst then
      failwith ("Optimizer.set_state: length mismatch for " ^ name);
    Array.iteri (fun i v -> Tensor.set dst i v) a
  in
  let scalar name =
    match find name with
    | [| v |] -> v
    | _ -> failwith ("Optimizer.set_state: expected scalar entry " ^ name)
  in
  t.lr <- scalar "lr";
  t.step_count <- int_of_float (scalar "step");
  Array.iteri
    (fun i p ->
      restore_tensor ("m." ^ p.Param.name) t.m.(i);
      restore_tensor ("v." ^ p.Param.name) t.v.(i))
    t.params

(* A rollback point: the moments as float32 copies, so taking one is a copy
   and restoring it a blit, with no float array in between. *)
type snapshot = { s_lr : float; s_step : int; s_m : Tensor.t array; s_v : Tensor.t array }

let snapshot t =
  {
    s_lr = t.lr;
    s_step = t.step_count;
    s_m = Array.map Tensor.copy t.m;
    s_v = Array.map Tensor.copy t.v;
  }

let restore t s =
  t.lr <- s.s_lr;
  t.step_count <- s.s_step;
  Array.iteri (fun i src -> Tensor.blit ~src ~dst:t.m.(i)) s.s_m;
  Array.iteri (fun i src -> Tensor.blit ~src ~dst:t.v.(i)) s.s_v

let step t =
  t.step_count <- t.step_count + 1;
  let bc1 = 1.0 -. (t.beta1 ** float_of_int t.step_count) in
  let bc2 = 1.0 -. (t.beta2 ** float_of_int t.step_count) in
  let beta1 = t.beta1 and beta2 = t.beta2 and lr = t.lr and eps = t.eps in
  Array.iteri
    (fun i p ->
      let g = p.Param.grad.Tensor.data and w = p.Param.value.Tensor.data in
      let m = t.m.(i).Tensor.data and v = t.v.(i).Tensor.data in
      for j = 0 to Bigarray.Array1.dim g - 1 do
        let gj = Bigarray.Array1.unsafe_get g j in
        let mj = (beta1 *. Bigarray.Array1.unsafe_get m j) +. ((1.0 -. beta1) *. gj) in
        let vj = (beta2 *. Bigarray.Array1.unsafe_get v j) +. ((1.0 -. beta2) *. gj *. gj) in
        Bigarray.Array1.unsafe_set m j mj;
        Bigarray.Array1.unsafe_set v j vj;
        let m_hat = mj /. bc1 and v_hat = vj /. bc2 in
        Bigarray.Array1.unsafe_set w j
          (Bigarray.Array1.unsafe_get w j -. (lr *. m_hat /. (sqrt v_hat +. eps)))
      done)
    t.params
