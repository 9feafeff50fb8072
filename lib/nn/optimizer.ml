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

let grad_norm t =
  let acc = ref 0.0 in
  Array.iter
    (fun p -> acc := !acc +. Tensor.fold (fun a g -> a +. (g *. g)) 0.0 p.Param.grad)
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

let step t =
  t.step_count <- t.step_count + 1;
  let bc1 = 1.0 -. (t.beta1 ** float_of_int t.step_count) in
  let bc2 = 1.0 -. (t.beta2 ** float_of_int t.step_count) in
  Array.iteri
    (fun i p ->
      let g = p.Param.grad and m = t.m.(i) and v = t.v.(i) in
      for j = 0 to Tensor.numel g - 1 do
        let gj = Tensor.get g j in
        let mj = (t.beta1 *. Tensor.get m j) +. ((1.0 -. t.beta1) *. gj) in
        let vj = (t.beta2 *. Tensor.get v j) +. ((1.0 -. t.beta2) *. gj *. gj) in
        Tensor.set m j mj;
        Tensor.set v j vj;
        let m_hat = mj /. bc1 and v_hat = vj /. bc2 in
        Tensor.set p.Param.value j
          (Tensor.get p.Param.value j -. (t.lr *. m_hat /. (sqrt v_hat +. t.eps)))
      done)
    t.params
