type buffer =
  (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { data : buffer; shape : int array }

let product a = Array.fold_left ( * ) 1 a

let create shape =
  Array.iter (fun d -> if d <= 0 then invalid_arg "Tensor.create: dims must be positive") shape;
  let data = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout (product shape) in
  { data; shape = Array.copy shape }

let numel t = Bigarray.Array1.dim t.data
let shape t = Array.copy t.shape
let dim t i = t.shape.(i)

let fill t v = Bigarray.Array1.fill t.data v

let zeros shape =
  let t = create shape in
  fill t 0.0;
  t

let full shape v =
  let t = create shape in
  fill t v;
  t

let ones shape = full shape 1.0
let scalar v = full [| 1 |] v

let of_array shape a =
  let t = create shape in
  if Array.length a <> numel t then invalid_arg "Tensor.of_array: length mismatch";
  (* Direct loop: a closure here would box every float on the minor heap. *)
  for i = 0 to Array.length a - 1 do
    Bigarray.Array1.unsafe_set t.data i (Array.unsafe_get a i)
  done;
  t

let randn g shape =
  let t = create shape in
  for i = 0 to numel t - 1 do
    Bigarray.Array1.unsafe_set t.data i (Prng.gauss g)
  done;
  t

let blit ~src ~dst =
  if numel src <> numel dst then invalid_arg "Tensor.blit: size mismatch";
  Bigarray.Array1.blit src.data dst.data

let copy t =
  let r = create t.shape in
  blit ~src:t ~dst:r;
  r

let of_buffer buf shape =
  if product shape <> Bigarray.Array1.dim buf then
    invalid_arg "Tensor.of_buffer: element count mismatch";
  { data = buf; shape = Array.copy shape }

let view t shape =
  if product shape <> numel t then invalid_arg "Tensor.view: element count mismatch";
  { data = t.data; shape = Array.copy shape }

let sub_view t ~off ~shape =
  let len = product shape in
  if off < 0 || off + len > numel t then invalid_arg "Tensor.sub_view: out of range";
  { data = Bigarray.Array1.sub t.data off len; shape = Array.copy shape }

let get t i = Bigarray.Array1.get t.data i
let set t i v = Bigarray.Array1.set t.data i v

let get2 t i j =
  assert (Array.length t.shape = 2);
  Bigarray.Array1.get t.data ((i * t.shape.(1)) + j)

let set2 t i j v =
  assert (Array.length t.shape = 2);
  Bigarray.Array1.set t.data ((i * t.shape.(1)) + j) v

let idx4 t n c h w =
  let sh = t.shape in
  ((((n * sh.(1)) + c) * sh.(2)) + h) * sh.(3) + w

let get4 t n c h w =
  assert (Array.length t.shape = 4);
  Bigarray.Array1.get t.data (idx4 t n c h w)

let set4 t n c h w v =
  assert (Array.length t.shape = 4);
  Bigarray.Array1.set t.data (idx4 t n c h w) v

let to_array t =
  let n = numel t in
  let a = Array.create_float n in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (Bigarray.Array1.unsafe_get t.data i)
  done;
  a

let check_same_size name a b =
  if numel a <> numel b then invalid_arg (name ^ ": size mismatch")

(* Elementwise loops fan out over the domain pool above this element count;
   each lane owns a contiguous disjoint index slice, so parallel results are
   bit-identical to the serial loop at any domain count. *)
let par_numel = 1 lsl 16

let pfor n body = if n < par_numel then body 0 (n - 1) else Dpool.parallel_for n body

let add_ dst x =
  check_same_size "Tensor.add_" dst x;
  let d = dst.data and s = x.data in
  pfor (numel dst) (fun lo hi ->
      for i = lo to hi do
        Bigarray.Array1.unsafe_set d i
          (Bigarray.Array1.unsafe_get d i +. Bigarray.Array1.unsafe_get s i)
      done)

let sub_ dst x =
  check_same_size "Tensor.sub_" dst x;
  let d = dst.data and s = x.data in
  pfor (numel dst) (fun lo hi ->
      for i = lo to hi do
        Bigarray.Array1.unsafe_set d i
          (Bigarray.Array1.unsafe_get d i -. Bigarray.Array1.unsafe_get s i)
      done)

let mul_ dst x =
  check_same_size "Tensor.mul_" dst x;
  let d = dst.data and s = x.data in
  pfor (numel dst) (fun lo hi ->
      for i = lo to hi do
        Bigarray.Array1.unsafe_set d i
          (Bigarray.Array1.unsafe_get d i *. Bigarray.Array1.unsafe_get s i)
      done)

let scale_ t alpha =
  let d = t.data in
  pfor (numel t) (fun lo hi ->
      for i = lo to hi do
        Bigarray.Array1.unsafe_set d i (Bigarray.Array1.unsafe_get d i *. alpha)
      done)

let axpy ~alpha ~x ~y =
  check_same_size "Tensor.axpy" x y;
  let xd = x.data and yd = y.data in
  pfor (numel x) (fun lo hi ->
      for i = lo to hi do
        Bigarray.Array1.unsafe_set yd i
          ((alpha *. Bigarray.Array1.unsafe_get xd i) +. Bigarray.Array1.unsafe_get yd i)
      done)

(* [f] must be pure: it may run concurrently on several domains. *)
let map_ f t =
  let d = t.data in
  pfor (numel t) (fun lo hi ->
      for i = lo to hi do
        Bigarray.Array1.unsafe_set d i (f (Bigarray.Array1.unsafe_get d i))
      done)

let clip_ t ~lo ~hi = map_ (fun v -> Float.max lo (Float.min hi v)) t

let binop name f a b =
  check_same_size name a b;
  let r = create a.shape in
  let rd = r.data and ad = a.data and bd = b.data in
  pfor (numel a) (fun lo hi ->
      for i = lo to hi do
        Bigarray.Array1.unsafe_set rd i
          (f (Bigarray.Array1.unsafe_get ad i) (Bigarray.Array1.unsafe_get bd i))
      done);
  r

(* A copy and an in-place loop: [binop]'s closure would box every float. *)
let copy_then name op_ a b =
  check_same_size name a b;
  let r = copy a in
  op_ r b;
  r

let add a b = copy_then "Tensor.add" add_ a b
let sub a b = copy_then "Tensor.sub" sub_ a b
let mul a b = copy_then "Tensor.mul" mul_ a b
let div a b = binop "Tensor.div" ( /. ) a b
let map2 f a b = binop "Tensor.map2" f a b

let map f t =
  let r = copy t in
  map_ f r;
  r

let scale t alpha = map (fun v -> v *. alpha) t
let neg t = map (fun v -> -.v) t

let fold f init t =
  let acc = ref init in
  let d = t.data in
  for i = 0 to numel t - 1 do
    acc := f !acc (Bigarray.Array1.unsafe_get d i)
  done;
  !acc

(* Summation over fixed-size chunks: partials are computed per chunk (in
   parallel for large tensors) and combined in chunk order. The chunk grid
   depends only on the element count — never on the domain count — so the
   result is identical for every pool size, serial included. *)
let sum t =
  let n = numel t in
  let d = t.data in
  let range_sum lo hi =
    let acc = ref 0.0 in
    for i = lo to hi do
      acc := !acc +. Bigarray.Array1.unsafe_get d i
    done;
    !acc
  in
  if n <= par_numel then range_sum 0 (n - 1)
  else begin
    let nchunks = (n + par_numel - 1) / par_numel in
    let partials = Array.make nchunks 0.0 in
    Dpool.parallel_for nchunks (fun clo chi ->
        for c = clo to chi do
          partials.(c) <- range_sum (c * par_numel) (min (n - 1) (((c + 1) * par_numel) - 1))
        done);
    Array.fold_left ( +. ) 0.0 partials
  end

let mean t = sum t /. float_of_int (numel t)
let max_value t = fold Float.max Float.neg_infinity t
let min_value t = fold Float.min Float.infinity t

let channel_mean_var t =
  if Array.length t.shape <> 4 then invalid_arg "Tensor.channel_mean_var: need NCHW";
  let n = t.shape.(0) and c = t.shape.(1) and h = t.shape.(2) and w = t.shape.(3) in
  let count = float_of_int (n * h * w) in
  let means = Array.make c 0.0 and vars = Array.make c 0.0 in
  let hw = h * w in
  let d = t.data in
  for ci = 0 to c - 1 do
    let acc = ref 0.0 in
    for ni = 0 to n - 1 do
      let base = ((ni * c) + ci) * hw in
      for i = 0 to hw - 1 do
        acc := !acc +. Bigarray.Array1.unsafe_get d (base + i)
      done
    done;
    let m = !acc /. count in
    means.(ci) <- m;
    let accv = ref 0.0 in
    for ni = 0 to n - 1 do
      let base = ((ni * c) + ci) * hw in
      for i = 0 to hw - 1 do
        let x = Bigarray.Array1.unsafe_get d (base + i) -. m in
        accv := !accv +. (x *. x)
      done
    done;
    vars.(ci) <- !accv /. count
  done;
  (means, vars)

let concat_channels a b =
  if Array.length a.shape <> 4 || Array.length b.shape <> 4 then
    invalid_arg "Tensor.concat_channels: need NCHW";
  let n = a.shape.(0) and ca = a.shape.(1) and h = a.shape.(2) and w = a.shape.(3) in
  let cb = b.shape.(1) in
  if b.shape.(0) <> n || b.shape.(2) <> h || b.shape.(3) <> w then
    invalid_arg "Tensor.concat_channels: N/H/W mismatch";
  let r = create [| n; ca + cb; h; w |] in
  let hw = h * w in
  for ni = 0 to n - 1 do
    let src_a = Bigarray.Array1.sub a.data (ni * ca * hw) (ca * hw) in
    let src_b = Bigarray.Array1.sub b.data (ni * cb * hw) (cb * hw) in
    let dst_a = Bigarray.Array1.sub r.data (ni * (ca + cb) * hw) (ca * hw) in
    let dst_b = Bigarray.Array1.sub r.data ((ni * (ca + cb) * hw) + (ca * hw)) (cb * hw) in
    Bigarray.Array1.blit src_a dst_a;
    Bigarray.Array1.blit src_b dst_b
  done;
  r

let broadcast_spatial t ~h ~w =
  if Array.length t.shape <> 4 then invalid_arg "Tensor.broadcast_spatial: need NCHW";
  if t.shape.(2) <> 1 || t.shape.(3) <> 1 then
    invalid_arg "Tensor.broadcast_spatial: source must be [n;c;1;1]";
  if h <= 0 || w <= 0 then invalid_arg "Tensor.broadcast_spatial: bad target size";
  let n = t.shape.(0) and c = t.shape.(1) in
  let r = create [| n; c; h; w |] in
  let hw = h * w in
  let d = t.data and rd = r.data in
  for nc = 0 to (n * c) - 1 do
    let v = Bigarray.Array1.unsafe_get d nc in
    let base = nc * hw in
    for i = 0 to hw - 1 do
      Bigarray.Array1.unsafe_set rd (base + i) v
    done
  done;
  r

let spatial_sum t =
  if Array.length t.shape <> 4 then invalid_arg "Tensor.spatial_sum: need NCHW";
  let n = t.shape.(0) and c = t.shape.(1) and h = t.shape.(2) and w = t.shape.(3) in
  let r = create [| n; c; 1; 1 |] in
  let hw = h * w in
  let d = t.data and rd = r.data in
  for nc = 0 to (n * c) - 1 do
    let base = nc * hw in
    let acc = ref 0.0 in
    for i = 0 to hw - 1 do
      acc := !acc +. Bigarray.Array1.unsafe_get d (base + i)
    done;
    Bigarray.Array1.unsafe_set rd nc !acc
  done;
  r

let spatial_mean t =
  let r = spatial_sum t in
  let hw = float_of_int (t.shape.(2) * t.shape.(3)) in
  scale_ r (1.0 /. hw);
  { data = r.data; shape = [| t.shape.(0); t.shape.(1) |] }

let split_channels t c =
  if Array.length t.shape <> 4 then invalid_arg "Tensor.split_channels: need NCHW";
  let n = t.shape.(0) and ct = t.shape.(1) and h = t.shape.(2) and w = t.shape.(3) in
  if c <= 0 || c >= ct then invalid_arg "Tensor.split_channels: bad split point";
  let hw = h * w in
  let a = create [| n; c; h; w |] and b = create [| n; ct - c; h; w |] in
  for ni = 0 to n - 1 do
    let src_a = Bigarray.Array1.sub t.data (ni * ct * hw) (c * hw) in
    let src_b = Bigarray.Array1.sub t.data ((ni * ct * hw) + (c * hw)) ((ct - c) * hw) in
    Bigarray.Array1.blit src_a (Bigarray.Array1.sub a.data (ni * c * hw) (c * hw));
    Bigarray.Array1.blit src_b (Bigarray.Array1.sub b.data (ni * (ct - c) * hw) ((ct - c) * hw))
  done;
  (a, b)

let slice_batch t off len =
  let sh = t.shape in
  if Array.length sh < 1 then invalid_arg "Tensor.slice_batch: rank 0";
  if off < 0 || len <= 0 || off + len > sh.(0) then
    invalid_arg "Tensor.slice_batch: out of range";
  let row = product (Array.sub sh 1 (Array.length sh - 1)) in
  let out_shape = Array.copy sh in
  out_shape.(0) <- len;
  let r = create out_shape in
  Bigarray.Array1.blit (Bigarray.Array1.sub t.data (off * row) (len * row)) r.data;
  r

let stack_batch ts =
  match ts with
  | [] -> invalid_arg "Tensor.stack_batch: empty"
  | first :: _ ->
    let tail_shape = Array.sub first.shape 1 (Array.length first.shape - 1) in
    let row = product tail_shape in
    List.iter
      (fun t ->
        if Array.sub t.shape 1 (Array.length t.shape - 1) <> tail_shape then
          invalid_arg "Tensor.stack_batch: trailing dims mismatch")
      ts;
    let total = List.fold_left (fun acc t -> acc + t.shape.(0)) 0 ts in
    let out_shape = Array.append [| total |] tail_shape in
    let r = create out_shape in
    let off = ref 0 in
    List.iter
      (fun t ->
        let n = numel t in
        Bigarray.Array1.blit t.data (Bigarray.Array1.sub r.data !off n);
        off := !off + n)
      ts;
    ignore row;
    r

let pp ppf t =
  let n = numel t in
  let limit = min n 8 in
  Format.fprintf ppf "tensor%a [" (fun ppf sh ->
      Array.iter (fun d -> Format.fprintf ppf " %d" d) sh)
    t.shape;
  for i = 0 to limit - 1 do
    Format.fprintf ppf "%s%.4g" (if i > 0 then "; " else "") (get t i)
  done;
  if n > limit then Format.fprintf ppf "; ...";
  Format.fprintf ppf "]"
