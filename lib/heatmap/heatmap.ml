type spec = {
  height : int;
  width : int;
  window : int;
  overlap : float;
  granularity : int;
}

let spec ?(height = 64) ?(width = 64) ?(window = 50) ?(overlap = 0.3) ?(granularity = 64) () =
  if height <= 0 || width <= 0 || window <= 0 then
    invalid_arg "Heatmap.spec: dimensions must be positive";
  if overlap < 0.0 || overlap >= 1.0 then
    invalid_arg "Heatmap.spec: overlap must be in [0, 1)";
  if granularity <= 0 then invalid_arg "Heatmap.spec: granularity must be positive";
  { height; width; window; overlap; granularity }

let paper_spec = spec ~height:512 ~width:512 ~window:100 ~overlap:0.3 ~granularity:64 ()

let accesses_per_image s = s.width * s.window

let overlap_columns s = int_of_float (Float.round (s.overlap *. float_of_int s.width))

let step_accesses s = (s.width - overlap_columns s) * s.window

let image_count s trace_len =
  let per_image = accesses_per_image s in
  if trace_len < per_image then
    invalid_arg
      (Printf.sprintf "Heatmap.image_count: trace of %d accesses is shorter than one image (%d)"
         trace_len per_image);
  1 + ((trace_len - per_image) / step_accesses s)

let row_of_address s addr = addr / s.granularity mod s.height

let build_image s addresses keep start =
  let img = Tensor.zeros [| s.height; s.width |] in
  for col = 0 to s.width - 1 do
    let col_start = start + (col * s.window) in
    for k = 0 to s.window - 1 do
      let i = col_start + k in
      if keep i then begin
        let row = row_of_address s addresses.(i) in
        Tensor.set2 img row col (Tensor.get2 img row col +. 1.0)
      end
    done
  done;
  img

let images s addresses keep =
  let n = image_count s (Array.length addresses) in
  List.init n (fun i -> build_image s addresses keep (i * step_accesses s))

let of_trace s addresses = images s addresses (fun _ -> true)

let of_trace_filtered s ~addresses ~keep =
  if Array.length keep <> Array.length addresses then
    invalid_arg "Heatmap.of_trace_filtered: length mismatch";
  images s addresses (fun i -> keep.(i))

let pair_of_trace s ~addresses ~hits =
  if Array.length hits <> Array.length addresses then
    invalid_arg "Heatmap.pair_of_trace: length mismatch";
  let access = of_trace s addresses in
  let miss = images s addresses (fun i -> not hits.(i)) in
  List.combine access miss

(* Streaming accumulator: folds an address/flag stream into heatmap pixels
   without ever materializing the trace arrays. Image origins are whole
   multiples of [step_accesses], itself a multiple of [window] — every
   image's column boundaries align with the global window grid, and
   overlapping images *share* column content. So the accumulator keeps one
   row histogram for the open window plus a ring of the last [width]
   finished columns; a completed image is materialized straight out of the
   ring, and in-flight images exist only as per-plane mass counters. Pixel
   values are integral counts (exact in float32), so the completed images
   are bit-identical to the ones [of_trace]/[images] cut from a recorded
   trace. *)
module Accum = struct
  type pending = {
    start : int;  (* origin, in global window index *)
    own : int array;  (* per plane: integer mass of the columns this image owns *)
  }

  type t = {
    s : spec;
    planes : int;
    step_windows : int;  (* image stride in windows (= width - overlap_columns) *)
    ov_windows : int;  (* leading columns shared with the previous image *)
    window : int;  (* = s.window, cached out of the nested record *)
    height : int;
    width : int;
    shift : int;  (* power-of-two row mapping: row = (addr lsr shift) land rmask *)
    rmask : int;  (* -1 when granularity/height are not both powers of two *)
    winbuf : float array array;  (* per plane: row histogram of the open window *)
    wintot : int array;  (* per plane: counted accesses in the open window *)
    mutable wincount : int;  (* accesses fed into the open window *)
    mutable gwin : int;  (* windows completed so far *)
    ring : float array array;
        (* per plane: last [width] columns, column-major, slot = gwin mod width *)
    mutable pending : pending list;  (* oldest first; the head completes first *)
    mutable completed_rev : Tensor.t array list;  (* newest first *)
    mutable completed : int;
    mass : int array;  (* per plane: de-overlapped mass of completed images *)
  }

  let is_pow2 n = n > 0 && n land (n - 1) = 0

  let log2 n =
    let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
    go 0 n

  let create ?(planes = 1) s =
    if planes < 1 || planes > 30 then invalid_arg "Heatmap.Accum.create: bad plane count";
    if step_accesses s <= 0 then
      invalid_arg "Heatmap.Accum.create: overlap leaves no step between images";
    let shift, rmask =
      if is_pow2 s.granularity && is_pow2 s.height then (log2 s.granularity, s.height - 1)
      else (0, -1)
    in
    let step_windows = s.width - overlap_columns s in
    {
      s;
      planes;
      step_windows;
      ov_windows = s.width - step_windows;
      window = s.window;
      height = s.height;
      width = s.width;
      shift;
      rmask;
      winbuf = Array.init planes (fun _ -> Array.make s.height 0.0);
      wintot = Array.make planes 0;
      wincount = 0;
      gwin = 0;
      ring = Array.init planes (fun _ -> Array.make (s.width * s.height) 0.0);
      pending = [];
      completed_rev = [];
      completed = 0;
      mass = Array.make planes 0;
    }

  (* De-overlap ownership (paper §4.4): the first image owns all its
     columns, every later one only those past the shared prefix — which
     partitions the window axis, so each finished window's total is added
     to exactly one pending image's mass. *)
  let owner_start t g =
    if g < t.width then 0 else g - t.ov_windows - ((g - t.ov_windows) mod t.step_windows)

  let flush t =
    let g = t.gwin in
    let height = t.height and width = t.width in
    let slot = g mod width * height in
    let ost = owner_start t g in
    (match List.find_opt (fun p -> p.start = ost) t.pending with
    | Some p ->
      for q = 0 to t.planes - 1 do
        p.own.(q) <- p.own.(q) + t.wintot.(q)
      done
    | None -> ());
    for p = 0 to t.planes - 1 do
      let src = Array.unsafe_get t.winbuf p in
      Array.blit src 0 (Array.unsafe_get t.ring p) slot height;
      Array.fill src 0 height 0.0;
      t.wintot.(p) <- 0
    done;
    t.wincount <- 0;
    t.gwin <- g + 1;
    (* An image whose last window just landed is cut straight from the ring
       (its [width] columns are exactly the ring's current contents). *)
    let st = g + 1 - width in
    if st >= 0 && st mod t.step_windows = 0 then begin
      match t.pending with
      | img :: rest when img.start = st ->
        t.pending <- rest;
        let out =
          Array.init t.planes (fun p ->
              let tz = Tensor.zeros [| height; width |] in
              (* Straight into the bigarray: a [Tensor.set2] call per pixel
                 would box its float argument. *)
              let dst = tz.Tensor.data in
              let ring = Array.unsafe_get t.ring p in
              for c = 0 to width - 1 do
                let s0 = (st + c) mod width * height in
                for r = 0 to height - 1 do
                  Bigarray.Array1.unsafe_set dst ((r * width) + c)
                    (Array.unsafe_get ring (s0 + r))
                done
              done;
              tz)
        in
        t.completed_rev <- out :: t.completed_rev;
        t.completed <- t.completed + 1;
        for p = 0 to t.planes - 1 do
          t.mass.(p) <- t.mass.(p) + img.own.(p)
        done
      | _ -> ()
    end

  let add t ~addr ~mask =
    if t.wincount = 0 && t.gwin mod t.step_windows = 0 then
      (* Tail append keeps completion order; the list never exceeds
         width / (width - overlap_columns) entries, each a handful of
         words. *)
      t.pending <- t.pending @ [ { start = t.gwin; own = Array.make t.planes 0 } ];
    if mask <> 0 then begin
      let row =
        if t.rmask >= 0 then (addr lsr t.shift) land t.rmask
        else addr / t.s.granularity mod t.s.height
      in
      (* The common shapes are 1 and 2 planes (access / access+miss);
         touch them without the bit-scan loop. *)
      let winbuf = t.winbuf and wintot = t.wintot in
      if mask land 1 <> 0 then begin
        let h = Array.unsafe_get winbuf 0 in
        Array.unsafe_set h row (Array.unsafe_get h row +. 1.0);
        Array.unsafe_set wintot 0 (Array.unsafe_get wintot 0 + 1)
      end;
      if mask land 2 <> 0 && t.planes > 1 then begin
        let h = Array.unsafe_get winbuf 1 in
        Array.unsafe_set h row (Array.unsafe_get h row +. 1.0);
        Array.unsafe_set wintot 1 (Array.unsafe_get wintot 1 + 1)
      end;
      if mask land lnot 3 <> 0 then
        for p = 2 to t.planes - 1 do
          if mask land (1 lsl p) <> 0 then begin
            let h = Array.unsafe_get winbuf p in
            Array.unsafe_set h row (Array.unsafe_get h row +. 1.0);
            Array.unsafe_set wintot p (Array.unsafe_get wintot p + 1)
          end
        done
    end;
    let c = t.wincount + 1 in
    if c = t.s.window then flush t else t.wincount <- c

  let completed t = t.completed
  let fed t = (t.gwin * t.window) + t.wincount

  let images t ~plane =
    if plane < 0 || plane >= t.planes then invalid_arg "Heatmap.Accum.images: bad plane";
    List.rev_map (fun a -> a.(plane)) t.completed_rev

  let take_completed t =
    let out = List.rev t.completed_rev in
    t.completed_rev <- [];
    out

  let deoverlapped_mass t ~plane =
    if plane < 0 || plane >= t.planes then
      invalid_arg "Heatmap.Accum.deoverlapped_mass: bad plane";
    float_of_int t.mass.(plane)
end

let deoverlapped_sum s imgs =
  let ov = overlap_columns s in
  let sum_from img first_col =
    let acc = ref 0.0 in
    for row = 0 to s.height - 1 do
      for col = first_col to s.width - 1 do
        acc := !acc +. Tensor.get2 img row col
      done
    done;
    !acc
  in
  match imgs with
  | [] -> 0.0
  | first :: rest ->
    List.fold_left (fun acc img -> acc +. sum_from img ov) (sum_from first 0) rest

let hit_rate s ~access ~miss =
  let total = deoverlapped_sum s access in
  if total <= 0.0 then 0.0
  else begin
    let missed = deoverlapped_sum s miss in
    1.0 -. (missed /. total)
  end

let render_ascii ?(max_rows = 32) ?(max_cols = 64) img =
  let h = Tensor.dim img 0 and w = Tensor.dim img 1 in
  let rows = min h max_rows and cols = min w max_cols in
  let shades = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |] in
  let cell r c =
    (* Max-pool the covered region so sparse dots stay visible. *)
    let r0 = r * h / rows and r1 = ((r + 1) * h / rows) - 1 in
    let c0 = c * w / cols and c1 = ((c + 1) * w / cols) - 1 in
    let m = ref 0.0 in
    for i = r0 to max r0 r1 do
      for j = c0 to max c0 c1 do
        m := Float.max !m (Tensor.get2 img i j)
      done
    done;
    !m
  in
  let peak = Float.max 1e-9 (Tensor.max_value img) in
  let buf = Buffer.create ((rows + 2) * (cols + 3)) in
  Buffer.add_char buf '+';
  for _ = 1 to cols do Buffer.add_char buf '-' done;
  Buffer.add_string buf "+\n";
  for r = 0 to rows - 1 do
    Buffer.add_char buf '|';
    for c = 0 to cols - 1 do
      let v = cell r c /. peak in
      let idx = min 9 (int_of_float (v *. 9.99)) in
      Buffer.add_char buf shades.(idx)
    done;
    Buffer.add_string buf "|\n"
  done;
  Buffer.add_char buf '+';
  for _ = 1 to cols do Buffer.add_char buf '-' done;
  Buffer.add_string buf "+\n";
  Buffer.contents buf

let write_pgm path img =
  let h = Tensor.dim img 0 and w = Tensor.dim img 1 in
  let peak = Float.max 1e-9 (Tensor.max_value img) in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "P5\n%d %d\n255\n" w h;
      for r = 0 to h - 1 do
        for c = 0 to w - 1 do
          let v = int_of_float (Tensor.get2 img r c /. peak *. 255.0) in
          output_char oc (Char.chr (max 0 (min 255 v)))
        done
      done)
