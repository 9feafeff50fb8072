let check_2d name t =
  if Array.length (Tensor.shape t) <> 2 then invalid_arg (name ^ ": expected 2-D tensor")

let transpose_into ~src ~dst =
  let m = Tensor.dim src 0 and n = Tensor.dim src 1 in
  let td = src.Tensor.data and rd = dst.Tensor.data in
  for i = 0 to m - 1 do
    let row = i * n in
    for j = 0 to n - 1 do
      Bigarray.Array1.unsafe_set rd ((j * m) + i) (Bigarray.Array1.unsafe_get td (row + j))
    done
  done

(* Minimum multiply-add count before a kernel is worth packing panels or
   fanning out over the domain pool; below it the overhead dominates.
   Thresholding never affects results: the small path runs the same scalar
   recurrence serially. *)
let par_flops = 16_384
let small_cutoff = ref par_flops
let set_small_cutoff n = small_cutoff := max 0 n

(* A small product runs the row kernel, which accumulates straight into C
   and so rounds to float32 at every step, where the tiled kernel rounds
   once per KC block: two products of the same element agree bit for bit
   only when both take the same path. *)
let is_small ~m ~k ~n = m * n * k < !small_cutoff

(* An activation applied where a kernel loads its B operand, so the caller
   never materialises the activated tensor. [Relu] is [Float.max 0.0] and
   [Leaky s] is [if v > 0 then v else s * v], the tape's own definitions.

   Activation signs are random, so a branch on the sign mispredicts half
   the time: with it, a ReLU'd 16x32 by 32x1024 product took 1.67x the
   plain one; with the branch-free forms below, 1.25x. For finite v they
   are exact: v + |v| and v - |v| are 0 or 2v, and halving 2v gives v
   back. The one difference is a leaky output of -0.0,
   which comes out +0.0; no kernel can observe it, because every
   accumulator starts at +0.0 and int8 quantizes both zeros to 0. Infinite
   and NaN inputs take the branching definitions. *)
type act = No_act | Relu | Leaky of float

let[@inline] activate act v =
  match act with
  | No_act -> v
  | Relu ->
    let a = Float.abs v in
    if a < Float.infinity then (v +. a) *. 0.5 else if v <= 0.0 then 0.0 else v
  | Leaky s ->
    let a = Float.abs v in
    if a < Float.infinity then ((v +. a) *. 0.5) +. (s *. ((v -. a) *. 0.5))
    else if v > 0.0 then v else s *. v

let activate_ act t =
  if act <> No_act then begin
    let d = t.Tensor.data in
    for i = 0 to Tensor.numel t - 1 do
      Bigarray.Array1.unsafe_set d i (activate act (Bigarray.Array1.unsafe_get d i))
    done
  end

(* Every bigarray parameter of a kernel in this file carries its full type.
   Without flambda, [Bigarray.Array1.unsafe_get]/[unsafe_set] are specialised
   when the use site is type-checked; on a parameter whose element kind and
   layout are still polymorphic they compile to a [caml_ba_get_1]/
   [caml_ba_set_1] C call per element (boxing every float), and no later
   inlining undoes that. test/check_bigarray_calls.sh guards the rule. *)

(* --- the small-product row kernel ---

   c += a * b over plain row-major operands ([m x k] by [k x n]), with an
   i-k-j loop order so the inner loop streams contiguously over b and c,
   and two rows of A per pass to halve the traffic on B. Every multiply-add
   lands in C, so each one rounds to float32. Only products below
   [small_cutoff] run it, serially. *)
let gemm_rows ~(ad : Tensor.buffer) ~(bd : Tensor.buffer) ~(cd : Tensor.buffer) ~m ~k ~n =
  let i = ref 0 in
  while !i < m do
    let two_rows = !i + 1 < m in
    let a_row0 = !i * k and a_row1 = (!i + 1) * k in
    let c_row0 = !i * n and c_row1 = (!i + 1) * n in
    for p = 0 to k - 1 do
      let a0 = Bigarray.Array1.unsafe_get ad (a_row0 + p) in
      let a1 = if two_rows then Bigarray.Array1.unsafe_get ad (a_row1 + p) else 0.0 in
      if a0 <> 0.0 || a1 <> 0.0 then begin
        let b_row = p * n in
        if two_rows then
          for j = 0 to n - 1 do
            let bv = Bigarray.Array1.unsafe_get bd (b_row + j) in
            Bigarray.Array1.unsafe_set cd (c_row0 + j)
              (Bigarray.Array1.unsafe_get cd (c_row0 + j) +. (a0 *. bv));
            Bigarray.Array1.unsafe_set cd (c_row1 + j)
              (Bigarray.Array1.unsafe_get cd (c_row1 + j) +. (a1 *. bv))
          done
        else
          for j = 0 to n - 1 do
            Bigarray.Array1.unsafe_set cd (c_row0 + j)
              (Bigarray.Array1.unsafe_get cd (c_row0 + j)
              +. (a0 *. Bigarray.Array1.unsafe_get bd (b_row + j)))
          done
      end
    done;
    i := !i + if two_rows then 2 else 1
  done

(* The small path: C += a * act(op(b)) by the row kernel, where [ad] holds
   op(A) row-major ([m] x [k]). B goes in as stored when it needs neither
   a transpose nor an activation, else as a transposed, activated copy. *)
let small_gemm ~(ad : Tensor.buffer) ~m ~k ~trans_b ~act b c =
  let n = Tensor.dim c 1 in
  let run (bd : Tensor.buffer) = gemm_rows ~ad ~bd ~cd:c.Tensor.data ~m ~k ~n in
  if (not trans_b) && act = No_act then run b.Tensor.data
  else
    Workspace.with_buf [| k; n |] (fun ab ->
        if trans_b then transpose_into ~src:b ~dst:ab else Tensor.blit ~src:b ~dst:ab;
        activate_ act ab;
        run ab.Tensor.data)

(* --- the tiled & packed kernel ---

   Classic three-level blocking: op(A) is packed once, into MR-tall k-major
   row micro-panels grouped in KC-deep blocks (a [Packed.t]); C is computed
   in NC-wide column blocks, and for each, B is packed one KC x NC panel at
   a time into NR-wide column micro-panels (k-major, zero-padded to a whole
   panel). Register tiles then cover each MR x NR tile of C, MC rows of A
   at a time, two 4x2 tiles or a 4x2 and a 4x1 or one of either: each
   accumulates a full KC block into local accumulators and flushes to C
   once.

   Determinism: an element (i, j) of C receives exactly one contribution per
   (jc, pc) block, in pc order, each computed by the same scalar k-ordered
   recurrence. The domain pool partitions rows of C in MR-aligned panels, so
   lane boundaries change neither the KC grid nor any element's accumulation
   order — results are bit-identical for every domain count. Zero padding in
   the packed panels only feeds accumulators whose rows/columns fall outside
   the matrix and are never written back. *)

let mr = 4
let nr = 4
let kc_blk = 256
let mc_blk = 64
let nc_blk = 256

(* Pack act(op(B))[p0 .. p0+kcur-1, j0 .. j0+ncur-1] as NR-wide k-major
   panels; columns past [ncur] pack as zero. [bc] is [b]'s stored column
   count. *)
let pack_b ~trans ~act (bd : Tensor.buffer) ~bc ~p0 ~kcur ~j0 ~ncur (dst : Tensor.buffer) =
  let panels = (ncur + nr - 1) / nr in
  for pj = 0 to panels - 1 do
    let base = pj * nr * kcur in
    let col0 = j0 + (pj * nr) in
    for p = 0 to kcur - 1 do
      let o = base + (p * nr) in
      let kp = p0 + p in
      for cc = 0 to nr - 1 do
        let j = col0 + cc in
        let v =
          if j < j0 + ncur then
            activate act
              (if trans then Bigarray.Array1.unsafe_get bd ((j * bc) + kp)
               else Bigarray.Array1.unsafe_get bd ((kp * bc) + j))
          else 0.0
        in
        Bigarray.Array1.unsafe_set dst (o + cc) v
      done
    done
  done

(* Register tiles. A tile reads an MR-tall packed A panel from [a0] and
   one or two columns of an NR-wide packed B panel from [b0] (a stride of
   NR per depth step), accumulates a full KC block in k order into local
   accumulators, then adds its first [rows] rows into C (the rest belong
   to zero-padded edge rows and are discarded). The 4x2 tile keeps
   8 accumulators, 4 A operands and 2 B operands in 14 of amd64's 16 float
   registers, so nothing spills inside the depth loop; a 4x4 tile would
   need 24, and would reload and re-store an accumulator at every
   multiply-add. The
   depth loop is unrolled by two, and each accumulator still adds its
   products one at a time in k order. The tiles stay out of line so that
   test/check_kernel_spills.sh sees every copy of their loops. *)
let[@inline never] kern4x2 (ap : Tensor.buffer) a0 (bp : Tensor.buffer) b0 ~kcur
    (cd : Tensor.buffer) ~c0 ~ldc ~rows =
  let c00 = ref 0.0 and c01 = ref 0.0 and c10 = ref 0.0 and c11 = ref 0.0 in
  let c20 = ref 0.0 and c21 = ref 0.0 and c30 = ref 0.0 and c31 = ref 0.0 in
  let ai = ref a0 and bi = ref b0 in
  for _ = 1 to kcur / 2 do
    let x0 = Bigarray.Array1.unsafe_get ap !ai
    and x1 = Bigarray.Array1.unsafe_get ap (!ai + 1)
    and x2 = Bigarray.Array1.unsafe_get ap (!ai + 2)
    and x3 = Bigarray.Array1.unsafe_get ap (!ai + 3) in
    let y0 = Bigarray.Array1.unsafe_get bp !bi and y1 = Bigarray.Array1.unsafe_get bp (!bi + 1) in
    c00 := !c00 +. (x0 *. y0);
    c01 := !c01 +. (x0 *. y1);
    c10 := !c10 +. (x1 *. y0);
    c11 := !c11 +. (x1 *. y1);
    c20 := !c20 +. (x2 *. y0);
    c21 := !c21 +. (x2 *. y1);
    c30 := !c30 +. (x3 *. y0);
    c31 := !c31 +. (x3 *. y1);
    let x0 = Bigarray.Array1.unsafe_get ap (!ai + 4)
    and x1 = Bigarray.Array1.unsafe_get ap (!ai + 5)
    and x2 = Bigarray.Array1.unsafe_get ap (!ai + 6)
    and x3 = Bigarray.Array1.unsafe_get ap (!ai + 7) in
    let y0 = Bigarray.Array1.unsafe_get bp (!bi + 4)
    and y1 = Bigarray.Array1.unsafe_get bp (!bi + 5) in
    c00 := !c00 +. (x0 *. y0);
    c01 := !c01 +. (x0 *. y1);
    c10 := !c10 +. (x1 *. y0);
    c11 := !c11 +. (x1 *. y1);
    c20 := !c20 +. (x2 *. y0);
    c21 := !c21 +. (x2 *. y1);
    c30 := !c30 +. (x3 *. y0);
    c31 := !c31 +. (x3 *. y1);
    ai := !ai + 8;
    bi := !bi + 8
  done;
  if kcur land 1 = 1 then begin
    let x0 = Bigarray.Array1.unsafe_get ap !ai
    and x1 = Bigarray.Array1.unsafe_get ap (!ai + 1)
    and x2 = Bigarray.Array1.unsafe_get ap (!ai + 2)
    and x3 = Bigarray.Array1.unsafe_get ap (!ai + 3) in
    let y0 = Bigarray.Array1.unsafe_get bp !bi and y1 = Bigarray.Array1.unsafe_get bp (!bi + 1) in
    c00 := !c00 +. (x0 *. y0);
    c01 := !c01 +. (x0 *. y1);
    c10 := !c10 +. (x1 *. y0);
    c11 := !c11 +. (x1 *. y1);
    c20 := !c20 +. (x2 *. y0);
    c21 := !c21 +. (x2 *. y1);
    c30 := !c30 +. (x3 *. y0);
    c31 := !c31 +. (x3 *. y1)
  end;
  let o = c0 in
  Bigarray.Array1.unsafe_set cd o (Bigarray.Array1.unsafe_get cd o +. !c00);
  Bigarray.Array1.unsafe_set cd (o + 1) (Bigarray.Array1.unsafe_get cd (o + 1) +. !c01);
  if rows > 1 then begin
    let o = o + ldc in
    Bigarray.Array1.unsafe_set cd o (Bigarray.Array1.unsafe_get cd o +. !c10);
    Bigarray.Array1.unsafe_set cd (o + 1) (Bigarray.Array1.unsafe_get cd (o + 1) +. !c11)
  end;
  if rows > 2 then begin
    let o = o + (2 * ldc) in
    Bigarray.Array1.unsafe_set cd o (Bigarray.Array1.unsafe_get cd o +. !c20);
    Bigarray.Array1.unsafe_set cd (o + 1) (Bigarray.Array1.unsafe_get cd (o + 1) +. !c21)
  end;
  if rows > 3 then begin
    let o = o + (3 * ldc) in
    Bigarray.Array1.unsafe_set cd o (Bigarray.Array1.unsafe_get cd o +. !c30);
    Bigarray.Array1.unsafe_set cd (o + 1) (Bigarray.Array1.unsafe_get cd (o + 1) +. !c31)
  end

(* The 4x1 tile: one column of a packed B panel, for a lone last column. *)
let[@inline never] kern4x1 (ap : Tensor.buffer) a0 (bp : Tensor.buffer) b0 ~kcur
    (cd : Tensor.buffer) ~c0 ~ldc ~rows =
  let c0v = ref 0.0 and c1v = ref 0.0 and c2v = ref 0.0 and c3v = ref 0.0 in
  let ai = ref a0 and bi = ref b0 in
  for _ = 1 to kcur / 2 do
    let x0 = Bigarray.Array1.unsafe_get ap !ai
    and x1 = Bigarray.Array1.unsafe_get ap (!ai + 1)
    and x2 = Bigarray.Array1.unsafe_get ap (!ai + 2)
    and x3 = Bigarray.Array1.unsafe_get ap (!ai + 3) in
    let y = Bigarray.Array1.unsafe_get bp !bi in
    c0v := !c0v +. (x0 *. y);
    c1v := !c1v +. (x1 *. y);
    c2v := !c2v +. (x2 *. y);
    c3v := !c3v +. (x3 *. y);
    let x0 = Bigarray.Array1.unsafe_get ap (!ai + 4)
    and x1 = Bigarray.Array1.unsafe_get ap (!ai + 5)
    and x2 = Bigarray.Array1.unsafe_get ap (!ai + 6)
    and x3 = Bigarray.Array1.unsafe_get ap (!ai + 7) in
    let y = Bigarray.Array1.unsafe_get bp (!bi + 4) in
    c0v := !c0v +. (x0 *. y);
    c1v := !c1v +. (x1 *. y);
    c2v := !c2v +. (x2 *. y);
    c3v := !c3v +. (x3 *. y);
    ai := !ai + 8;
    bi := !bi + 8
  done;
  if kcur land 1 = 1 then begin
    let x0 = Bigarray.Array1.unsafe_get ap !ai
    and x1 = Bigarray.Array1.unsafe_get ap (!ai + 1)
    and x2 = Bigarray.Array1.unsafe_get ap (!ai + 2)
    and x3 = Bigarray.Array1.unsafe_get ap (!ai + 3) in
    let y = Bigarray.Array1.unsafe_get bp !bi in
    c0v := !c0v +. (x0 *. y);
    c1v := !c1v +. (x1 *. y);
    c2v := !c2v +. (x2 *. y);
    c3v := !c3v +. (x3 *. y)
  end;
  Bigarray.Array1.unsafe_set cd c0 (Bigarray.Array1.unsafe_get cd c0 +. !c0v);
  if rows > 1 then begin
    let o = c0 + ldc in
    Bigarray.Array1.unsafe_set cd o (Bigarray.Array1.unsafe_get cd o +. !c1v)
  end;
  if rows > 2 then begin
    let o = c0 + (2 * ldc) in
    Bigarray.Array1.unsafe_set cd o (Bigarray.Array1.unsafe_get cd o +. !c2v)
  end;
  if rows > 3 then begin
    let o = c0 + (3 * ldc) in
    Bigarray.Array1.unsafe_set cd o (Bigarray.Array1.unsafe_get cd o +. !c3v)
  end

(* One MR x NR tile of C from an MR-tall packed A panel at [a0] and an
   NR-wide packed B panel at [b0], [cols] of whose columns are real: a 4x2
   tile on each full column pair, a 4x1 tile on a lone last column. *)
let tile ap a0 bp b0 ~kcur cd ~c0 ~ldc ~rows ~cols =
  if cols >= 2 then kern4x2 ap a0 bp b0 ~kcur cd ~c0 ~ldc ~rows;
  if cols = 4 then kern4x2 ap a0 bp (b0 + 2) ~kcur cd ~c0:(c0 + 2) ~ldc ~rows
  else if cols land 1 = 1 then
    kern4x1 ap a0 bp (b0 + cols - 1) ~kcur cd ~c0:(c0 + cols - 1) ~ldc ~rows

(* --- packed A operands ---

   op(A) packed into MR-tall k-major panels grouped in KC-major blocks
   (padding rows zero): the layout of [Int8.qweight]. Row i, depth p of
   op(A) lives at [pack_index]. Inference packs each weight once, a
   convolution on the tape once per call, and [gemm] its A once per call;
   every product then runs [Packed.lane] over the stored panels. *)

let npanels m = (m + mr - 1) / mr

let pack_index ~m ~k ~i ~p =
  let p0 = p / kc_blk * kc_blk in
  let kcur = min kc_blk (k - p0) in
  (npanels m * mr * p0) + (i / mr * mr * kcur) + ((p - p0) * mr) + (i mod mr)

module Packed = struct
  type t = { pm : int; pk : int; pdata : Tensor.buffer }

  let rows t = t.pm

  (* One pass over [w] into [pdata]. Panel [pi] of the block at depth [pc]
     starts at [npan * MR * pc + pi * MR * kcur], so the domain pool packs
     disjoint panel ranges at once; the values are copies, identical at
     any domain count. A [row_scale] entry multiplies its row, which is how
     a batch norm folds into a weight and [gemm]'s alpha into its A. *)
  let pack_into ~trans ?row_scale w (pdata : Tensor.buffer) =
    let m = Tensor.dim w (if trans then 1 else 0) in
    let k = Tensor.dim w (if trans then 0 else 1) in
    let wd = w.Tensor.data and wc = Tensor.dim w 1 in
    let npan = npanels m in
    let panels plo phi =
      let pc = ref 0 in
      while !pc < k do
        let kcur = min kc_blk (k - !pc) in
        for pi = plo to phi do
          let o = ref ((npan * mr * !pc) + (pi * mr * kcur)) in
          for p = !pc to !pc + kcur - 1 do
            for r = 0 to mr - 1 do
              let i = (pi * mr) + r in
              let v =
                if i >= m then 0.0
                else
                  let v =
                    if trans then Bigarray.Array1.unsafe_get wd ((p * wc) + i)
                    else Bigarray.Array1.unsafe_get wd ((i * wc) + p)
                  in
                  match row_scale with None -> v | Some s -> v *. Array.unsafe_get s i
              in
              Bigarray.Array1.unsafe_set pdata !o v;
              incr o
            done
          done
        done;
        pc := !pc + kcur
      done
    in
    if m * k < par_flops then panels 0 (npan - 1) else Dpool.parallel_for npan panels;
    { pm = m; pk = k; pdata }

  (* The packed size of op(w), after checking [w] and [row_scale]. *)
  let size name ~trans ?row_scale w =
    check_2d name w;
    let m = Tensor.dim w (if trans then 1 else 0) in
    let k = Tensor.dim w (if trans then 0 else 1) in
    (match row_scale with
    | Some s when Array.length s <> m -> invalid_arg (name ^ ": row_scale length")
    | _ -> ());
    npanels m * mr * k

  let pack ?(trans = false) ?row_scale w =
    pack_into ~trans ?row_scale w
      (Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout
         (size "Blas.Packed.pack" ~trans ?row_scale w))

  let with_packed ?(trans = false) ?row_scale w f =
    Workspace.with_buf
      [| size "Blas.Packed.with_packed" ~trans ?row_scale w |]
      (fun buf -> f (pack_into ~trans ?row_scale w buf.Tensor.data))

  (* One lane's share of C += a * act(op(B)): MR panels [pan_lo .. pan_hi]
     of C, in jc -> pc -> MC -> pj -> pi order. [bc] is B's stored column
     count and [bp] this lane's B panel (>= nc_blk*kc_blk elements). *)
  let lane t ~trans_b ~act ~(bd : Tensor.buffer) ~bc ~(cd : Tensor.buffer) ~n ~pan_lo ~pan_hi
      ~(bp : Tensor.buffer) =
    let m = t.pm and k = t.pk and ap = t.pdata in
    let npan = npanels m and mc_pan = mc_blk / mr in
    let jc = ref 0 in
    while !jc < n do
      let ncur = min nc_blk (n - !jc) in
      let pc = ref 0 in
      while !pc < k do
        let kcur = min kc_blk (k - !pc) in
        pack_b ~trans:trans_b ~act bd ~bc ~p0:!pc ~kcur ~j0:!jc ~ncur bp;
        let ablock = npan * mr * !pc in
        let npanb = (ncur + nr - 1) / nr in
        let ic = ref pan_lo in
        while !ic <= pan_hi do
          let ic_hi = min pan_hi (!ic + mc_pan - 1) in
          (* NR-panel outer, MR-panel inner: the KC x NR sliver of packed B
             stays hot in L1 while the MC block of packed A streams past it. *)
          for pj = 0 to npanb - 1 do
            let cols = min nr (ncur - (pj * nr)) in
            let b0 = pj * nr * kcur and jcol = !jc + (pj * nr) in
            for pi = !ic to ic_hi do
              tile ap (ablock + (pi * mr * kcur)) bp b0 ~kcur cd
                ~c0:((pi * mr * n) + jcol)
                ~ldc:n ~rows:(min mr (m - (pi * mr))) ~cols
            done
          done;
          ic := ic_hi + 1
        done;
        pc := !pc + kcur
      done;
      jc := !jc + ncur
    done

  (* C += a * act(op(b)), for a [c] of [rows a] x n. A product below
     [small_cutoff] runs [small_gemm] over a plain copy of op(A), unpacked
     from the panels; a larger one fans the lanes out over the domain
     pool. *)
  let add_into t ~trans_b ~act b c =
    let m = t.pm and k = t.pk and n = Tensor.dim c 1 in
    if is_small ~m ~k ~n then
      Workspace.with_buf [| m; k |] (fun ua ->
          let ud = ua.Tensor.data in
          for i = 0 to m - 1 do
            for p = 0 to k - 1 do
              Bigarray.Array1.unsafe_set ud ((i * k) + p)
                (Bigarray.Array1.unsafe_get t.pdata (pack_index ~m ~k ~i ~p))
            done
          done;
          small_gemm ~ad:ud ~m ~k ~trans_b ~act b c)
    else
      let bd = b.Tensor.data and bc = Tensor.dim b 1 and cd = c.Tensor.data in
      Dpool.parallel_for (npanels m) (fun plo phi ->
          Workspace.with_buf [| nc_blk * kc_blk |] (fun bpt ->
              lane t ~trans_b ~act ~bd ~bc ~cd ~n ~pan_lo:plo ~pan_hi:phi ~bp:bpt.Tensor.data))

  let gemm ?(act = No_act) ~a ~b c =
    check_2d "Blas.Packed.gemm b" b;
    check_2d "Blas.Packed.gemm c" c;
    let m = a.pm and k = a.pk and n = Tensor.dim b 1 in
    if Tensor.dim b 0 <> k then invalid_arg "Blas.Packed.gemm: inner dimension mismatch";
    if Tensor.dim c 0 <> m || Tensor.dim c 1 <> n then
      invalid_arg "Blas.Packed.gemm: output dimension mismatch";
    Tensor.fill c 0.0;
    add_into a ~trans_b:false ~act b c
end

let gemm ?(trans_a = false) ?(trans_b = false) ~alpha ~a ~b ~beta c =
  check_2d "Blas.gemm a" a;
  check_2d "Blas.gemm b" b;
  check_2d "Blas.gemm c" c;
  let m = Tensor.dim a (if trans_a then 1 else 0) in
  let k = Tensor.dim a (if trans_a then 0 else 1) in
  let k2 = Tensor.dim b (if trans_b then 1 else 0) in
  let n = Tensor.dim b (if trans_b then 0 else 1) in
  if k <> k2 then invalid_arg "Blas.gemm: inner dimension mismatch";
  if Tensor.dim c 0 <> m || Tensor.dim c 1 <> n then
    invalid_arg "Blas.gemm: output dimension mismatch";
  if beta = 0.0 then Tensor.fill c 0.0 else if beta <> 1.0 then Tensor.scale_ c beta;
  if alpha = 0.0 then ()
  else if is_small ~m ~k ~n then
    if (not trans_a) && alpha = 1.0 then
      small_gemm ~ad:a.Tensor.data ~m ~k ~trans_b ~act:No_act b c
    else
      (* op(A) row-major, read in storage order, with alpha folded in as
         packing folds it: alpha * a rounds to float32 once (and 1.0 * a
         is a). *)
      Workspace.with_buf [| m; k |] (fun ua ->
          let ad = a.Tensor.data and ud = ua.Tensor.data in
          if trans_a then
            for p = 0 to k - 1 do
              for i = 0 to m - 1 do
                Bigarray.Array1.unsafe_set ud ((i * k) + p)
                  (Bigarray.Array1.unsafe_get ad ((p * m) + i) *. alpha)
              done
            done
          else
            for q = 0 to (m * k) - 1 do
              Bigarray.Array1.unsafe_set ud q (Bigarray.Array1.unsafe_get ad q *. alpha)
            done;
          small_gemm ~ad:ud ~m ~k ~trans_b ~act:No_act b c)
  else
    (* alpha rides on A's packing as a row scale; at 1.0 nothing is scaled. *)
    let row_scale = if alpha = 1.0 then None else Some (Array.make m alpha) in
    Packed.with_packed ~trans:trans_a ?row_scale a (fun p ->
        Packed.add_into p ~trans_b ~act:No_act b c)

(* --- int8 quantized GEMM micro-path ---

   Same MR=NR=4 panel discipline and KC grid as the float32 kernel, but
   the weight side is quantized once (symmetric per-output-row scales,
   q in [-127, 127]) and prepacked at load time, and the activation side is
   quantized per call (one symmetric per-tensor scale) as B is packed.

   Arithmetic: exact integers in double lanes. A packed weight holds two
   rows of a panel in one double, q_r + q_{r+1} * 2^24, and a packed B
   panel holds each column's q as a float32. One multiply-add of a double
   by a column's q therefore advances the dot products of both rows. Over
   one 256-deep KC block each row's dot product is an integer below
   256 * 127 * 127 < 2^22 in magnitude, so the low lane never reaches into
   the high one, the whole double stays below 2^47, and every partial sum
   is exact: the accumulation order cannot change a result. The epilogue
   splits each accumulator back into its two dot products and, per block,
   stores

     c <- f32((c + (scale_w[i] * act_scale) * dot) + bias)

   with the fused bias on the first block only (0.0 after it). The first
   block writes C without reading it, so C needs no clearing.

   The microkernel keeps 2 row pairs x 4 columns in 8 double accumulators.
   With two A and four B operands live it needs 14 of the 16 float
   registers, so nothing spills inside the depth loop; like the float
   tiles it stays out of line, where test/check_kernel_spills.sh checks it.

   Determinism: lanes own MR-aligned row panels, every output element
   receives one contribution per KC block in depth order, and the integer
   part is exact, so results are bit-identical at every domain count. *)

module Int8 = struct
  type lanes = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

  type qweight = {
    qm : int;
    qk : int;
    qpack : lanes;
        (* the layout of a [Packed.t] of the same shape with rows 2t and
           2t+1 of each panel in one double, q_2t + q_2t+1 * 2^24; padding
           rows are 0 *)
    qscales : float array;  (* per-output-row dequant scale, length qm *)
    qbias : float array option;
  }

  let rows t = t.qm
  let scales t = t.qscales

  (* The high lane's weight, 2^24. *)
  let lane_hi = 16_777_216.0

  (* Round-to-nearest (ties away from zero), clamped to the symmetric int8
     range. [inv] is the reciprocal scale. Truncating |v| + 0.5 rounds the
     magnitude and compiles to the cvttsd2si intrinsic — packing runs on
     every call, so no C call here. The sign goes back on through a mask
     (0 for v >= 0, else -1: r = (a lxor mask) - mask) rather than a branch,
     which would mispredict on half of a layer's activations. A NaN gives
     0. *)
  let[@inline] q8 x inv =
    let v = x *. inv in
    let a = int_of_float (Float.abs v +. 0.5) in
    let mask = Bool.to_int (v >= 0.0) - 1 in
    let r = (a lxor mask) - mask in
    if r > 127 then 127 else if r < -127 then -127 else r

  (* [get i p o]: the int8 value, in [-127, 127], of row i, depth p, which
     lands at offset [o] of the layout of a [Packed.t] of the same shape. *)
  let pack_with ~m ~k ~scales ?bias get =
    if m <= 0 || k <= 0 then invalid_arg "Blas.Int8.pack: dims must be positive";
    if Array.length scales <> m then invalid_arg "Blas.Int8.pack: scales length";
    (match bias with
    | Some b when Array.length b <> m -> invalid_arg "Blas.Int8.pack: bias length"
    | _ -> ());
    let npan = npanels m in
    let qpack = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (npan * 2 * k) in
    let q i p o = if i >= m then 0 else get i p o in
    let pc = ref 0 in
    while !pc < k do
      let kcur = min kc_blk (k - !pc) in
      let base = npan * mr * !pc in
      for pi = 0 to npan - 1 do
        for p = 0 to kcur - 1 do
          let o = base + (((pi * kcur) + p) * mr) in
          for t = 0 to 1 do
            let i = (pi * mr) + (2 * t) and oi = o + (2 * t) in
            let lo = q i (!pc + p) oi and hi = q (i + 1) (!pc + p) (oi + 1) in
            Bigarray.Array1.unsafe_set qpack (oi / 2)
              (float_of_int lo +. (lane_hi *. float_of_int hi))
          done
        done
      done;
      pc := !pc + kcur
    done;
    { qm = m; qk = k; qpack; qscales = scales; qbias = bias }

  let pack ~m ~k ~scales ?bias ~get () =
    pack_with ~m ~k ~scales ?bias (fun i p _ ->
        let q = get i p in
        if q < -127 || q > 127 then invalid_arg "Blas.Int8.pack: value outside [-127, 127]";
        q)

  let scale_of_amax a = if a <= 0.0 || not (Float.is_finite a) then 1.0 else a /. 127.0

  (* Symmetric per-row scales over the packed float weight, then pack it:
     both passes walk the float panels in storage order. A NaN would slip
     past the row's max and quantize to 0, so a non-finite weight is
     refused instead. *)
  let quantize_packed ?bias (w : Packed.t) =
    let m = w.Packed.pm and k = w.Packed.pk and wd = w.Packed.pdata in
    let amax = Array.make m 0.0 in
    let o = ref 0 and pc = ref 0 in
    while !pc < k do
      let kcur = min kc_blk (k - !pc) in
      for pi = 0 to npanels m - 1 do
        for _p = 1 to kcur do
          for r = 0 to mr - 1 do
            let i = (pi * mr) + r in
            let v = Float.abs (Bigarray.Array1.unsafe_get wd !o) in
            if not (v < Float.infinity) then
              invalid_arg "Blas.Int8.quantize: non-finite weight";
            if i < m && v > amax.(i) then amax.(i) <- v;
            incr o
          done
        done
      done;
      pc := !pc + kcur
    done;
    let scales = Array.map scale_of_amax amax in
    let invs = Array.map (fun s -> 1.0 /. s) scales in
    pack_with ~m ~k ~scales ?bias (fun i _ o -> q8 (Bigarray.Array1.unsafe_get wd o) invs.(i))

  let quantize ?trans ?bias w =
    check_2d "Blas.Int8.quantize" w;
    quantize_packed ?bias (Packed.pack ?trans w)

  let check_act_scale name s =
    if not (Float.is_finite s) || s <= 0.0 then invalid_arg (name ^ ": act_scale must be positive")

  (* B's packed form: NR-wide k-major panels over the whole depth, (p, j)
     at (j / NR) * NR * k + p * NR + j mod NR, columns past n as 0. *)
  let panels_size ~k ~n = (n + nr - 1) / nr * nr * k

  (* Quantize and pack act(op(B)) ([k x n]). A float32 load and an
     int-to-float conversion each merge into their destination register, so
     a loop that converts one value at a time chains every element through
     one register; four values live at once run as four chains. *)
  let pack_b ~trans ~act (bd : Tensor.buffer) ~bc ~k ~n ~inv (dst : Tensor.buffer) =
    let sp, sj = if trans then (1, bc) else (bc, 1) in
    for pj = 0 to ((n + nr - 1) / nr) - 1 do
      let col0 = pj * nr and base = pj * nr * k in
      if col0 + nr <= n then
        for p = 0 to k - 1 do
          let s = (p * sp) + (col0 * sj) and o = base + (p * nr) in
          let v0 = Bigarray.Array1.unsafe_get bd s
          and v1 = Bigarray.Array1.unsafe_get bd (s + sj)
          and v2 = Bigarray.Array1.unsafe_get bd (s + (2 * sj))
          and v3 = Bigarray.Array1.unsafe_get bd (s + (3 * sj)) in
          let q0 = q8 (activate act v0) inv and q1 = q8 (activate act v1) inv in
          let q2 = q8 (activate act v2) inv and q3 = q8 (activate act v3) inv in
          let f0 = float_of_int q0 and f1 = float_of_int q1 in
          let f2 = float_of_int q2 and f3 = float_of_int q3 in
          Bigarray.Array1.unsafe_set dst o f0;
          Bigarray.Array1.unsafe_set dst (o + 1) f1;
          Bigarray.Array1.unsafe_set dst (o + 2) f2;
          Bigarray.Array1.unsafe_set dst (o + 3) f3
        done
      else
        for p = 0 to k - 1 do
          for cc = 0 to nr - 1 do
            let j = col0 + cc in
            let q =
              if j < n then
                q8 (activate act (Bigarray.Array1.unsafe_get bd ((p * sp) + (j * sj)))) inv
              else 0
            in
            Bigarray.Array1.unsafe_set dst (base + (p * nr) + cc) (float_of_int q)
          done
        done
    done

  (* 2 row pairs x 4 columns over one KC block, from double [a0] of [ap]
     and float [b0] of [bp], into [acc] (pair-major). A float32 load merges
     into its destination register, so the four B operands are loaded
     together: each lands in its own register and depends only on the same
     load one step earlier, not on the load before it. *)
  let[@inline never] kern (ap : lanes) a0 (bp : Tensor.buffer) b0 ~kcur (acc : float array) =
    let c00 = ref 0.0 and c01 = ref 0.0 and c02 = ref 0.0 and c03 = ref 0.0 in
    let c10 = ref 0.0 and c11 = ref 0.0 and c12 = ref 0.0 and c13 = ref 0.0 in
    let ai = ref a0 and bi = ref b0 in
    for _p = 1 to kcur do
      let x0 = Bigarray.Array1.unsafe_get ap !ai and x1 = Bigarray.Array1.unsafe_get ap (!ai + 1) in
      let y0 = Bigarray.Array1.unsafe_get bp !bi
      and y1 = Bigarray.Array1.unsafe_get bp (!bi + 1)
      and y2 = Bigarray.Array1.unsafe_get bp (!bi + 2)
      and y3 = Bigarray.Array1.unsafe_get bp (!bi + 3) in
      c00 := !c00 +. (x0 *. y0);
      c01 := !c01 +. (x0 *. y1);
      c02 := !c02 +. (x0 *. y2);
      c03 := !c03 +. (x0 *. y3);
      c10 := !c10 +. (x1 *. y0);
      c11 := !c11 +. (x1 *. y1);
      c12 := !c12 +. (x1 *. y2);
      c13 := !c13 +. (x1 *. y3);
      ai := !ai + 2;
      bi := !bi + 4
    done;
    Array.unsafe_set acc 0 !c00;
    Array.unsafe_set acc 1 !c01;
    Array.unsafe_set acc 2 !c02;
    Array.unsafe_set acc 3 !c03;
    Array.unsafe_set acc 4 !c10;
    Array.unsafe_set acc 5 !c11;
    Array.unsafe_set acc 6 !c12;
    Array.unsafe_set acc 7 !c13

  (* Adding 1.5 * 2^52 rounds a double of magnitude below 2^51 to an
     integer, with no conversion out of the float registers. *)
  let round_magic = 0x1.8p52

  (* Store one tile's block contribution: [acc] holds row pairs (row0,
     row0+1) and (row0+2, row0+3) of columns [jcol ..]. An accumulator
     a = lo + hi * 2^24 with |lo| < 2^22 splits exactly as
     hi = round(a * 2^-24), lo = a - hi * 2^24. *)
  let flush qw ~act_scale (acc : float array) (cd : Tensor.buffer) ~n ~row0 ~jcol ~cols ~first =
    let m = qw.qm in
    for t = 0 to 1 do
      let i = row0 + (2 * t) in
      if i < m then begin
        let two = i + 1 < m in
        let s0 = qw.qscales.(i) *. act_scale in
        let s1 = if two then qw.qscales.(i + 1) *. act_scale else 0.0 in
        let b0 = match qw.qbias with Some b when first -> b.(i) | _ -> 0.0 in
        let b1 = match qw.qbias with Some b when first && two -> b.(i + 1) | _ -> 0.0 in
        let o0 = (i * n) + jcol in
        for cc = 0 to cols - 1 do
          let a = Array.unsafe_get acc ((nr * t) + cc) in
          let hi = ((a *. 0x1p-24) +. round_magic) -. round_magic in
          let lo = a -. (hi *. lane_hi) in
          let o = o0 + cc in
          let c = if first then 0.0 else Bigarray.Array1.unsafe_get cd o in
          Bigarray.Array1.unsafe_set cd o ((c +. (s0 *. lo)) +. b0);
          if two then begin
            let c = if first then 0.0 else Bigarray.Array1.unsafe_get cd (o + n) in
            Bigarray.Array1.unsafe_set cd (o + n) ((c +. (s1 *. hi)) +. b1)
          end
        done
      end
    done

  (* One lane's share: MR panels [pan_lo .. pan_hi] of C, in [Packed.lane]'s
     jc -> pc -> pj -> pi order over the packed B of [panels_size]. *)
  let lane qw ~act_scale ~(bp : Tensor.buffer) ~(cd : Tensor.buffer) ~n ~pan_lo ~pan_hi =
    let m = qw.qm and k = qw.qk and ap = qw.qpack in
    let npan = npanels m in
    let acc = Array.make 8 0.0 in
    let jc = ref 0 in
    while !jc < n do
      let ncur = min nc_blk (n - !jc) in
      let pc = ref 0 in
      while !pc < k do
        let kcur = min kc_blk (k - !pc) in
        let ablock = npan * 2 * !pc in
        for pj = !jc / nr to ((!jc + ncur + nr - 1) / nr) - 1 do
          let jcol = pj * nr in
          let cols = min nr (n - jcol) in
          let b0 = (pj * nr * k) + (!pc * nr) in
          for pi = pan_lo to pan_hi do
            kern ap (ablock + (pi * 2 * kcur)) bp b0 ~kcur acc;
            flush qw ~act_scale acc cd ~n ~row0:(pi * mr) ~jcol ~cols ~first:(!pc = 0)
          done
        done;
        pc := !pc + kcur
      done;
      jc := !jc + ncur
    done

  let gemm_panels ~a:qw ~act_scale ~b c =
    check_2d "Blas.Int8.gemm_panels c" c;
    check_act_scale "Blas.Int8.gemm_panels" act_scale;
    let n = Tensor.dim c 1 in
    if Tensor.dim c 0 <> qw.qm then invalid_arg "Blas.Int8.gemm_panels: output dimension mismatch";
    if Tensor.numel b < panels_size ~k:qw.qk ~n then
      invalid_arg "Blas.Int8.gemm_panels: too few packed values";
    let bp = b.Tensor.data and cd = c.Tensor.data in
    Dpool.parallel_for (npanels qw.qm) (fun plo phi ->
        lane qw ~act_scale ~bp ~cd ~n ~pan_lo:plo ~pan_hi:phi)

  let gemm ?(trans_b = false) ?(act = No_act) ~a:qw ~act_scale ~b c =
    check_2d "Blas.Int8.gemm b" b;
    check_2d "Blas.Int8.gemm c" c;
    check_act_scale "Blas.Int8.gemm" act_scale;
    let k = Tensor.dim b (if trans_b then 1 else 0) in
    let n = Tensor.dim b (if trans_b then 0 else 1) in
    if k <> qw.qk then invalid_arg "Blas.Int8.gemm: inner dimension mismatch";
    if Tensor.dim c 0 <> qw.qm || Tensor.dim c 1 <> n then
      invalid_arg "Blas.Int8.gemm: output dimension mismatch";
    Workspace.with_buf [| panels_size ~k ~n |] (fun bp ->
        pack_b ~trans:trans_b ~act b.Tensor.data ~bc:(Tensor.dim b 1) ~k ~n
          ~inv:(1.0 /. act_scale) bp.Tensor.data;
        gemm_panels ~a:qw ~act_scale ~b:bp c)

  (* q(act(x)) of every element of [src] into [dst], as floats. The first
     pass stores act(x) into [dst], which rounds it to float32 as a float
     column matrix would store it; the second quantizes [dst] in place.
     Four values at a time, as in [pack_b]. *)
  let quantize_into ?(act = No_act) ~act_scale ~(src : Tensor.t) (dst : Tensor.t) =
    check_act_scale "Blas.Int8.quantize_into" act_scale;
    let len = Tensor.numel src in
    if Tensor.numel dst < len then invalid_arg "Blas.Int8.quantize_into: dst too small";
    let sd = src.Tensor.data and dd = dst.Tensor.data and inv = 1.0 /. act_scale in
    let full = len land lnot 3 in
    for g = 0 to (len / 4) - 1 do
      let i = 4 * g in
      let v0 = Bigarray.Array1.unsafe_get sd i
      and v1 = Bigarray.Array1.unsafe_get sd (i + 1)
      and v2 = Bigarray.Array1.unsafe_get sd (i + 2)
      and v3 = Bigarray.Array1.unsafe_get sd (i + 3) in
      let a0 = activate act v0 and a1 = activate act v1 in
      let a2 = activate act v2 and a3 = activate act v3 in
      Bigarray.Array1.unsafe_set dd i a0;
      Bigarray.Array1.unsafe_set dd (i + 1) a1;
      Bigarray.Array1.unsafe_set dd (i + 2) a2;
      Bigarray.Array1.unsafe_set dd (i + 3) a3
    done;
    for i = full to len - 1 do
      Bigarray.Array1.unsafe_set dd i (activate act (Bigarray.Array1.unsafe_get sd i))
    done;
    for g = 0 to (len / 4) - 1 do
      let i = 4 * g in
      let v0 = Bigarray.Array1.unsafe_get dd i
      and v1 = Bigarray.Array1.unsafe_get dd (i + 1)
      and v2 = Bigarray.Array1.unsafe_get dd (i + 2)
      and v3 = Bigarray.Array1.unsafe_get dd (i + 3) in
      let f0 = float_of_int (q8 v0 inv) and f1 = float_of_int (q8 v1 inv) in
      let f2 = float_of_int (q8 v2 inv) and f3 = float_of_int (q8 v3 inv) in
      Bigarray.Array1.unsafe_set dd i f0;
      Bigarray.Array1.unsafe_set dd (i + 1) f1;
      Bigarray.Array1.unsafe_set dd (i + 2) f2;
      Bigarray.Array1.unsafe_set dd (i + 3) f3
    done;
    for i = full to len - 1 do
      Bigarray.Array1.unsafe_set dd i (float_of_int (q8 (Bigarray.Array1.unsafe_get dd i) inv))
    done
end
