type variant = Base | Rd | Ic

(* --- Tab-Base: i.i.d. empirical address sampling --- *)

let synth_base rng block_bytes trace n =
  let blocks = Array.map (fun a -> a / block_bytes) trace in
  Array.init n (fun _ -> blocks.(Prng.int rng (Array.length blocks)) * block_bytes)

(* --- Tab-RD: LRU-stack sampler matching the reuse-distance histogram ---

   Maintain an explicit LRU stack. For each synthetic access, draw a stack
   distance from the trace's empirical distance histogram; distance d means
   "access the block currently at stack depth d" (a cold distance allocates
   a fresh block). The clone's fully-associative reuse-distance profile then
   matches the original's by construction. *)

let synth_rd rng block_bytes trace n =
  (* Like the tabular generator it stands in for, the sampler works from a
     compact (log2-binned) distance profile, not the exact histogram. *)
  let dists = Reuse_distance.log2_binned (Reuse_distance.distances ~block_bytes trace) in
  let hist = Reuse_distance.histogram dists in
  let support = Array.of_list hist in
  let total = Array.fold_left (fun acc (_, c) -> acc + c) 0 support in
  let draw () =
    let r = Prng.int rng total in
    let acc = ref 0 and result = ref Reuse_distance.infinite in
    (try
       Array.iter
         (fun (d, c) ->
           acc := !acc + c;
           if r < !acc then begin
             result := d;
             raise Exit
           end)
         support
     with Exit -> ());
    !result
  in
  (* LRU stack as an array deque: the stack front sits at index [front] and
     grows leftwards. Fresh blocks are pushed at the front in O(1); moving
     the element at depth d to the front shifts only d elements. *)
  let cap = n + 1 in
  let stack = Array.make cap 0 in
  let front = ref cap in
  let len = ref 0 in
  let fresh = ref 0 in
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    let d = draw () in
    let block =
      if d = Reuse_distance.infinite || d >= !len then begin
        (* Cold access: allocate a new block at the stack front. *)
        incr fresh;
        decr front;
        incr len;
        stack.(!front) <- !fresh;
        !fresh
      end
      else begin
        let pos = !front + d in
        let b = stack.(pos) in
        Array.blit stack !front stack (!front + 1) d;
        stack.(!front) <- b;
        b
      end
    in
    out.(i) <- block * block_bytes
  done;
  out

(* --- Tab-IC: first-order Markov chain over exact block deltas --- *)

let synth_ic rng block_bytes trace n =
  let deltas = Hashtbl.create 1024 in
  (* delta -> (next delta -> count) conditional table *)
  let prev_block = ref (trace.(0) / block_bytes) in
  let prev_delta = ref 0 in
  for i = 1 to Array.length trace - 1 do
    let block = trace.(i) / block_bytes in
    let d = block - !prev_block in
    let row =
      match Hashtbl.find_opt deltas !prev_delta with
      | Some r -> r
      | None ->
        let r = Hashtbl.create 16 in
        Hashtbl.replace deltas !prev_delta r;
        r
    in
    Hashtbl.replace row d (1 + Option.value ~default:0 (Hashtbl.find_opt row d));
    prev_block := block;
    prev_delta := d
  done;
  let sample_row row =
    let total = Hashtbl.fold (fun _ c acc -> acc + c) row 0 in
    let r = Prng.int rng total in
    let acc = ref 0 and result = ref 0 in
    (try
       Hashtbl.iter
         (fun d c ->
           acc := !acc + c;
           if r < !acc then begin
             result := d;
             raise Exit
           end)
         row
     with Exit -> ());
    !result
  in
  let out = Array.make n 0 in
  let block = ref (trace.(0) / block_bytes) and delta = ref 0 in
  for i = 0 to n - 1 do
    out.(i) <- !block * block_bytes;
    let d =
      match Hashtbl.find_opt deltas !delta with
      | Some row when Hashtbl.length row > 0 -> sample_row row
      | _ -> 0
    in
    block := max 0 (!block + d);
    delta := d
  done;
  out

let synthesize ?(seed = 11) ~variant ?(block_bytes = 64) trace =
  let rng = Prng.create seed in
  let n = Array.length trace in
  if n = 0 then invalid_arg "Tabsynth.synthesize: empty trace";
  match variant with
  | Base -> synth_base rng block_bytes trace n
  | Rd -> synth_rd rng block_bytes trace n
  | Ic -> synth_ic rng block_bytes trace n

let predict ?seed ~variant cfg trace =
  let clone = synthesize ?seed ~variant ~block_bytes:cfg.Cache.block_bytes trace in
  let cache = Cache.create cfg in
  Array.iter (fun addr -> ignore (Cache.access cache addr)) clone;
  Cache.hit_rate (Cache.stats cache)
