(* Seeded inputs. Every workload's input is derived from --seed alone —
   roster picks, trace offsets, request geometry, backend mix and repeat
   positions — so the same seed gives the same inputs, and the program
   under test only ever sees what is generated here. *)

let rng ~seed label = Prng.of_label (Printf.sprintf "cachebox-benchmark/%s/%d" label seed)
let spec = Heatmap.spec ()

(* [len] accesses of a roster workload starting at a seeded offset. *)
let window rng (w : Workload.t) len =
  let off = Prng.int rng len in
  Array.sub (w.Workload.generate (off + len)) off len

(* --- offline traces ---

   One trace per roster workload, the whole roster on every seed: the
   simulator's speed depends on each trace's miss rate (16 to 115 ns per
   access across the roster), so a per-seed subset would make the
   simulator's throughput a property of the draw. The seed picks each
   trace's offset and the order the traces are served in. Each trace fills
   exactly 8 heatmaps — one full batch for the learned backends. *)

let offline_len = Heatmap.accesses_per_image spec + (7 * Heatmap.step_accesses spec)

let offline_traces ~seed =
  let rng = rng ~seed "offline" in
  let ws = Array.of_list (Suite.all ()) in
  Prng.shuffle rng ws;
  Array.map (fun w -> (w.Workload.name, window rng w offline_len)) ws

(* --- serve requests ---

   Each request carries one heatmap's worth of accesses inline (3,200 at
   the default spec), cycles through 8 valid cache geometries, and draws
   its backend from the production mix in exact proportions per block of
   8. Fresh requests never repeat a trace. With [repeat_every = Some k],
   one seeded position in each block of k (after the first block) repeats
   the key — geometry, backend and trace — of a request among the previous
   64, which the router's 256-entry prediction memo can answer. *)

type request = {
  index : int;
  sets : int;
  ways : int;
  backend : string;
  trace : int array;
  origin : int;  (** index of the request whose key this one repeats (itself if fresh) *)
}

let geometries =
  [| (64, 12); (128, 12); (128, 6); (128, 3); (256, 6); (256, 12); (32, 12); (64, 4) |]

let backend_mix = [ ("student-int8", 5); ("student", 2); ("hrd", 1) ]
let request_len = Heatmap.accesses_per_image spec
let repeat_window = 64

(* A stream of requests: [next ()] returns request 0, 1, 2, ... in order. *)
let request_stream ~seed ~repeat_every =
  let rng = rng ~seed "serve" in
  let pool_len = 65536 in
  let pool =
    let ws = Array.of_list (Suite.all ()) in
    Prng.shuffle rng ws;
    Array.init 12 (fun i -> ws.(i).Workload.generate pool_len)
  in
  let used = Hashtbl.create 1024 in
  let rec fresh_trace () =
    let p = Prng.int rng (Array.length pool) in
    let off = Prng.int rng (pool_len - request_len) in
    if Hashtbl.mem used (p, off) then fresh_trace ()
    else begin
      Hashtbl.add used (p, off) ();
      Array.sub pool.(p) off request_len
    end
  in
  let mix =
    Array.of_list (List.concat_map (fun (b, w) -> List.init w (fun _ -> b)) backend_mix)
  in
  let block_mix = Array.copy mix in
  let history = Hashtbl.create 256 in
  let repeat_slot = ref 0 in
  let fresh_count = ref 0 in
  let index = ref 0 in
  fun () ->
    let i = !index in
    incr index;
    let repeat =
      match repeat_every with
      | Some k when i >= k ->
        if i mod k = 0 then repeat_slot := Prng.int rng k;
        i mod k = !repeat_slot
      | _ -> false
    in
    let r =
      if repeat then begin
        let j = i - 1 - Prng.int rng (min repeat_window i) in
        let src : request = Hashtbl.find history j in
        { src with index = i; origin = src.origin }
      end
      else begin
        let f = !fresh_count in
        incr fresh_count;
        if f mod Array.length mix = 0 then Prng.shuffle rng block_mix;
        let sets, ways = geometries.(f mod Array.length geometries) in
        {
          index = i;
          sets;
          ways;
          backend = block_mix.(f mod Array.length mix);
          trace = fresh_trace ();
          origin = i;
        }
      end
    in
    Hashtbl.replace history i r;
    Hashtbl.remove history (i - repeat_window - 1);
    r

let request_id r = Printf.sprintf "r%d" r.index

let request_line r =
  let b = Buffer.create (10 * Array.length r.trace + 128) in
  Printf.bprintf b "{\"op\": \"infer\", \"id\": %S, \"sets\": %d, \"ways\": %d, \"backend\": %S, \"trace\": ["
    (request_id r) r.sets r.ways r.backend;
  Array.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int a))
    r.trace;
  Buffer.add_string b "]}";
  Buffer.contents b

(* --- training workloads ---

   Four roster workloads, as `cachebox train` would take them: two SPEC-like
   (the suite spans the lowest and highest hit rates), one Ligra-like graph
   and one Polybench-like kernel. *)

let train_workloads ~seed =
  let rng = rng ~seed "train" in
  let pick suite n =
    let ws = Array.of_list (Suite.of_suite suite) in
    Prng.shuffle rng ws;
    Array.to_list (Array.sub ws 0 n)
  in
  pick Workload.Spec 2 @ pick Workload.Ligra 1 @ pick Workload.Polybench 1

let train_trace_len = 32768
