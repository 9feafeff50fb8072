(* Serving benchmarks: per-request inference (batch 1) vs dynamic
   micro-batching (coalesced requests through one wide-batch forward).

   Two measured quantities drive everything: the real service time of one
   request alone, and the real service time of a coalesced batch through
   {!Cbox_infer.run} with the wide-batch conv lowering. A
   deterministic closed-loop simulation (C logical clients, each reissuing
   the moment its reply lands) then turns those service times into
   throughput and latency percentiles per concurrency level — the loop is
   virtual-time, so 1024 "clients" need no sockets, threads or FD_SETSIZE
   headroom, and the numbers are reproducible on a loaded CI host.

   This lives in cachebox_core (not cachebox_serve) because the quantity
   under test is the model hot path the serving batcher dispatches to; the
   daemon's own overheads (reactor, queue) are microseconds against the
   milliseconds of a forward pass. *)

type mode_stats = {
  throughput_rps : float;
  p50_ms : float;
  p99_ms : float;
  total_s : float;  (** virtual seconds to serve the whole closed-loop run *)
}

type result = {
  name : string;
  domains : int;
  clients : int;
  batch1 : mode_stats;
  dynamic : mode_stats;
  speedup : float;  (** dynamic throughput over batch-1 throughput *)
  max_abs_diff : float;
      (** largest |batched - sequential| over every synthetic heatmap
          element: 0.0 means bit-identical outputs *)
}

let concurrency_levels = [ 1; 64; 1024 ]

(* --- fixture: tiny model + real access heatmaps, one window per request --- *)

let fixture () =
  let spec = Heatmap.spec ~height:16 ~width:16 ~window:8 ~overlap:0.3 ~granularity:64 () in
  let mc =
    { (Cbgan.default_config ~image_size:16 ~ngf:4 ~ndf:4 ()) with
      Cbgan.cond_dim = 4;
      cond_hidden = 8
    }
  in
  let model = Cbgan.create ~seed:42 mc in
  let cache = Cache.config ~sets:64 ~ways:8 () in
  let wl =
    Workload.make ~name:"sbench" ~suite:Workload.Spec ~group:"sbench" (fun n ->
        let rng = Prng.create 9 in
        Array.init n (fun i ->
            if Prng.float rng 1.0 < 0.7 then i mod 32 * 8 else Prng.int rng 8192 * 64))
  in
  let data = Cbox_dataset.build_l1 spec ~configs:[ cache ] ~trace_len:20_000 [ wl ] in
  let windows =
    match data with
    | [ d ] -> List.map fst d.Cbox_dataset.pairs
    | _ -> invalid_arg "Sbench.fixture: expected one benchmark entry"
  in
  (* 64 single-window requests (windows recycle; content diversity is not
     what is being measured). *)
  let requests =
    List.init 64 (fun i -> (cache, [ List.nth windows (i mod List.length windows) ]))
  in
  (model, spec, requests)

(* --- measurement --- *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* All [reps] wall-clock samples, after one warm-up call. Every sample is
   kept — not just the minimum — because the closed-loop simulation
   resamples from them: with a single repeated service time every latency
   in the loop is identical and p50 collapses onto p99. *)
let samples_of reps f =
  ignore (f ());
  (* warm caches/arena *)
  Array.init reps (fun _ -> snd (time f))

let minimum a = Array.fold_left Float.min Float.infinity a

(* Piecewise-linear service time through the measured (batch, seconds)
   points; constant extrapolation beyond the ends. *)
let t_of_batch points b =
  let fb = float_of_int b in
  let rec go = function
    | [] -> invalid_arg "Sbench.t_of_batch: no points"
    | [ (_, t) ] -> t
    | (b0, t0) :: ((b1, t1) :: _ as rest) ->
      if fb <= b0 then t0
      else if fb <= b1 then t0 +. ((t1 -. t0) *. (fb -. b0) /. (b1 -. b0))
      else go rest
  in
  go (List.map (fun (b, t) -> (float_of_int b, t)) points)

(* --- closed-loop virtual-time simulation --- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (Float.of_int (n - 1) *. p /. 100.0 +. 0.5)))

(* C clients, each with one request in flight, reissuing on completion; the
   server takes up to [max_batch] queued requests per round. A partial
   batch waits out the oldest request's linger — in a closed loop nobody
   else can arrive until the batch completes, exactly the worst case the
   linger bound is for. *)
let simulate ~clients ~rounds ~max_batch ~linger_s ~service =
  let n = clients * rounds in
  let q = Queue.create () in
  for _ = 1 to clients do
    Queue.push 0.0 q
  done;
  let issued = ref clients and served = ref 0 in
  let now = ref 0.0 in
  let lats = Array.make n 0.0 in
  while !served < n do
    let qlen = Queue.length q in
    let start =
      if qlen >= max_batch then !now else Float.max !now (Queue.peek q +. linger_s)
    in
    let b = min max_batch qlen in
    let fin = start +. service b in
    for _ = 1 to b do
      let arrival = Queue.pop q in
      lats.(!served) <- fin -. arrival;
      incr served;
      if !issued < n then begin
        Queue.push fin q;
        incr issued
      end
    done;
    now := fin
  done;
  let sorted = Array.copy lats in
  Array.sort compare sorted;
  {
    throughput_rps = float_of_int n /. !now;
    p50_ms = 1e3 *. percentile sorted 50.0;
    p99_ms = 1e3 *. percentile sorted 99.0;
    total_s = !now;
  }

(* --- suite --- *)

let run ?(fast = Sys.getenv_opt "CACHEBOX_FAST" <> None) ?(log = fun _ -> ()) () =
  let model, spec, requests = fixture () in
  (* Full-mode rounds are sized so every regime sees many independent
     service draws: at 1 client batch-1 sees [rounds] draws total, and at
     64 clients the dynamic server drains the whole closed loop in one
     64-wide batch per round — also just [rounds] draws. With too few
     draws the resampled distribution clumps and p50 can land on p99.
     Rounds are virtual time only (no extra measurement), so 64 is cheap. *)
  let reps = if fast then 2 else 8 in
  let rounds = if fast then 2 else 64 in
  let wide_before = Conv.wide_batch () in
  Fun.protect
    ~finally:(fun () -> Conv.set_wide_batch wide_before)
    (fun () ->
      (* Bit-identity first: sequential batch-1 (wide lowering off — the
         per-sample reference) vs one coalesced wide-batch group. *)
      let g = Cbox_infer.of_cbgan model in
      Conv.set_wide_batch false;
      let sequential =
        List.concat_map (fun r -> Cbox_infer.run g spec ~batch_size:1 [ r ]) requests
      in
      Conv.set_wide_batch true;
      let grouped = Cbox_infer.run g spec ~batch_size:64 requests in
      let max_abs_diff =
        List.fold_left2
          (fun acc a b ->
            List.fold_left2
              (fun acc ta tb ->
                let d = ref acc in
                for i = 0 to Tensor.numel ta - 1 do
                  d := Float.max !d (Float.abs (Tensor.get ta i -. Tensor.get tb i))
                done;
                !d)
              acc a b)
          0.0 sequential grouped
      in
      log (Printf.sprintf "bit-identity: max |batched - sequential| = %g" max_abs_diff);
      (* Service-time samples: one request alone, and coalesced batches.
         All [reps] samples per batch size are retained; the simulations
         below cycle through them so the replayed latency distribution
         carries the real measurement jitter. *)
      Conv.set_wide_batch false;
      let t1s =
        let one = [ List.hd requests ] in
        samples_of reps (fun () -> Cbox_infer.run g spec ~batch_size:1 one)
      in
      Conv.set_wide_batch true;
      let t_at b =
        let batch = List.filteri (fun i _ -> i < b) requests in
        samples_of reps (fun () -> Cbox_infer.run g spec ~batch_size:b batch)
      in
      let t8s = t_at 8 and t64s = t_at 64 in
      log
        (Printf.sprintf "service times (best): 1 req %.2f ms, batch 8 %.2f ms, batch 64 %.2f ms"
           (1e3 *. minimum t1s) (1e3 *. minimum t8s) (1e3 *. minimum t64s));
      (* A service closure that resamples the measured service times with
         the deterministic PRNG; each simulation gets its own generator so
         runs stay reproducible and independent of evaluation order.
         Walking the samples in order would not do: whenever the rep count
         divides the client count, every window of [clients] consecutive
         draws holds the same full cycles and sums to the same total, and
         p50 collapses onto p99 again in the queued regimes. *)
      let resampling make =
        let rng = Prng.create 17 in
        fun b -> make (Prng.int rng (Array.length t1s)) b
      in
      let domains = Dpool.domains () in
      List.map
        (fun clients ->
          let name = Printf.sprintf "serve_c%d" clients in
          log name;
          let batch1 =
            simulate ~clients ~rounds ~max_batch:1 ~linger_s:0.0
              ~service:(resampling (fun i _ -> t1s.(i)))
          in
          let dynamic =
            simulate ~clients ~rounds ~max_batch:64 ~linger_s:0.005
              ~service:
                (resampling (fun i b ->
                     t_of_batch [ (1, t1s.(i)); (8, t8s.(i)); (64, t64s.(i)) ] b))
          in
          {
            name;
            domains;
            clients;
            batch1;
            dynamic;
            speedup = dynamic.throughput_rps /. batch1.throughput_rps;
            max_abs_diff;
          })
        concurrency_levels)

(* --- reporting: same (name, domains, speedup) surface as Kbench so the
   CLI bench gate and CI job are shared verbatim --- *)

let to_kbench rs =
  List.map
    (fun r ->
      {
        Kbench.name = r.name;
        domains = r.domains;
        ref_s = r.batch1.total_s;
        tiled_s = r.dynamic.total_s;
        speedup = r.speedup;
        max_rel_err = Some r.max_abs_diff;
      })
    rs

(* Same hand-rolled JSON style as Kbench (cachebox_core cannot see the
   serving stack's Sjson codec, which lives above it). *)
let json_of_result r =
  let mode prefix (m : mode_stats) =
    Printf.sprintf
      "\"%s_rps\": %.2f, \"%s_p50_ms\": %.4f, \"%s_p99_ms\": %.4f" prefix
      m.throughput_rps prefix m.p50_ms prefix m.p99_ms
  in
  Printf.sprintf
    "    {\"name\": %S, \"domains\": %d, \"clients\": %d, \"ref_s\": %.6f, \
     \"tiled_s\": %.6f, \"speedup\": %.4f, \"max_rel_err\": %g, %s, %s}"
    r.name r.domains r.clients r.batch1.total_s r.dynamic.total_s r.speedup
    r.max_abs_diff (mode "batch1" r.batch1) (mode "dynamic" r.dynamic)

let to_json rs =
  Printf.sprintf "{\n  \"version\": 1,\n%s  \"results\": [\n%s\n  ]\n}\n"
    (Kbench.meta_json ())
    (String.concat ",\n" (List.map json_of_result rs))

let write_json ~path rs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json rs))

let pp_table ppf rs =
  Format.fprintf ppf "%-12s %8s %12s %12s %10s %10s %10s@." "benchmark" "clients"
    "batch1 rps" "dynamic rps" "speedup" "b1 p99ms" "dyn p99ms";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s %8d %12.1f %12.1f %9.2fx %10.2f %10.2f@." r.name
        r.clients r.batch1.throughput_rps r.dynamic.throughput_rps r.speedup
        r.batch1.p99_ms r.dynamic.p99_ms)
    rs
