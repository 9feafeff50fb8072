(* The CacheBox benchmark.

     benchmark.exe --workload W --seed N --seconds S --trace 0|1 [--record FILE]
     benchmark.exe agree BASE.jsonl CAND.jsonl [--bounds BENCHMARK.json]

   A run generates the workload's inputs from the seed, sets up, measures
   for S seconds, checks that the outputs are correct and prints, as the
   last line of standard output, one JSON object: correct / attempted /
   failed and the metrics — the end-to-end ones untraced, the per-layer
   ones with --trace 1. The full record (with provenance) goes to
   _artifacts/benchmark/, and is appended to FILE with --record. *)

open Bench_common

let workloads = [ "sim"; "float32"; "student-int8"; "serve"; "routed"; "train" ]
let end_to_end = [ "setup_s"; "kacc_s"; "p50_ms"; "p90_ms"; "peak_rss_mb" ]

(* Counts and ratios of the socket layers: zero on workloads that do not
   go through them. Every other per-layer metric is measured on every
   workload. *)
let socket_counts =
  [
    ("serve.goodput_rps", "1/s");
    ("loadgen.inflight_at_step_end", "count");
    ("router.memo_hit_ratio", "ratio");
    ("router.retries", "count");
    ("router.hedges", "count");
    ("serve.shed", "count");
    ("serve.degraded", "count");
    ("serve.ws_allocs_growth", "count");
  ]

let usage () =
  prerr_endline
    "usage: benchmark.exe --workload W --seed N --seconds S --trace 0|1 [--record FILE]\n\
    \       benchmark.exe agree BASE.jsonl CAND.jsonl [--bounds BENCHMARK.json]";
  exit 2

let run_workload name ~seed ~seconds ~traced =
  match name with
  | "sim" | "float32" | "student-int8" -> Bench_offline.run ~backend:name ~seed ~seconds ~traced
  | "serve" -> Bench_serve.run ~routed:false ~seed ~seconds ~traced
  | "routed" -> Bench_serve.run ~routed:true ~seed ~seconds ~traced
  | "train" -> Bench_train.run ~seed ~seconds ~traced
  | _ -> usage ()

let num x = Sjson.Num x

let result_json ~correct ~attempted ~failed metrics =
  Sjson.Obj
    [
      ("correct", Sjson.Bool correct);
      ("attempted", num (float_of_int attempted));
      ("failed", num (float_of_int failed));
      ( "metrics",
        Sjson.Obj
          (List.map
             (fun m -> (m.name, Sjson.Obj [ ("value", num m.value); ("unit", Sjson.Str m.unit_) ]))
             metrics) );
    ]

let measure ~workload ~seed ~seconds ~traced ~record =
  if Dpool.domains () > host_cores () then begin
    Printf.eprintf "benchmark: %d domains requested on a %d-core host; refusing\n"
      (Dpool.domains ()) (host_cores ());
    exit 2
  end;
  (* In-process work runs on one domain: on a shared 2-core host a second
     busy domain makes every timing depend on the neighbours' load (25%
     run-to-run spread at 2 domains against about 1% at one). *)
  Dpool.set_domains 1;
  let load_start = loadavg () in
  let r = run_workload workload ~seed ~seconds ~traced in
  let metrics =
    if not traced then r.metrics
    else begin
      let layers =
        Bench_layers.sweep ~wide:(workload = "serve" || workload = "routed") ~inputs:r.inputs
      in
      let have = r.metrics @ layers in
      have
      @ List.filter_map
          (fun (name, unit_) ->
            if List.exists (fun m -> m.name = name) have then None else Some (metric name unit_ 0.0))
          socket_counts
    end
  in
  if not traced then
    List.iter
      (fun name ->
        check ("metric " ^ name) (List.exists (fun m -> m.name = name) metrics) (fun () -> "missing"))
      end_to_end;
  List.iter
    (fun m -> check ("metric " ^ m.name) (Float.is_finite m.value) (fun () -> "not finite"))
    metrics;
  let metrics = List.map (fun m -> if Float.is_finite m.value then m else { m with value = 0.0 }) metrics in
  let attempted = r.attempted + checks_run () in
  let failed = r.failed + checks_failed () in
  let correct = checks_failed () = 0 && r.failed = 0 in
  let result = result_json ~correct ~attempted ~failed metrics in
  let tag = Printf.sprintf "%s-seed%d-trace%d" workload seed (if traced then 1 else 0) in
  mkdir_p artifacts_dir;
  let record_json =
    Sjson.Obj
      [
        ("workload", Sjson.Str workload);
        ("seed", num (float_of_int seed));
        ("seconds", num seconds);
        ("trace", num (if traced then 1.0 else 0.0));
        ("result", result);
        ("meta", meta ~load_start);
        ("details", Sjson.Obj r.details);
        ( "self_time_s",
          Sjson.Obj
            (List.map
               (fun (name, n, t) -> (name, Sjson.Obj [ ("spans", num (float_of_int n)); ("total", num t) ]))
               (self_times ())) );
        ("check_failures", Sjson.Arr (List.rev_map (fun s -> Sjson.Str s) !check_failures));
      ]
  in
  let line = Sjson.to_string record_json in
  let write path mode =
    let oc = open_out_gen mode 0o644 path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (line ^ "\n"))
  in
  write (Filename.concat artifacts_dir (tag ^ ".json")) [ Open_wronly; Open_creat; Open_trunc ];
  Option.iter (fun path -> write path [ Open_wronly; Open_creat; Open_append ]) record;
  if traced then write_spans (Filename.concat artifacts_dir ("spans-" ^ tag ^ ".jsonl"));
  List.iter (fun m -> Printf.eprintf "  %-45s %14.6g %s\n" m.name m.value m.unit_) metrics;
  Printf.eprintf "benchmark: %s seed %d: %s, %d attempted, %d failed\n%!" workload seed
    (if correct then "correct" else "INCORRECT") attempted failed;
  print_endline (Sjson.to_string result)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "agree" :: base :: cand :: rest ->
    let bounds_path = match rest with [ "--bounds"; p ] -> p | [] -> "BENCHMARK.json" | _ -> usage () in
    exit (Bench_agree.run ~bounds_path ~base ~cand)
  | args ->
    let rec parse acc = function
      | [] -> acc
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let int_of k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let workload = get "workload" in
    if not (List.mem workload workloads) then begin
      Printf.eprintf "benchmark: unknown workload %S (one of %s)\n" workload
        (String.concat ", " workloads);
      exit 2
    end;
    let seconds = float_of_int (int_of "seconds") in
    let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
    if seconds <= 0.0 then usage ();
    measure ~workload ~seed:(int_of "seed") ~seconds ~traced ~record:(List.assoc_opt "record" opts)
