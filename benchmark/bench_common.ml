(* Shared plumbing for every workload: the clock, the in-memory span
   tracer, correctness checks, metric records, spawned processes, the
   scratch directory and the provenance block. *)

let now = Unix.gettimeofday

(* --- metrics --- *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* What a workload hands back: its metrics (end-to-end when untraced; the
   traced pass's own numbers when traced), the operations it attempted and
   how many failed, details for the artifact, and the traces it ran on —
   the inputs the traced run's per-layer sweep reuses. *)
type result = {
  metrics : metric list;
  attempted : int;
  failed : int;
  details : (string * Sjson.t) list;
  inputs : int array array;
}

(* --- correctness checks ---

   Every oracle goes through [check]. A failed check makes the run
   incorrect and counts as a failed operation. *)

let checks_passed = ref 0
let check_failures = ref []

let check name ok detail =
  if ok then incr checks_passed
  else begin
    let msg = Printf.sprintf "%s: %s" name (detail ()) in
    check_failures := msg :: !check_failures;
    Printf.eprintf "benchmark: CHECK FAILED %s\n%!" msg
  end

let checks_run () = !checks_passed + List.length !check_failures
let checks_failed () = List.length !check_failures

(* --- spans ---

   Spans are kept in memory while a traced run executes and written out
   when it ends. Each has a name (the module whose public function the
   benchmark called), start and end times, the span that caused it and the
   request it belongs to (-1 when none). With tracing off [span] is a
   direct call. *)

type span = {
  id : int;
  parent : int;
  sname : string;
  req : int;
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans = ref []
let span_count = ref 0
let current_span = ref (-1)

let record_span ?(parent = -1) ?(req = -1) sname ~t0 ~t1 =
  let id = !span_count in
  incr span_count;
  spans := { id; parent; sname; req; t0; t1 } :: !spans;
  id

let span ?(req = -1) sname f =
  if not !tracing then f ()
  else begin
    let id = !span_count in
    incr span_count;
    let parent = !current_span in
    current_span := id;
    let t0 = now () in
    let finish () =
      spans := { id; parent; sname; req; t0; t1 = now () } :: !spans;
      current_span := parent
    in
    Fun.protect ~finally:finish f
  end

(* Self time per span name: each span's duration minus the part of it that
   its children cover (children of one span do not overlap: the benchmark
   calls layers one at a time). *)
let self_times () =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((s.t1 -. s.t0) +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0))
    !spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        (s.t1 -. s.t0) -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0
      in
      let n, total = Option.value (Hashtbl.find_opt by_name s.sname) ~default:(0, 0.0) in
      Hashtbl.replace by_name s.sname (n + 1, total +. self))
    !spans;
  Hashtbl.fold (fun name (n, total) acc -> (name, n, total) :: acc) by_name []
  |> List.sort compare

let write_spans path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"name\": %S, \"req\": %d, \"start\": %.9f, \"end\": %.9f}\n"
            s.id s.parent s.sname s.req s.t0 s.t1)
        (List.rev !spans))

(* --- timing helpers --- *)

(* The record's account of a latency sample: how many there are, and the
   highest percentile with at least ten of them beyond it (null below 20
   samples), as the end-to-end p90 is not always that well supported. *)
let latency_details ms =
  let n = List.length ms in
  ("samples", Sjson.Num (float_of_int n))
  ::
  (match Bstats.tail_percentile n with
  | Some p ->
    [ ("tail_percentile", Sjson.Num p); ("tail_ms", Sjson.Num (Bstats.percentile ms p)) ]
  | None -> [ ("tail_percentile", Sjson.Null); ("tail_ms", Sjson.Null) ])

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- host speed ---

   The shared host this benchmark was defined on makes its cores up to 1.5
   times slower for seconds at a time: a fixed float kernel's time swings
   that much, and the workloads' operation times follow it (correlation
   0.8 to 0.9), which gave run-to-run spreads of 20-40%. So in-process work is
   timed in blocks bracketed by that reference kernel, and each block's
   times are scaled by [reference_nominal_s] over the reference's time
   around the block: host time at the host's undisturbed speed. The
   kernel is the benchmark's own code, so a change to CacheBox moves the
   scaled times exactly as it moves the raw ones; the raw times stay in
   the record. *)

let ref_a = Array.init 4096 (fun i -> float_of_int (i mod 17) *. 0.1)
let ref_b = Array.init 4096 (fun i -> float_of_int (i mod 13) *. 0.1)
let ref_c = Array.make 4096 0.0

(* Ten 64x64 float matrix products. *)
let reference_kernel () =
  for _ = 1 to 10 do
    for i = 0 to 63 do
      for j = 0 to 63 do
        let s = ref 0.0 in
        for k = 0 to 63 do
          s := !s +. (ref_a.((i * 64) + k) *. ref_b.((k * 64) + j))
        done;
        ref_c.((i * 64) + j) <- !s
      done
    done
  done

(* The kernel's time on the undisturbed 2-core host (its 10th percentile
   over a loaded minute). *)
let reference_nominal_s = 0.0035

(* One operation's time, raw and scaled, and the work it did. *)
type sample = { raw : float; scaled : float; work : int }

let reference_time () = snd (time reference_kernel)

(* The scale for work done between two reference timings. *)
let scale ~before ~after = reference_nominal_s /. ((before +. after) /. 2.0)

(* Run [op] (which returns the work it did) for [seconds], in blocks of at
   least [block] seconds and one operation, with the reference kernel
   timed between blocks. Returns the samples in order and each block's
   scale. Unless [scaled], the reference is not run and every scale is 1:
   for work the reference does not track. *)
let timed_loop ?(scaled = true) ~seconds ~block op =
  let reference_time () = if scaled then reference_time () else reference_nominal_s in
  let t_end = now () +. seconds in
  let rec blocks before samples scales =
    let b_end = now () +. block in
    let rec ops acc =
      let w, dt = time op in
      let acc = (dt, w) :: acc in
      if now () < b_end then ops acc else acc
    in
    let blk = ops [] in
    let after = reference_time () in
    let scale = scale ~before ~after in
    let samples =
      List.fold_left
        (fun acc (dt, w) -> { raw = dt; scaled = dt *. scale; work = w } :: acc)
        samples (List.rev blk)
    in
    if now () < t_end then blocks after samples (scale :: scales)
    else (List.rev samples, List.rev (scale :: scales))
  in
  blocks (reference_time ()) [] []

let kacc_s samples =
  float_of_int (List.fold_left (fun n s -> n + s.work) 0 samples)
  /. List.fold_left (fun t s -> t +. s.scaled) 0.0 samples
  /. 1000.0

let scaled_ms samples = List.map (fun s -> 1000.0 *. s.scaled) samples

(* The loop's end-to-end metrics (scaled), and the record's account of the
   raw times and the host's speed. *)
let loop_metrics samples =
  let ms = scaled_ms samples in
  [
    metric "kacc_s" "kacc/s" (kacc_s samples);
    metric "p50_ms" "ms" (Bstats.percentile ms 0.5);
    metric "p90_ms" "ms" (Bstats.percentile ms 0.9);
  ]

let loop_details samples scales =
  let raw = List.map (fun s -> 1000.0 *. s.raw) samples in
  [
    ("raw_p50_ms", Sjson.Num (Bstats.percentile raw 0.5));
    ("raw_p90_ms", Sjson.Num (Bstats.percentile raw 0.9));
    ("host_speed_median", Sjson.Num (Bstats.median scales));
    ("host_speed_min", Sjson.Num (List.fold_left Float.min Float.infinity scales));
  ]

(* A traced run measures the workload's own loop twice over: [blocks]
   blocks of [seconds / blocks], alternately untraced and traced, so drift
   on a shared host falls on both sides. Returns the untraced blocks' and
   the traced blocks' results. *)
let alternate ~seconds ~blocks f =
  let plain = ref [] and traced = ref [] in
  for b = 0 to blocks - 1 do
    tracing := b mod 2 = 1;
    let r = f (seconds /. float_of_int blocks) in
    if !tracing then traced := r :: !traced else plain := r :: !plain
  done;
  tracing := false;
  (List.rev !plain, List.rev !traced)

(* [f ()] timed and scaled by reference timings on either side. *)
let scaled_time f =
  let before = reference_time () in
  let r, dt = time f in
  (r, dt *. scale ~before ~after:(reference_time ()))

(* Set up [reps] times from scratch; returns the last set-up's result (the
   earlier ones are dropped as soon as they are timed) and every scaled
   duration. The median of the durations is the reported set-up time. Each
   set-up starts from a collected heap, so neither its time nor the peak
   memory depends on when the previous set-up's garbage happened to be
   freed. *)
let timed_setup ~reps f =
  let rec go k times =
    Gc.full_major ();
    let r, dt = scaled_time f in
    if k <= 1 then (r, List.rev (dt :: times)) else go (k - 1) (dt :: times)
  in
  go reps []

(* --- scratch directory ---

   Everything a run writes lives under _artifacts/benchmark/ in the
   checkout; the per-run scratch directory (checkpoints, trace files,
   sockets, daemon logs) is removed at exit. *)

let artifacts_dir = Filename.concat "_artifacts" "benchmark"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let scratch =
  lazy
    (let d = Filename.concat artifacts_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
     mkdir_p d;
     d)

let scratch_file name = Filename.concat (Lazy.force scratch) name

(* --- spawned processes ---

   Daemons are started from the built binary with their output sent to
   log files in the scratch directory, so the benchmark's own standard
   output carries nothing but its result. Every child is reaped before the
   benchmark exits, however it exits. *)

let cachebox_exe = "_build/default/bin/cachebox.exe"
let children = ref []

let spawn ~log argv =
  let fd = Unix.openfile (scratch_file log) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close fd;
        Unix.close null)
      (fun () -> Unix.create_process argv.(0) argv null fd fd)
  in
  children := pid :: !children;
  pid

(* Wait up to [timeout] seconds for [pid] to exit; true when it did. *)
let wait_exit ~timeout pid =
  let t_end = now () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> if now () > t_end then false else (Thread.delay 0.01; go ())
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  let exited = go () in
  if exited then children := List.filter (( <> ) pid) !children;
  exited

let stop_child pid =
  if not (wait_exit ~timeout:0.0 pid) then begin
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    if not (wait_exit ~timeout:3.0 pid) then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait_exit ~timeout:10.0 pid)
    end
  end

let cleanup () =
  List.iter stop_child !children;
  if Lazy.is_val scratch then remove_tree (Lazy.force scratch)

let () =
  at_exit cleanup;
  let bail _ = exit 3 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* --- memory --- *)

(* Peak resident set (VmHWM) of a process in MB, from /proc. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec find () =
          match input_line ic with
          | exception End_of_file -> Float.nan
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
          | _ -> find ()
        in
        find ())

(* --- provenance --- *)

let host_cores () = Domain.recommended_domain_count ()

let loadavg () =
  match open_in "/proc/loadavg" with
  | exception Sys_error _ -> Sjson.Null
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match Scanf.sscanf (input_line ic) "%f %f %f" (fun a b c -> [ a; b; c ]) with
        | l -> Sjson.Arr (List.map (fun x -> Sjson.Num x) l)
        | exception _ -> Sjson.Null)

(* git describe only when the checkout is itself a repository; git is
   never asked to search the directories above it. *)
let git_describe () =
  if not (Sys.file_exists ".git") then Sjson.Null
  else
    let cwd = Sys.getcwd () in
    let env =
      Array.append
        [| "GIT_CEILING_DIRECTORIES=" ^ Filename.dirname cwd |]
        (Unix.environment ())
    in
    match
      Unix.open_process_args_full "git"
        [| "git"; "describe"; "--always"; "--dirty" |]
        env
    with
    | exception Unix.Unix_error _ -> Sjson.Null
    | (ic, _, _) as p -> (
      let line = try Some (input_line ic) with End_of_file | Sys_error _ -> None in
      match (Unix.close_process_full p, line) with
      | Unix.WEXITED 0, Some l -> Sjson.Str l
      | _ -> Sjson.Null)

let cachebox_env () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv -> String.length kv > 9 && String.sub kv 0 9 = "CACHEBOX_")
  |> List.sort compare
  |> List.map (fun kv ->
         match String.index_opt kv '=' with
         | Some i -> (String.sub kv 0 i, Sjson.Str (String.sub kv (i + 1) (String.length kv - i - 1)))
         | None -> (kv, Sjson.Str ""))

let meta ~load_start =
  Sjson.Obj
    [
      ("git", git_describe ());
      ("host_cores", Sjson.Num (float_of_int (host_cores ())));
      ("domains", Sjson.Num (float_of_int (Dpool.domains ())));
      ("ocaml", Sjson.Str Sys.ocaml_version);
      ("env", Sjson.Obj (cachebox_env ()));
      ("loadavg_start", load_start);
      ("loadavg_end", loadavg ());
    ]
