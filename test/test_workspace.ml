(* Workspace arena semantics and the steady-state no-allocation guarantee.

   The aliasing tests are the load-bearing ones: with the arena enabled,
   interleaved kernels of different shapes borrow overlapping storage, and
   a recycling bug would corrupt results in ways the plain unit tests (one
   kernel at a time) can never see. Every numerical check therefore compares
   arena-enabled output against the same computation with the arena
   disabled (fresh allocations, the pre-arena behaviour). *)

let with_ws enabled f =
  let was = Workspace.enabled () in
  Workspace.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Workspace.set_enabled was) f

(* --- with_buf semantics --- *)

let test_shape_and_zero () =
  with_ws true (fun () ->
      Workspace.with_buf ~zero:true [| 3; 5 |] (fun t ->
          Alcotest.(check (array int)) "shape" [| 3; 5 |] (Tensor.shape t);
          Alcotest.(check int) "numel" 15 (Tensor.numel t);
          Array.iter
            (fun v -> Alcotest.(check (float 0.0)) "zeroed" 0.0 v)
            (Tensor.to_array t)))

let test_reuse_same_class () =
  with_ws true (fun () ->
      (* Poison a slot, then borrow a same-class shape without ~zero: the
         recycled buffer is allowed to hold stale garbage — which proves the
         slot was actually reused rather than freshly allocated. *)
      let a0 = Workspace.alloc_count () in
      Workspace.with_buf [| 64 |] (fun t -> Tensor.fill t 42.0);
      Workspace.with_buf [| 8; 8 |] (fun t ->
          Alcotest.(check (float 0.0)) "recycled slot" 42.0 (Tensor.get t 0));
      (* 64 and 8x8 share a size class, so at most one backing alloc. *)
      Alcotest.(check bool) "at most one fresh alloc" true
        (Workspace.alloc_count () - a0 <= 1))

let test_nested_borrows_distinct () =
  with_ws true (fun () ->
      Workspace.with_buf ~zero:true [| 100 |] (fun outer ->
          Workspace.with_buf ~zero:true [| 100 |] (fun inner ->
              Tensor.fill inner 7.0;
              (* A broken arena would hand out the same slot twice. *)
              Alcotest.(check (float 0.0)) "outer untouched" 0.0 (Tensor.get outer 0));
          Tensor.fill outer 3.0;
          Alcotest.(check (float 0.0)) "outer writable after inner release" 3.0
            (Tensor.get outer 0)))

let test_release_on_raise () =
  with_ws true (fun () ->
      let sentinel = Failure "boom" in
      (try
         Workspace.with_buf [| 32 |] (fun t ->
             Tensor.fill t 1.0;
             raise sentinel)
       with Failure _ -> ());
      (* The slot must be free again: two successive borrows of the class
         must not allocate fresh backing storage. *)
      let a0 = Workspace.alloc_count () in
      Workspace.with_buf [| 32 |] (fun _ -> ());
      Workspace.with_buf [| 32 |] (fun _ -> ());
      Alcotest.(check int) "no allocs after raise-release" 0
        (Workspace.alloc_count () - a0))

let test_disabled_fresh () =
  with_ws false (fun () ->
      let b0 = Workspace.borrow_count () in
      Workspace.with_buf ~zero:true [| 16 |] (fun t ->
          Alcotest.(check (float 0.0)) "zeroed when disabled" 0.0 (Tensor.get t 0));
      Alcotest.(check int) "disabled borrows not counted" 0
        (Workspace.borrow_count () - b0))

(* --- aliasing regressions --- *)

let conv_pair ~seed ~ic ~oc ~size =
  let rng = Prng.create seed in
  let x = Tensor.randn rng [| 2; ic; size; size |] in
  let w = Tensor.randn rng [| oc; ic; 4; 4 |] in
  (x, w)

let test_interleaved_conv_shapes () =
  (* Two convolutions of different shapes, alternated: their column buffers
     land in the same arena slots across calls. Results must match the
     arena-disabled reference exactly (same kernel, same accumulation
     order — the arena only changes where scratch lives). *)
  let xa, wa = conv_pair ~seed:5 ~ic:3 ~oc:8 ~size:16 in
  let xb, wb = conv_pair ~seed:6 ~ic:5 ~oc:4 ~size:12 in
  let run () =
    List.init 3 (fun _ ->
        let ya = Conv.conv2d ~x:xa ~weight:wa ~bias:None ~stride:2 ~pad:1 in
        let yb = Conv.conv2d ~x:xb ~weight:wb ~bias:None ~stride:2 ~pad:1 in
        (Tensor.to_array ya, Tensor.to_array yb))
  in
  let pooled = with_ws true run in
  let fresh = with_ws false run in
  List.iteri
    (fun i ((pa, pb), (fa, fb)) ->
      Alcotest.(check bool)
        (Printf.sprintf "round %d conv A identical" i)
        true
        (Array.for_all2 Float.equal pa fa);
      Alcotest.(check bool)
        (Printf.sprintf "round %d conv B identical" i)
        true
        (Array.for_all2 Float.equal pb fb))
    (List.combine pooled fresh)

let test_conv_backward_aliasing () =
  let x, w = conv_pair ~seed:9 ~ic:4 ~oc:6 ~size:12 in
  let osz = Conv.out_size ~size:12 ~kernel:4 ~stride:2 ~pad:1 in
  let gout = Tensor.randn (Prng.create 10) [| 2; 6; osz; osz |] in
  let run () =
    let gw = Tensor.zeros [| 6; 4; 4; 4 |] in
    let gb = Some (Tensor.zeros [| 6 |]) in
    let gx = Tensor.zeros (Tensor.shape x) in
    Conv.conv2d_backward_into ~x ~weight:w ~gout ~stride:2 ~pad:1 ~grad_weight:gw
      ~grad_bias:gb ~gx;
    (Tensor.to_array gx, Tensor.to_array gw)
  in
  let pgx, pgw = with_ws true run in
  let fgx, fgw = with_ws false run in
  Alcotest.(check bool) "gx identical" true (Array.for_all2 Float.equal pgx fgx);
  Alcotest.(check bool) "gw identical" true (Array.for_all2 Float.equal pgw fgw)

let test_parallel_conv_aliasing () =
  (* Sample-parallel forward: each lane borrows from its own domain's
     arena; outputs must stay identical to serial + arena off. *)
  let x, w = conv_pair ~seed:11 ~ic:6 ~oc:8 ~size:16 in
  let run () = Tensor.to_array (Conv.conv2d ~x ~weight:w ~bias:None ~stride:2 ~pad:1) in
  let fresh = Dpool.with_domains 1 (fun () -> with_ws false run) in
  List.iter
    (fun d ->
      let pooled = Dpool.with_domains d (fun () -> with_ws true run) in
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d pooled conv identical" d)
        true
        (Array.for_all2 Float.equal fresh pooled))
    [ 1; 2; 4 ]

(* Two threads of one domain share its arena, and the runtime may switch
   threads at any allocation, including one between finding a free slot
   and marking it busy. A 1 ms SIGALRM whose handler yields forces
   frequent switches; each thread fills its borrow with its own id and
   checks it before releasing, so a slot handed to both threads shows the
   other thread's id. *)
let test_threads_claim_distinct_slots () =
  with_ws true (fun () ->
      let clashes = Atomic.make 0 in
      let worker until id () =
        let v = float_of_int id in
        while Unix.gettimeofday () < until do
          Workspace.with_buf [| 64 |] (fun t ->
              Tensor.fill t v;
              for i = 0 to 63 do
                if Tensor.get t i <> v then Atomic.incr clashes
              done)
        done
      in
      let prev = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> Thread.yield ())) in
      let every s = { Unix.it_interval = s; it_value = s } in
      Fun.protect
        ~finally:(fun () ->
          ignore (Unix.setitimer Unix.ITIMER_REAL (every 0.0));
          Sys.set_signal Sys.sigalrm prev)
        (fun () ->
          ignore (Unix.setitimer Unix.ITIMER_REAL (every 0.001));
          let worker = worker (Unix.gettimeofday () +. 0.5) in
          List.iter Thread.join [ Thread.create (worker 1) (); Thread.create (worker 2) () ]);
      Alcotest.(check int) "no borrowed element holds the other thread's id" 0
        (Atomic.get clashes))

(* --- steady state: a warmed-up training step allocates nothing --- *)

(* The ngf-4 teacher on one training workload, one epoch at batch 2, on one
   domain (so every kernel runs on the calling domain). *)
let fixture () =
  let spec = (Experiments.default_scale ()).Experiments.spec in
  let ws = List.filteri (fun i _ -> i < 1) (Suite.split (Suite.all ())).Suite.train in
  let data = Cbox_dataset.build_l1 spec ~configs:[ Experiments.l1_64s12w ] ~trace_len:4000 ws in
  let samples = Cbox_dataset.to_samples data in
  let cfg = Cbgan.default_config ~ngf:4 ~ndf:4 () in
  (spec, samples, cfg, Cbgan.create ~seed:7 cfg)

type usage = { fresh_allocs : int; borrows : int; minor_words : float }

(* Two warm-up calls populate every size class the call's kernels borrow;
   the third is measured. *)
let third_call call =
  call ();
  call ();
  let a0 = Workspace.alloc_count () and b0 = Workspace.borrow_count () in
  let w0 = Gc.minor_words () in
  call ();
  let minor_words = Gc.minor_words () -. w0 in
  {
    fresh_allocs = Workspace.alloc_count () - a0;
    borrows = Workspace.borrow_count () - b0;
    minor_words;
  }

let train_call () =
  let spec, samples, _, model = fixture () in
  let options =
    { (Cbox_train.default_options ~epochs:1 ~batch_size:2 ()) with Cbox_train.domains = Some 1 }
  in
  fun () -> ignore (Cbox_train.train model spec options samples)

let distill_call () =
  let spec, samples, cfg, teacher = fixture () in
  let student = Student.create ~seed:7 (Distill.student_config cfg) in
  let options =
    { (Distill.default_options ~epochs:1 ()) with Distill.batch_size = 2; domains = Some 1 }
  in
  fun () -> ignore (Distill.train ~teacher student spec options samples)

let test_training_steady_state () =
  with_ws true (fun () ->
      let u = third_call (train_call ()) in
      Alcotest.(check bool) "steady step borrows scratch" true (u.borrows > 0);
      Alcotest.(check int) "steady step allocates no scratch" 0 u.fresh_allocs)

(* Minor-heap words of a warm training call. A float boxed per element of
   the step (a cross-module Tensor.get/set, or a closure per element) costs
   millions of words here. With every elementwise loop over the raw
   buffers a call allocated 50,203 words (Cbox_train.train) and 22,063
   (Distill.train); when Adam, batch norm, the activations and the losses
   boxed their floats, 4,711,636 and 560,080. The bounds leave 1.8-2x. *)
let minor_words_bound name call bound =
  with_ws true (fun () ->
      let u = third_call (call ()) in
      if u.minor_words > bound then
        Alcotest.failf "%s allocated %.0f minor words (bound %.0f)" name u.minor_words bound)

let test_train_minor_words () =
  minor_words_bound "Cbox_train.train" train_call 100_000.0

let test_distill_minor_words () =
  minor_words_bound "Distill.train" distill_call 40_000.0

let suite =
  ( "workspace",
    [
      Alcotest.test_case "with_buf shape and zero" `Quick test_shape_and_zero;
      Alcotest.test_case "slot reuse within a size class" `Quick test_reuse_same_class;
      Alcotest.test_case "nested borrows are distinct" `Quick test_nested_borrows_distinct;
      Alcotest.test_case "slot released on raise" `Quick test_release_on_raise;
      Alcotest.test_case "disabled mode allocates fresh" `Quick test_disabled_fresh;
      Alcotest.test_case "interleaved conv shapes (aliasing)" `Quick
        test_interleaved_conv_shapes;
      Alcotest.test_case "conv backward aliasing" `Quick test_conv_backward_aliasing;
      Alcotest.test_case "parallel conv aliasing" `Quick test_parallel_conv_aliasing;
      Alcotest.test_case "threads of one domain claim distinct slots" `Quick
        test_threads_claim_distinct_slots;
      Alcotest.test_case "training step steady-state allocations" `Slow
        test_training_steady_state;
      Alcotest.test_case "training call minor words" `Slow test_train_minor_words;
      Alcotest.test_case "distillation call minor words" `Slow test_distill_minor_words;
    ] )
