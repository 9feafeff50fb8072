(* Compiled inference programs: the float32 program is the tape forward,
   bit for bit, for the teacher and the student — seeded and after a few
   training steps (non-trivial running statistics), at half depth and
   without conditioning, at batch 1 and 8, on 1 and 4 domains; a program is
   a snapshot of its model; and no learned backend's forward allocates in
   proportion to the activations it computes. *)

let bits t = Array.map Int32.bits_of_float (Tensor.to_array t)

let spec_of size = Heatmap.spec ~height:size ~width:size ~window:8 ~overlap:0.3 ~granularity:64 ()

let teacher_config size ngf =
  {
    (Cbgan.default_config ~image_size:size ~ngf ~ndf:4 ()) with
    Cbgan.cond_dim = 8;
    cond_hidden = 8;
  }

let samples spec =
  let workload name seed =
    Workload.make ~name ~suite:Workload.Spec ~group:name (fun n ->
        let rng = Prng.create seed in
        Array.init n (fun i ->
            if Prng.float rng 1.0 < 0.7 then (i mod 32) * 8 else Prng.int rng 8192 * 64))
  in
  Cbox_dataset.to_samples
    (Cbox_dataset.build_l1 spec
       ~configs:[ Cache.config ~sets:4 ~ways:2 (); Cache.config ~sets:64 ~ways:8 () ]
       ~trace_len:(3 * Heatmap.accesses_per_image spec)
       [ workload "c1" 5; workload "c2" 6 ])

(* (name, image size, tape forward, float32 program) *)
let teacher name size m =
  ( Printf.sprintf "%s teacher %dx%d" name size size,
    size,
    (fun ?cache_params x ->
      Value.value (Cbgan.generator_forward m ~rng:(Prng.create 0) ~training:false ?cache_params x)),
    Qgen.float_of_model m )

let student name size s =
  ( Printf.sprintf "%s student %dx%d" name size size,
    size,
    (fun ?cache_params x -> Value.value (Student.forward s ~training:false ?cache_params x)),
    Qgen.float_of_student s )

(* Two sizes: 16x16 keeps most GEMMs under the small-product cutoff, 32x32
   puts most on the packed path with several KC blocks. The trained models
   have moved weights and running statistics away from their seeds. Three
   more seeded generators at 16x16: a conditioned teacher at half depth,
   whose 4x4 bottleneck the conditioning vector is tiled over, and a teacher
   and a student without conditioning, whose programs have no MLP. *)
let models () =
  let cfg16 = Cbgan.default_config ~image_size:16 ~ngf:4 ~ndf:4 () in
  let plain = { cfg16 with Cbgan.use_cache_params = false } in
  List.concat_map
    (fun (size, ngf) ->
      let spec = spec_of size in
      let cfg = teacher_config size ngf in
      let seeded () = Cbgan.create ~seed:(size + ngf) cfg in
      let seeded_student () = Student.create ~seed:size (Distill.student_config cfg) in
      let trained_teacher =
        let m = seeded () in
        let options =
          { (Cbox_train.default_options ~epochs:1 ~batch_size:2 ()) with Cbox_train.lr = 0.01 }
        in
        ignore (Cbox_train.train m spec options (samples spec));
        m
      in
      let trained_student =
        let s = seeded_student () in
        let options =
          { (Distill.default_options ~epochs:1 ()) with Distill.batch_size = 2; lr = 0.01 }
        in
        ignore (Distill.train ~teacher:trained_teacher s spec options (samples spec));
        s
      in
      [
        teacher "seeded" size (seeded ());
        teacher "trained" size trained_teacher;
        student "seeded" size (seeded_student ());
        student "trained" size trained_student;
      ])
    [ (16, 4); (32, 8) ]
  @ [
      teacher "half-depth" 16 (Cbgan.create ~seed:5 { cfg16 with Cbgan.levels = 2 });
      teacher "unconditioned" 16 (Cbgan.create ~seed:6 plain);
      student "unconditioned" 16 (Student.create ~seed:7 (Distill.student_config plain));
    ]

let test_float_program_is_tape () =
  let caches = [ Cache.config ~sets:4 ~ways:2 (); Cache.config ~sets:64 ~ways:8 () ] in
  List.iter
    (fun (name, size, tape, program) ->
      List.iter
        (fun n ->
          let rng = Prng.create (size + n) in
          let x = Tensor.randn rng [| n; 1; size; size |] in
          let cache_params =
            if Qgen.uses_cache_params program then
              Some (Cbgan.cache_params_tensor (List.init n (fun i -> List.nth caches (i mod 2))))
            else None
          in
          let want = bits (tape ?cache_params x) in
          List.iter
            (fun d ->
              let got = Dpool.with_domains d (fun () -> Qgen.forward program ?cache_params x) in
              Alcotest.(check bool)
                (Printf.sprintf "%s, batch %d, %d domains: program = tape" name n d)
                true
                (bits got = want))
            [ 1; 4 ])
        [ 1; 8 ])
    (models ())

(* A program is a snapshot: changing the model's weights and running
   statistics after the compile leaves its output alone. *)
let test_program_is_snapshot () =
  let cfg = teacher_config 16 4 in
  let m = Cbgan.create ~seed:3 cfg in
  let p = Qgen.float_of_model m in
  let x = Tensor.randn (Prng.create 4) [| 2; 1; 16; 16 |] in
  let cp =
    Cbgan.cache_params_tensor [ Cache.config ~sets:4 ~ways:2 (); Cache.config ~sets:64 ~ways:8 () ]
  in
  let before = bits (Qgen.forward p ~cache_params:cp x) in
  List.iter (fun (q : Param.t) -> Tensor.scale_ q.Param.value 2.0) (Cbgan.generator_params m);
  List.iter (fun (_, a) -> Array.fill a 0 (Array.length a) 3.0) (Cbgan.state m);
  Alcotest.(check bool) "output unchanged after the model changed" true
    (bits (Qgen.forward p ~cache_params:cp x) = before);
  Alcotest.(check bool) "a fresh compile sees the change" false
    (bits (Qgen.forward (Qgen.float_of_model m) ~cache_params:cp x) = before)

(* Minor-heap words of one batch-8 forward at the default sizes, one
   domain. Boxing every element of a pointwise pass through a float
   closure, or building tape nodes, costs ~1-4 million words here (0.88M
   for student-int8 with activation copies, 4.25M for the float32 tape). What remains is per-op
   bookkeeping — tensor headers, sub-views, lane closures — plus, for
   float32, the float microkernel's partial tiles at the 1x1 bottleneck
   (~100k words). *)
let test_forward_minor_words () =
  let spec = Heatmap.spec () in
  let cfg = Cbgan.default_config () in
  let teacher = Cbgan.create ~seed:42 cfg in
  let student = Student.create ~seed:7 (Distill.student_config cfg) in
  let n = 8 in
  let x = Tensor.randn (Prng.create 3) [| n; 1; 64; 64 |] in
  let cp = Cbgan.cache_params_tensor (List.init n (fun _ -> Experiments.l1_64s12w)) in
  List.iter
    (fun (name, p, bound) ->
      Dpool.with_domains 1 (fun () ->
          ignore (Qgen.forward p ~cache_params:cp x);
          let w0 = Gc.minor_words () in
          ignore (Qgen.forward p ~cache_params:cp x);
          let words = Gc.minor_words () -. w0 in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %.0f minor words per batch-8 forward <= %.0f" name words bound)
            true (words <= bound)))
    [
      ("float32", Qgen.float_of_model teacher, 250_000.0);
      ("int8", Qgen.of_model ~spec teacher, 50_000.0);
      ("student", Qgen.float_of_student student, 25_000.0);
      ("student-int8", Qgen.of_student ~spec student, 25_000.0);
    ]

let suite =
  ( "compiled",
    [
      Alcotest.test_case "float32 program is the tape forward, bitwise" `Quick
        test_float_program_is_tape;
      Alcotest.test_case "forward minor-heap words per backend" `Quick test_forward_minor_words;
      Alcotest.test_case "a program snapshots its model" `Quick test_program_is_snapshot;
    ] )
