(* The trained fixture: an ngf-8 teacher trained for one epoch at batch 2
   on two synthetic workloads at two cache geometries, then a student
   distilled from it. A few steps move the weights and batch-norm
   statistics away from their seeds, so checks over them cover non-trivial
   values. [forward_digest --trained] digests the fixture's forwards; the
   core suite pins the fixture's weights bit for bit. *)

let spec = Heatmap.spec ()
let caches = [ Cache.config ~sets:64 ~ways:12 (); Cache.config ~sets:16 ~ways:4 () ]

let train () =
  let cfg = Cbgan.default_config ~ngf:8 ~ndf:8 () in
  let workload name seed =
    Workload.make ~name ~suite:Workload.Spec ~group:name (fun n ->
        let rng = Prng.create seed in
        Array.init n (fun i ->
            if Prng.float rng 1.0 < 0.7 then (i mod 64) * 8 else Prng.int rng 65536 * 64))
  in
  let samples =
    Cbox_dataset.to_samples
      (Cbox_dataset.build_l1 spec ~configs:caches
         ~trace_len:(2 * Heatmap.accesses_per_image spec)
         [ workload "d1" 5; workload "d2" 6 ])
  in
  let teacher = Cbgan.create ~seed:42 cfg in
  let options =
    { (Cbox_train.default_options ~epochs:1 ~batch_size:2 ()) with Cbox_train.lr = 0.01 }
  in
  ignore (Cbox_train.train teacher spec options samples);
  let student = Student.create ~seed:7 (Distill.student_config cfg) in
  let options = { (Distill.default_options ~epochs:1 ()) with Distill.batch_size = 2; lr = 0.01 } in
  ignore (Distill.train ~teacher student spec options samples);
  (teacher, student)
