(* Digests of every learned backend's raw forward output, for checking that
   a numerics change leaves the outputs bit-identical:

     dune exec test/forward_digest.exe                 # seeded default models
     dune exec test/forward_digest.exe -- --trained    # after a few training steps

   Each backend's line is the MD5 of the float32 bits of its forward over
   [Qgen.default_calib], run at two cache geometries, at batch 1 and 8, on
   1 and 2 domains, in that order. Run it at two commits and compare the
   lines. *)

let spec = Heatmap.spec ()
let caches = [ Cache.config ~sets:64 ~ways:12 (); Cache.config ~sets:16 ~ways:4 () ]

let chunks n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l

let digest program =
  let images = Qgen.default_calib spec in
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun cache ->
      List.iter
        (fun batch ->
          List.iter
            (fun domains ->
              Dpool.with_domains domains (fun () ->
                  List.iter
                    (fun imgs ->
                      let x = Cbox_dataset.batch_images spec imgs in
                      let cp =
                        Cbgan.cache_params_tensor (List.map (fun _ -> cache) imgs)
                      in
                      let y = Qgen.forward program ~cache_params:cp x in
                      for i = 0 to Tensor.numel y - 1 do
                        Buffer.add_int32_le buf (Int32.bits_of_float (Tensor.get y i))
                      done)
                    (chunks batch images)))
            [ 1; 2 ])
        [ 1; 8 ])
    caches;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* A few steps of training move the weights and batch-norm statistics away
   from their seeds, so the digests cover non-trivial values. *)
let trained () =
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

let () =
  let trained_models = ref false in
  Arg.parse
    [ ("--trained", Arg.Set trained_models, " digest models after a few training steps") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "forward_digest [--trained]";
  let teacher, student =
    if !trained_models then trained ()
    else
      let cfg = Cbgan.default_config () in
      (Cbgan.create ~seed:42 cfg, Student.create ~seed:7 (Distill.student_config cfg))
  in
  List.iter
    (fun (name, p) -> Printf.printf "%-22s %s\n%!" name (digest p))
    [
      ("float32", Qgen.float_of_model teacher);
      ("int8", Qgen.of_model ~spec teacher);
      ("student", Qgen.float_of_student student);
      ("student-int8", Qgen.of_student ~spec student);
    ]
