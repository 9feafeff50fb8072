(* Digests of every learned backend's raw forward output, for checking that
   a numerics change leaves the outputs bit-identical:

     dune exec test/forward_digest.exe                 # seeded default models
     dune exec test/forward_digest.exe -- --trained    # after a few training steps

   Each backend's line is the MD5 of the float32 bits of its forward over
   [Qgen.default_calib], run at two cache geometries, at batch 1 and 8, on
   1 and 2 domains, in that order. Run it at two commits and compare the
   lines. *)

let spec = Trained_fixture.spec
let caches = Trained_fixture.caches

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

let () =
  let trained_models = ref false in
  Arg.parse
    [ ("--trained", Arg.Set trained_models, " digest models after a few training steps") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "forward_digest [--trained]";
  let teacher, student =
    if !trained_models then Trained_fixture.train ()
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
