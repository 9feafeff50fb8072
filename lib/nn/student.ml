(* Distilled student generator: the teacher's U-Net at half depth and half
   width, without dropout, and its checkpoint. *)

type config = Unet.config
type t = Unet.t

let create ~seed cfg = Unet.create (Prng.create seed) ~prefix:"student" cfg

let forward t ~training ?cache_params x =
  fst (Unet.forward t ~who:"Student.forward" ~training ?cache_params x)

(* --- checkpoint container (schema cachebox-student/1) ---

   The architecture travels in the metadata section, so a student loads
   from its checkpoint alone; the CRC-32 + atomic-write discipline of the
   shared container makes corrupt-byte rejection and bit-identical
   round-trips free. *)

let schema = "cachebox-student/1"

let save t path =
  let cfg = Unet.config t in
  Checkpoint.save path
    ~meta:
      [
        ("schema", schema);
        ("student.image_size", string_of_int cfg.image_size);
        ("student.levels", string_of_int cfg.levels);
        ("student.ngf", string_of_int cfg.ngf);
        ("student.use_cond", if cfg.use_cond then "1" else "0");
        ("student.cond_hidden", string_of_int cfg.cond_hidden);
        ("student.cond_dim", string_of_int cfg.cond_dim);
      ]
    ~params:(Unet.params t) ~state:(Unet.state t)

let config_of_meta meta =
  let geti k =
    match List.assoc_opt k meta with
    | Some v -> (
      match int_of_string_opt v with
      | Some i -> i
      | None -> failwith (Printf.sprintf "student checkpoint: bad %s=%S" k v))
    | None -> failwith (Printf.sprintf "student checkpoint: missing %s" k)
  in
  {
    Unet.image_size = geti "student.image_size";
    levels = geti "student.levels";
    ngf = geti "student.ngf";
    use_cond = geti "student.use_cond" <> 0;
    cond_hidden = geti "student.cond_hidden";
    cond_dim = geti "student.cond_dim";
  }

let load path =
  let c = Checkpoint.read path in
  let meta = Checkpoint.meta c in
  (match List.assoc_opt "schema" meta with
  | Some s when s = schema -> ()
  | Some s -> failwith (Printf.sprintf "not a student checkpoint (schema %s)" s)
  | None -> failwith "not a student checkpoint (no schema)");
  let t =
    match create ~seed:0 (config_of_meta meta) with
    | t -> t
    | exception Invalid_argument m -> failwith m
  in
  Checkpoint.restore c ~params:(Unet.params t) ~state:(Unet.state t);
  t
