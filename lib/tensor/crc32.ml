(* CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320). Table built lazily so
   programs that never touch a checksummed file pay nothing. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let digest s =
  let table = Lazy.force table in
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> crc := table.((!crc lxor Char.code ch) land 0xFF) lxor (!crc lsr 8))
    s;
  !crc lxor 0xFFFFFFFF
