(* `benchmark.exe agree BASE CAND`: compare two result sets under the
   bounds in BENCHMARK.json. A result set is a JSONL file of run records
   (what --record appends). Each end-to-end metric on each workload gets
   its own row: medians with quartiles on both sides, the change, the
   bound, and the verdict of Bstats.agree. *)

let read_json path =
  let ic = open_in_bin path in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  match Sjson.parse s with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)

let read_records path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | "" -> go acc
        | line -> (
          match Sjson.parse line with
          | Ok j -> go (j :: acc)
          | Error e -> failwith (path ^ ": " ^ e))
      in
      go [])

type bound = { name : string; unit_ : string; better : Bstats.better; bound : float }

let bounds path =
  match Sjson.member "end_to_end" (read_json path) with
  | Some (Sjson.Arr l) ->
    List.map
      (fun j ->
        let s k = Option.value (Option.bind (Sjson.member k j) Sjson.to_str) ~default:"" in
        {
          name = s "name";
          unit_ = s "unit";
          better = (if s "better" = "higher" then Bstats.Higher else Bstats.Lower);
          bound = Option.value (Option.bind (Sjson.member "bound" j) Sjson.to_float) ~default:0.0;
        })
      l
  | _ -> failwith (path ^ ": no end_to_end list")

(* Values of [metric] over the untraced runs of [workload]. *)
let values records ~workload ~metric =
  List.filter_map
    (fun r ->
      let str k = Option.bind (Sjson.member k r) Sjson.to_str in
      let traced = Option.bind (Sjson.member "trace" r) Sjson.to_int = Some 1 in
      if str "workload" <> Some workload || traced then None
      else
        Option.bind (Sjson.member "result" r) (fun res ->
            Option.bind (Sjson.member "metrics" res) (fun m ->
                Option.bind (Sjson.member metric m) (fun v ->
                    Option.bind (Sjson.member "value" v) Sjson.to_float))))
    records

let workloads records =
  List.sort_uniq compare
    (List.filter_map (fun r -> Option.bind (Sjson.member "workload" r) Sjson.to_str) records)

let run ~bounds_path ~base ~cand =
  let bounds = bounds bounds_path in
  let base = read_records base and cand = read_records cand in
  let verdicts = ref [] in
  Printf.printf "%-13s %-12s %-7s %28s %28s %8s %6s  %s\n" "workload" "metric" "unit"
    "base median [q1, q3]" "cand median [q1, q3]" "worse by" "bound" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun b ->
          let a = values base ~workload ~metric:b.name and c = values cand ~workload ~metric:b.name in
          let cell xs =
            if xs = [] then "-"
            else
              let q1, q2, q3 = Bstats.quartiles xs in
              Printf.sprintf "%.4g [%.4g, %.4g] n=%d" q2 q1 q3 (List.length xs)
          in
          let verdict, change =
            if a = [] || c = [] then ("missing", nan)
            else
              ( Bstats.verdict_name
                  (Bstats.agree ~better:b.better ~bound:b.bound
                     ~check_spread:(b.name <> "setup_s") ~base:a ~cand:c),
                Bstats.worsening ~better:b.better ~base:(Bstats.median a) ~cand:(Bstats.median c) )
          in
          verdicts := verdict :: !verdicts;
          Printf.printf "%-13s %-12s %-7s %28s %28s %+7.1f%% %5.0f%%  %s\n" workload b.name
            b.unit_ (cell a) (cell c) (100.0 *. change) (100.0 *. b.bound) verdict)
        bounds)
    (List.sort_uniq compare (workloads base @ workloads cand));
  let count v = List.length (List.filter (( = ) v) !verdicts) in
  Printf.printf "agree %d, unresolved %d, regressed %d, missing %d\n" (count "agree")
    (count "unresolved") (count "regressed") (count "missing");
  if count "agree" = List.length !verdicts then 0 else 1
