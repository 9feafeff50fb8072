let sorted_array what xs =
  if xs = [] then invalid_arg (what ^ ": no samples");
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted_array "Bstats.median" xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  let a = sorted_array "Bstats.quartiles" xs in
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let n = 4 and m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (q 1, q 2, q 3)
  end

let spread xs =
  let q1, _, q3 = quartiles xs in
  let med = median xs in
  if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med

let percentile xs p =
  let a = sorted_array "Bstats.percentile" xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let tail_percentile n =
  List.fold_left
    (fun acc p -> if float_of_int n *. (1.0 -. p) >= 10.0 -. 1e-9 then Some p else acc)
    None [ 0.5; 0.9; 0.99; 0.999 ]

type step = {
  rate : float;
  p90_ms : float;
  failed : int;
  inflight_end : int;
  late_ms_max : float;
}

type step_verdict = Pass | Over_limit | Failed_replies | Backlog | Invalid

let max_late_ms = 20.0

let judge_step ~limit_ms s =
  if s.late_ms_max > max_late_ms then Invalid
  else if s.p90_ms > limit_ms then Over_limit
  else if s.failed > 0 then Failed_replies
  else if float_of_int s.inflight_end > 0.5 *. s.rate then Backlog
  else Pass

let goodput ~limit_ms steps =
  let rec go best = function
    | s :: rest when judge_step ~limit_ms s = Pass -> go (Float.max best s.rate) rest
    | _ -> best
  in
  go 0.0 steps

type better = Lower | Higher
type verdict = Agree | Unresolved | Regressed

let verdict_name = function
  | Agree -> "agree"
  | Unresolved -> "unresolved"
  | Regressed -> "regressed"

let worsening ~better ~base ~cand =
  let d = match better with Lower -> cand -. base | Higher -> base -. cand in
  if base = 0.0 then (if d > 0.0 then Float.infinity else 0.0) else d /. Float.abs base

let agree ~better ~bound ~check_spread ~base ~cand =
  if base = [] || cand = [] then invalid_arg "Bstats.agree: empty result set";
  let beats c b = match better with Lower -> c < b | Higher -> c > b in
  let all_better = List.for_all (fun c -> List.for_all (beats c) base) cand in
  if all_better then Agree
  else if check_spread && (spread base > bound || spread cand > bound) then Unresolved
  else if worsening ~better ~base:(median base) ~cand:(median cand) > bound then Regressed
  else Agree
