(* Unit tests for the benchmark's statistics rules. Pure and fast: no
   sockets, no models. The quartile vectors are Python's
   statistics.quantiles(xs, n=4) outputs. *)

let close = Alcotest.float 1e-12

let quartiles_match_python () =
  let check xs (a, b, c) =
    let q1, q2, q3 = Bstats.quartiles xs in
    Alcotest.check close "q1" a q1;
    Alcotest.check close "q2" b q2;
    Alcotest.check close "q3" c q3
  in
  check [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] (2.75, 5.5, 8.25);
  check [ 3.0; 1.0; 2.0 ] (1.0, 2.0, 3.0);
  check [ 5.5; 1.25 ] (0.1875, 3.375, 6.5625);
  check
    [ 0.91; 0.95; 1.02; 0.99; 0.97; 1.10; 0.93; 0.96; 1.01; 0.98 ]
    (0.945, 0.975, 1.0125000000000002);
  check [ 4.0 ] (4.0, 4.0, 4.0)

let median_and_spread () =
  Alcotest.check close "odd" 2.0 (Bstats.median [ 3.; 1.; 2. ]);
  Alcotest.check close "even" 2.5 (Bstats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "spread" (5.5 /. 5.5)
    (Bstats.spread [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ]);
  Alcotest.check close "zero median" 0.0 (Bstats.spread [ 0.; 0.; 0. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Bstats.median: no samples") (fun () ->
      ignore (Bstats.median []))

let nearest_rank () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p50" 50.0 (Bstats.percentile xs 0.5);
  Alcotest.check close "p90" 90.0 (Bstats.percentile xs 0.9);
  Alcotest.check close "p99" 99.0 (Bstats.percentile xs 0.99);
  Alcotest.check close "p100" 100.0 (Bstats.percentile xs 1.0);
  Alcotest.check close "p0" 1.0 (Bstats.percentile xs 0.0);
  Alcotest.check close "one sample" 7.0 (Bstats.percentile [ 7.0 ] 0.9)

let ten_beyond_rule () =
  let tail = Alcotest.(option (float 0.0)) in
  Alcotest.check tail "19 samples" None (Bstats.tail_percentile 19);
  Alcotest.check tail "20 samples" (Some 0.5) (Bstats.tail_percentile 20);
  Alcotest.check tail "99 samples" (Some 0.5) (Bstats.tail_percentile 99);
  Alcotest.check tail "100 samples" (Some 0.9) (Bstats.tail_percentile 100);
  Alcotest.check tail "999 samples" (Some 0.9) (Bstats.tail_percentile 999);
  Alcotest.check tail "1000 samples" (Some 0.99) (Bstats.tail_percentile 1000);
  Alcotest.check tail "10000 samples" (Some 0.999) (Bstats.tail_percentile 10000)

let step ?(p90 = 20.0) ?(failed = 0) ?(inflight = 0) ?(late = 1.0) rate =
  { Bstats.rate; p90_ms = p90; failed; inflight_end = inflight; late_ms_max = late }

let ladder_rule () =
  let verdict = Alcotest.testable (fun f v ->
      Format.pp_print_string f
        (match v with
        | Bstats.Pass -> "pass"
        | Over_limit -> "over_limit"
        | Failed_replies -> "failed_replies"
        | Backlog -> "backlog"
        | Invalid -> "invalid")) ( = )
  in
  let judge = Bstats.judge_step ~limit_ms:100.0 in
  Alcotest.check verdict "pass" Bstats.Pass (judge (step 20.0));
  Alcotest.check verdict "limit" Bstats.Over_limit (judge (step ~p90:100.5 20.0));
  Alcotest.check verdict "at limit" Bstats.Pass (judge (step ~p90:100.0 20.0));
  Alcotest.check verdict "failed" Bstats.Failed_replies (judge (step ~failed:1 20.0));
  Alcotest.check verdict "backlog" Bstats.Backlog (judge (step ~inflight:11 20.0));
  Alcotest.check verdict "half a second" Bstats.Pass (judge (step ~inflight:10 20.0));
  Alcotest.check verdict "late generator" Bstats.Invalid (judge (step ~late:20.5 20.0));
  let good = Bstats.goodput ~limit_ms:100.0 in
  Alcotest.check close "all pass" 60.0 (good [ step 15.0; step 30.0; step 45.0; step 60.0 ]);
  Alcotest.check close "stops at first failure" 30.0
    (good [ step 15.0; step 30.0; step ~p90:300.0 45.0; step 60.0 ]);
  Alcotest.check close "invalid step stops the ladder" 15.0
    (good [ step 15.0; step ~late:50.0 30.0; step 45.0 ]);
  Alcotest.check close "first fails" 0.0 (good [ step ~failed:2 15.0; step 30.0 ]);
  Alcotest.check close "empty" 0.0 (good [])

let agreement_rule () =
  let v = Alcotest.testable (fun f v -> Format.pp_print_string f (Bstats.verdict_name v)) ( = ) in
  let agree = Bstats.agree ~bound:0.05 ~check_spread:true in
  let base = [ 100.; 101.; 99.; 100.5; 99.5; 100.2; 99.8; 100.1; 99.9; 100. ] in
  Alcotest.check v "same" Bstats.Agree (agree ~better:Lower ~base ~cand:base);
  Alcotest.check v "4% slower is within bound" Bstats.Agree
    (agree ~better:Lower ~base ~cand:(List.map (fun x -> x *. 1.04) base));
  Alcotest.check v "10% slower regressed" Bstats.Regressed
    (agree ~better:Lower ~base ~cand:(List.map (fun x -> x *. 1.10) base));
  Alcotest.check v "10% lower throughput regressed" Bstats.Regressed
    (agree ~better:Higher ~base ~cand:(List.map (fun x -> x *. 0.90) base));
  Alcotest.check v "higher throughput agrees" Bstats.Agree
    (agree ~better:Higher ~base ~cand:(List.map (fun x -> x *. 1.30) base));
  let noisy = [ 70.; 130.; 90.; 110.; 100.; 80.; 120.; 100.; 95.; 105. ] in
  Alcotest.check v "wide spread unresolved" Bstats.Unresolved
    (agree ~better:Lower ~base ~cand:noisy);
  Alcotest.check v "spread not checked" Bstats.Agree
    (Bstats.agree ~bound:0.05 ~check_spread:false ~better:Lower ~base ~cand:noisy);
  Alcotest.check v "every run better wins over spread" Bstats.Agree
    (agree ~better:Lower ~base:noisy ~cand:[ 10.; 60.; 30. ]);
  Alcotest.check close "worsening lower" 0.1
    (Bstats.worsening ~better:Lower ~base:100.0 ~cand:110.0);
  Alcotest.check close "worsening higher" (-0.1)
    (Bstats.worsening ~better:Higher ~base:100.0 ~cand:110.0)

let () =
  Alcotest.run "benchmark-stats"
    [
      ( "stats",
        [
          Alcotest.test_case "quartiles match python" `Quick quartiles_match_python;
          Alcotest.test_case "median and spread" `Quick median_and_spread;
          Alcotest.test_case "nearest-rank percentile" `Quick nearest_rank;
          Alcotest.test_case "ten samples beyond" `Quick ten_beyond_rule;
          Alcotest.test_case "ladder and goodput" `Quick ladder_rule;
          Alcotest.test_case "agreement" `Quick agreement_rule;
        ] );
    ]
