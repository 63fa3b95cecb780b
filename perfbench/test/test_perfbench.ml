(* Self-tests of the benchmark: every output check must fail on a
   corrupted output, and the streamed replay the Patsy workload times
   must agree with the array-backed one. *)

open Perfbench

let fails name v = Alcotest.(check bool) name true (v <> [])
let passes name v = Alcotest.(check (list string)) name [] v

let stamp_roundtrip () =
  let s = { Check.writer = 2; file = 7; block = 1; seq = 1234 } in
  Alcotest.(check bool) "parses back" true (Check.parse_stamp (Check.block_of_stamp s) = Some s)

let image = Check.file_image ~writer:1 ~file:3 ~blocks:2 ~seq:70

let model () =
  let m = Check.Model.create ~files:4 ~loader_seq:(fun f -> f + 1) in
  Check.Model.ack m ~file:3 ~writer:1 ~seq:70;
  m

let flip s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

let rpc_checks () =
  let m = model () in
  passes "current version" (Check.rpc_read m ~file:3 ~blocks:2 image);
  fails "flipped stamp byte" (Check.rpc_read m ~file:3 ~blocks:2 (flip image 2));
  fails "flipped filler byte" (Check.rpc_read m ~file:3 ~blocks:2 (flip image 5000));
  fails "short read" (Check.rpc_read m ~file:3 ~blocks:2 (String.sub image 0 4096));
  fails "wrong file" (Check.rpc_read m ~file:2 ~blocks:2 image);
  let torn = String.sub image 0 4096 ^ String.sub (Check.file_image ~writer:1 ~file:3 ~blocks:2 ~seq:71) 4096 4096 in
  fails "torn write" (Check.rpc_read m ~file:3 ~blocks:2 torn);
  Check.Model.ack m ~file:3 ~writer:2 ~seq:80;
  fails "stale version" (Check.rpc_read m ~file:3 ~blocks:2 image)

let leased_checks () =
  let m = model () in
  let seen = Array.init 4 (fun f -> f + 1) in
  let v, stale = Check.leased_read m ~seen ~file:3 ~blocks:2 image in
  passes "acknowledged version" v;
  Alcotest.(check bool) "current, not stale" false stale;
  Alcotest.(check int) "floor advances" 70 seen.(3);
  Check.Model.ack m ~file:3 ~writer:2 ~seq:80;
  let v, stale = Check.leased_read m ~seen ~file:3 ~blocks:2 image in
  passes "another client's newer write may not be visible yet" v;
  Alcotest.(check bool) "counted stale" true stale;
  seen.(3) <- 80;
  fails "older than a version already seen" (fst (Check.leased_read m ~seen ~file:3 ~blocks:2 image));
  fails "never acknowledged"
    (fst (Check.leased_read m ~seen ~file:3 ~blocks:2 (Check.file_image ~writer:1 ~file:3 ~blocks:2 ~seq:99)));
  fails "flipped byte" (fst (Check.leased_read m ~seen ~file:3 ~blocks:2 (flip image 100)))

let patsy_checks () =
  passes "every record replayed" (Check.replay_accounting ~records:10 ~operations:10 ~skipped:2 ~errors:0);
  fails "dropped record" (Check.replay_accounting ~records:10 ~operations:9 ~skipped:2 ~errors:0);
  passes "flushes reached the layout" (Check.flush_accounting ~flushed:10 ~written:10);
  fails "broken sum" (Check.flush_accounting ~flushed:10 ~written:9);
  fails "dirty after sync" (Check.clean_after_sync ~dirty:1);
  passes "rounds agree" (Check.rounds_agree [ (1., 2); (1., 2) ]);
  fails "rounds differ" (Check.rounds_agree [ (1., 2); (1., 3) ])

let samples () =
  let s = Samples.create () in
  for i = 1 to 2000 do
    Samples.add s (float_of_int i)
  done;
  Alcotest.(check (float 0.)) "exact median" 1000. (Samples.quantile s 0.5);
  Alcotest.(check (float 0.)) "exact p99" 1980. (Samples.quantile s 0.99);
  Alcotest.(check int) "beyond p99" 20 (Samples.beyond 2000 0.99);
  Alcotest.(check bool) "p99 needs ten beyond" false (Samples.tail_ok 999 0.99);
  Alcotest.(check (float 0.)) "median of list" 2.5 (Samples.median_of [ 4.; 1.; 3.; 2. ])

let result_line () =
  let line = Out.result_json ~correct:true ~attempted:3 ~failed:0 [ Out.metric "a_s" "s" 0.125 ] in
  Alcotest.(check string) "shape"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
    line

(* A streamed replay of a short trace file gives the same simulated
   statistics as an array-backed replay of the same file. *)
let streamed_equals_array () =
  let path = Filename.temp_file "perfbench" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Capfs_trace.Sprite_format.save path
        (Capfs_trace.Synth.generate ~seed:7 ~duration:60. Capfs_trace.Synth.sprite_1b);
      let records = Check.count_trace_lines path in
      let go source = Patsy_wl.round ~farm:Patsy_wl.plain_farm ~source () in
      let streamed = go (Capfs_trace.Source.sprite_file path) in
      let array = go (Capfs_trace.Source.of_array (Capfs_trace.Sprite_format.load path)) in
      Alcotest.(check bool) "same simulated figures" true (streamed.Patsy_wl.sim = array.Patsy_wl.sim);
      Alcotest.(check int) "same operations" array.replay.Capfs_patsy.Replay.operations
        streamed.replay.Capfs_patsy.Replay.operations;
      passes "checks pass" (Patsy_wl.checks ~records streamed))

let () =
  Alcotest.run "perfbench"
    [
      ( "checks",
        [
          Alcotest.test_case "stamp round trip" `Quick stamp_roundtrip;
          Alcotest.test_case "rpc read check" `Quick rpc_checks;
          Alcotest.test_case "leased read check" `Quick leased_checks;
          Alcotest.test_case "patsy checks" `Quick patsy_checks;
        ] );
      ( "measure",
        [
          Alcotest.test_case "exact percentiles" `Quick samples;
          Alcotest.test_case "result line" `Quick result_line;
          Alcotest.test_case "streamed replay = array replay" `Quick streamed_equals_array;
        ] );
    ]
