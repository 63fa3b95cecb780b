(* main.exe --workload W --seed N --seconds S --trace 0|1 [--dir D]

   Runs one workload in this process (the PFS server in a child it
   forks and reaps) inside the scratch directory D, prints human-readable
   lines and, last, the one-line JSON result. Exits non-zero without a
   result line when the workload cannot run. *)

open Perfbench

let usage =
  "main.exe --workload patsy-sprite1b|pfs-rpc|pfs-leased --seed N --seconds S \
   --trace 0|1 [--dir D]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let dir = ref ".perfbench_run" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "name");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--dir", Arg.Set_string dir, "scratch directory (created, then removed)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let traced = !trace = 1 in
  let run () =
    match !workload with
    | "patsy-sprite1b" -> Patsy_wl.main ~seed:!seed ~seconds:!seconds ~traced
    | "pfs-rpc" -> Pfs_wl.main ~mode:Pfs_wl.Rpc ~seed:!seed ~seconds:!seconds ~traced
    | "pfs-leased" -> Pfs_wl.main ~mode:Pfs_wl.Leased ~seed:!seed ~seconds:!seconds ~traced
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  (try Unix.mkdir !dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let cwd = Sys.getcwd () in
  Sys.chdir !dir;
  Out.host_line ();
  Printf.printf "workload=%s seed=%d seconds=%g trace=%d\n%!" !workload !seed !seconds !trace;
  let steal = Out.steal_and_total () in
  let result =
    try Ok (run ()) with
    | Pfs_wl.Failed msg -> Error msg
    | e -> Error (Printexc.to_string e)
  in
  Pfs_wl.kill_live ();
  Out.print_steal steal;
  Sys.chdir cwd;
  match result with
  | Ok line -> print_endline line
  | Error msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 1
