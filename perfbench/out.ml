(* What a run prints: human-readable lines first, then, as the very last
   line of standard output, one JSON object with exactly the keys
   [correct], [attempted], [failed] and [metrics]. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit the float carries: a measured time must never be rounded
   into a constant. *)
let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let result_json ~correct ~attempted ~failed metrics =
  let b = Buffer.create 512 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
        (json_number m.value) (json_string m.unit_))
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let print_metrics metrics =
  List.iter (fun m -> Printf.printf "%-28s %16.6g %s\n" m.name m.value m.unit_) metrics

(* A percentile line with its sample count, or why it is withheld. *)
let print_percentiles ~what ~unit_ samples qs =
  let n = Samples.count samples in
  if n = 0 then Printf.printf "  %s: no samples\n" what
  else begin
    let s = Samples.sorted samples in
    List.iter
      (fun (label, q) ->
        if q <= 0.5 || Samples.tail_ok n q then
          Printf.printf "  %s %s = %.3f %s (n=%d, %d beyond)\n" what label
            (Samples.quantile_sorted s q) unit_ n (Samples.beyond n q)
        else
          Printf.printf "  %s %s withheld: n=%d leaves %d samples beyond it\n"
            what label n (Samples.beyond n q))
      qs
  end

(* Peak resident set of process [pid] (VmHWM), MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let host_line () =
  Printf.printf "host: nproc=%d ocaml=%s source=%s\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (Option.value (Sys.getenv_opt "PERFBENCH_SOURCE") ~default:"unknown")

let section title = Printf.printf "== %s\n%!" title

(* Jiffies the hypervisor gave to others while this VM wanted to run,
   and all jiffies, from /proc/stat: noise the figures cannot show. *)
let steal_and_total () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    (match String.split_on_char ' ' line |> List.filter (( <> ) "") with
    | "cpu" :: fields ->
      let v = List.map (fun f -> try int_of_string f with _ -> 0) fields in
      let steal = match List.nth_opt v 7 with Some s -> s | None -> 0 in
      (steal, List.fold_left ( + ) 0 v)
    | _ -> (0, 0))

(* Share of CPU time stolen since [(s0, t0)]. *)
let steal_since (s0, t0) =
  let s1, t1 = steal_and_total () in
  if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.

let print_steal (s0, t0) =
  let s1, t1 = steal_and_total () in
  if t1 > t0 then
    Printf.printf "host: %.2f%% of CPU time stolen by the hypervisor during the run\n"
      (100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0))

(* Every per-layer metric, with its unit. A traced run prints all of
   them; a layer the workload does not cross reads 0. *)
let per_layer =
  [
    ("trace.parse_ns_per_record", "ns");
    ("replay.minor_words_per_op", "words");
    ("replay.residual_ns_per_op", "ns");
    ("op_p99_us", "us");
    ("read_p50_us", "us");
    ("read_p99_us", "us");
    ("update_p50_us", "us");
    ("update_p99_us", "us");
    ("sim_mean_latency_ms", "ms");
    ("sim_p99_latency_ms", "ms");
    ("sim_blocks_flushed", "blocks");
    ("cache.hit_ratio", "ratio");
    ("cache.flushed_blocks", "blocks");
    ("cache.absorbed_writes", "blocks");
    ("cache.write_stall_s", "s");
    ("cache.conservation_gap", "blocks");
    ("lfs.segments_sealed", "count");
    ("layout.host_ns_per_block", "ns");
    ("driver.requests", "count");
    ("driver.merged", "count");
    ("driver.wait_s", "s");
    ("disk.service_s", "s");
    ("disk.seek_s", "s");
    ("disk.rotation_s", "s");
    ("bus.acquire_wait_s", "s");
    ("driver.host_ns_per_request", "ns");
    ("disk.host_ns_per_request", "ns");
    ("frame.send_us", "us");
    ("frame.reply_wait_us", "us");
    ("wire.codec_ns", "ns");
    ("wire.frames_per_syscall", "ratio");
    ("wire.copied_bytes_per_op", "bytes");
    ("server.exec_us", "us");
    ("server.handoff_us", "us");
    ("server.listener_us", "us");
    ("server.rejected", "count");
    ("client.hit_ratio", "ratio");
    ("client.hit_ns", "ns");
    ("client.msgs_per_op", "ratio");
    ("client.msgs_per_send", "ratio");
    ("client.invalidations", "count");
    ("client.transport_us", "us");
    ("client.stale_reads", "count");
    ("lease.grant_ns", "ns");
    ("lease.pushes", "count");
  ]

(* The per-layer metric list from the values a workload measured. *)
let per_layer_metrics measured =
  List.map
    (fun (name, unit_) ->
      let v = match List.assoc_opt name measured with Some v -> v | None -> 0. in
      metric name unit_ v)
    per_layer

(* One stacked bar: the parts of [total] and what is left unexplained. *)
let print_stack ~title ~unit_ ~total parts =
  Printf.printf "%s (%.3f %s):\n" title total unit_;
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0. parts in
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-28s %12.3f %s  %5.1f%%\n" name v unit_
        (if total > 0. then 100. *. v /. total else 0.))
    (parts @ [ ("residual", total -. sum) ])

let print_rounds ~unit_ rates steal =
  Printf.printf "per round (%s):%s\n" unit_
    (String.concat "" (List.map (Printf.sprintf " %.0f") rates));
  if steal <> [] then
    Printf.printf "per round (%% stolen):%s\n"
      (String.concat "" (List.map (fun s -> Printf.sprintf " %.1f" (100. *. s)) steal))

let print_overhead name ~untraced ~traced =
  Printf.printf "tracing overhead: %s %.6g untraced, %.6g traced (%+.1f%%)\n" name
    untraced traced
    (if untraced <> 0. then 100. *. (traced -. untraced) /. untraced else 0.)
