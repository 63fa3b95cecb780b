(* patsy-sprite1b: Patsy on the virtual clock replays the synthetic
   sprite-1b profile, streamed from a Sprite-format file, under the
   write-saving (ups) policy on the scaled-down server. *)

module E = Capfs_patsy.Experiment
module Replay = Capfs_patsy.Replay
module Source = Capfs_trace.Source
module Synth = Capfs_trace.Synth
module Sprite = Capfs_trace.Sprite_format
module Sched = Capfs_sched.Sched
module Registry = Capfs_stats.Registry
module Stat = Capfs_stats.Stat
module Client = Capfs.Client

(* Simulated seconds of sprite-1b trace per run. *)
let trace_duration = 900.

(* The scaled-down Sprite server of bench/main.ml. *)
let config =
  {
    (E.default E.Ups) with
    E.ndisks = 2;
    nbuses = 1;
    cache_mb = 24;
    nvram_mb = 4;
  }

let stat_count reg name =
  match Registry.find reg name with Some s -> Stat.count s | None -> 0

let stat_total reg name =
  match Registry.find reg name with
  | Some s -> Stat.mean s *. float_of_int (Stat.count s)
  | None -> 0.

(* Sum a per-instance statistic over [n] instances named by [f]. *)
let sum_count reg n f = List.fold_left ( + ) 0 (List.init n (fun i -> stat_count reg (f i)))
let sum_total reg n f =
  List.fold_left ( +. ) 0. (List.init n (fun i -> stat_total reg (f i)))

(* The generator opens every trace with client 0 making the top-level
   directories at time 0. When another client's first operation is
   dispatched before client 0 gets to a directory, the replay
   synthesizes it, and the trace's own mkdir is then refused with EEXIST
   — on some seeds and not others. Those records are left out: every
   directory is synthesized on first use, as pre-existing files are. *)
let initial_layout (r : Capfs_trace.Record.t) =
  match r.Capfs_trace.Record.op with Capfs_trace.Record.Mkdir _ -> true | _ -> false

let write_trace ~seed path =
  let records = Synth.generate ~seed ~duration:trace_duration Synth.sprite_1b in
  Sprite.save path
    (Array.of_seq (Seq.filter (fun r -> not (initial_layout r)) (Array.to_seq records)))

(* The simulated figures of one replay: the paper's Figure 5 measures. *)
type sim = { mean_ms : float; p99_ms : float; flushed : int }

type round = {
  sim : sim;
  replay : Replay.result;
  registry : Registry.t;
  build_ns : int;
  replay_ns : int;
  minor_words : float;
  dirty_left : int;
}

let sim_of (r : Replay.result) registry =
  {
    mean_ms = Capfs_stats.Sample_set.mean r.Replay.latency *. 1e3;
    p99_ms = Capfs_stats.Sample_set.quantile r.Replay.latency 0.99 *. 1e3;
    flushed = stat_count registry "cache.flushed_blocks";
  }

(* One replay on a fresh farm. With [gaps], the host time between
   consecutive completed operations goes there, in microseconds: the
   host cost of each operation as the replay delivers them. [farm]
   builds the stack (the plain [Experiment.build_farm], or the traced
   one); its host time is part of set-up, not of the replay. *)
let round ?gaps ~farm ~source () =
  let sched = Sched.create ~seed:config.E.seed ~clock:`Virtual () in
  let out = ref None in
  ignore
    (Sched.spawn sched ~name:"perfbench" (fun () ->
         let (client, registry), build_ns = Clock.time (fun () -> farm sched) in
         let w0 = Gc.minor_words () in
         let replay, replay_ns =
           Clock.time (fun () ->
               let observe =
                 Option.map
                   (fun g ->
                     let last = ref (Clock.now_ns ()) in
                     fun _ ->
                       let t = Clock.now_ns () in
                       Samples.add g (float_of_int (t - !last) /. 1e3);
                       last := t)
                   gaps
               in
               let r = Replay.run ?observe client source in
               (match Client.sync client with Ok () | Error _ -> ());
               r)
         in
         let minor_words = Gc.minor_words () -. w0 in
         let fs = Client.fsys client in
         out :=
           Some
             {
               sim = sim_of replay registry;
               replay;
               registry;
               build_ns;
               replay_ns;
               minor_words;
               dirty_left = Capfs_cache.Cache.dirty_count fs.Capfs.Fsys.cache;
             }));
  Sched.run sched;
  match !out with Some r -> r | None -> failwith "patsy: replay produced no outcome"

let plain_farm sched =
  let f = E.build_farm sched config in
  (f.E.f_client, f.E.f_registry)

let checks ~records r =
  Check.replay_accounting ~records ~operations:r.replay.Replay.operations
    ~skipped:r.replay.Replay.skipped_ops ~errors:r.replay.Replay.errors
  @ Check.clean_after_sync ~dirty:r.dirty_left

(* {1 Traced farm}

   Under the cooperative scheduler a layout or driver call parks its
   fibre, so timing it in place would charge it with other fibres'
   work. Instead the traced farm records the call streams crossing the
   [Layout.t] and [Driver.transport] boundaries, and each stream is
   later replayed into a fresh instance of its layer alone. *)

module Layout = Capfs_layout.Layout
module Inode = Capfs_layout.Inode
module Lfs = Capfs_layout.Lfs
module Multiplex = Capfs_layout.Multiplex
module Driver = Capfs_disk.Driver
module Iorequest = Capfs_disk.Iorequest
module Sim_disk = Capfs_disk.Sim_disk
module Bus = Capfs_disk.Bus
module Data = Capfs_disk.Data
module Geometry = Capfs_disk.Geometry
module Disk_model = Capfs_disk.Disk_model
module Names = Capfs_stats.Names
module Iosched = Capfs_disk.Iosched

(* The scalar part of an inode the core may change between calls. *)
type iscalars = {
  s_kind : Inode.kind;
  s_size : int;
  s_nlink : int;
  s_uid : int;
  s_times : float * float * float;
}

let scalars (i : Inode.t) =
  {
    s_kind = i.Inode.kind;
    s_size = i.Inode.size;
    s_nlink = i.Inode.nlink;
    s_uid = i.Inode.uid;
    s_times = (i.Inode.atime, i.Inode.mtime, i.Inode.ctime);
  }

type layout_call =
  | Alloc of Inode.kind
  | Get of int
  | Update of int * iscalars
  | Free of int
  | Read_block of int * iscalars * int
  | Read_blocks of int * iscalars * int * int
  | Write_blocks of (int * int * int) list  (** ino, file block, bytes *)
  | Truncate of int * iscalars * int
  | Adopt of int * iscalars * int
  | Sync

(* One physical request as the transport saw it, and the requests the
   driver was handed that it covers. *)
type disk_call = {
  at : float;
  op : Iorequest.op;
  lba : int;
  sectors : int;
  queue_empty : bool list;
  service : float;
}

type submit = { sub_at : float; s_op : Iorequest.op; s_lba : int; s_sectors : int }

type recording = {
  layout_calls : layout_call Queue.t;
  disk_calls : disk_call Queue.t array;
  submits : submit Queue.t array;
}

let new_recording ndisks =
  {
    layout_calls = Queue.create ();
    disk_calls = Array.init ndisks (fun _ -> Queue.create ());
    submits = Array.init ndisks (fun _ -> Queue.create ());
  }

let recording_layout rc (l : Layout.t) =
  let note c = Queue.push c rc.layout_calls in
  {
    l with
    Layout.alloc_inode = (fun ~kind -> note (Alloc kind); l.Layout.alloc_inode ~kind);
    get_inode = (fun ino -> note (Get ino); l.Layout.get_inode ino);
    update_inode = (fun i -> note (Update (i.Inode.ino, scalars i)); l.Layout.update_inode i);
    free_inode = (fun ino -> note (Free ino); l.Layout.free_inode ino);
    read_block =
      (fun i b -> note (Read_block (i.Inode.ino, scalars i, b)); l.Layout.read_block i b);
    read_blocks =
      (fun i ~first ~count ->
        note (Read_blocks (i.Inode.ino, scalars i, first, count));
        l.Layout.read_blocks i ~first ~count);
    write_blocks =
      (fun blocks ->
        note (Write_blocks (List.map (fun (ino, b, d) -> (ino, b, Data.length d)) blocks));
        l.Layout.write_blocks blocks);
    truncate =
      (fun i ~blocks -> note (Truncate (i.Inode.ino, scalars i, blocks)); l.Layout.truncate i ~blocks);
    adopt = (fun i ~blocks -> note (Adopt (i.Inode.ino, scalars i, blocks)); l.Layout.adopt i ~blocks);
    sync = (fun () -> note Sync; l.Layout.sync ());
  }

let recording_transport rc d sched (tr : Driver.transport) =
  {
    tr with
    Driver.execute =
      (fun ~queue_empty req ->
        let answers = ref [] in
        let queue_empty () =
          let b = queue_empty () in
          answers := b :: !answers;
          b
        in
        let at = Sched.now sched in
        tr.Driver.execute ~queue_empty req;
        let service = Sched.now sched -. at in
        Queue.push
          { at; op = req.Iorequest.op; lba = req.Iorequest.lba; sectors = req.Iorequest.sectors;
            queue_empty = List.rev !answers; service }
          rc.disk_calls.(d);
        let parts = match req.Iorequest.constituents with [] -> [ req ] | cs -> cs in
        List.iter
          (fun (r : Iorequest.t) ->
            Queue.push
              { sub_at = r.Iorequest.submitted_at; s_op = r.Iorequest.op;
                s_lba = r.Iorequest.lba; s_sectors = r.Iorequest.sectors }
              rc.submits.(d))
          parts);
  }

let disk_model = config.E.disk_model
let spb = E.block_bytes / disk_model.Disk_model.geometry.Geometry.sector_bytes

let make_driver ?registry ~name sched transport =
  Driver.create ?registry ~name
    ~policy:(Iosched.by_name disk_model.Disk_model.geometry config.E.iosched)
    ~coalesce:config.E.coalesce ~max_merge_sectors:(config.E.max_extent * spb) sched transport

(* [Experiment.build_farm] with the two boundaries wrapped. *)
let traced_farm rc sched =
  let registry = Registry.create () in
  let buses =
    Array.init config.E.nbuses (fun b -> Bus.scsi2 ~registry ~name:(Names.bus b) sched)
  in
  let drivers =
    Array.init config.E.ndisks (fun d ->
        let disk =
          Sim_disk.create ~registry ~name:(Names.disk d) sched disk_model
            buses.(d mod config.E.nbuses)
        in
        make_driver ~registry ~name:(Names.driver d) sched
          (recording_transport rc d sched (Driver.sim_transport disk)))
  in
  let volumes =
    Array.init config.E.ndisks (fun d ->
        Lfs.format_and_mount ~registry ~name:(Names.lfs d) ~config:(E.lfs_config_of config d)
          sched drivers.(d) ~block_bytes:E.block_bytes)
  in
  let layout = recording_layout rc (Multiplex.layout volumes) in
  let replacement =
    Capfs_cache.Replacement.by_name ~seed:config.E.seed
      ~capacity:(config.E.cache_mb * 1024 * 1024 / E.block_bytes)
      config.E.replacement
  in
  let fs =
    Capfs.Fsys.create ~registry ~replacement ~cache_config:(E.cache_config_of config) ~layout
      sched
  in
  (Client.create fs, registry)

(* {1 Replaying a recorded stream into one layer alone} *)

let sector_bytes = disk_model.Disk_model.geometry.Geometry.sector_bytes

let capacity_sectors =
  let sched = Sched.create ~clock:`Virtual () in
  Sim_disk.capacity_sectors (Sim_disk.create sched disk_model (Bus.scsi2 sched))

(* A device that takes [service] simulated seconds per request and
   counts the requests the driver was handed. *)
let stub_transport sched ~handed ~service =
  {
    Driver.t_name = "stub";
    sector_bytes;
    total_sectors = capacity_sectors;
    execute =
      (fun ~queue_empty:_ req ->
        handed :=
          !handed
          + (match req.Iorequest.constituents with [] -> 1 | cs -> List.length cs);
        if service > 0. then Sched.sleep sched service;
        if req.Iorequest.op = Iorequest.Read then
          req.Iorequest.data <- Some (Data.sim (req.Iorequest.sectors * sector_bytes));
        Iorequest.complete sched req);
    current_cylinder = (fun () -> 0);
  }

let sleep_until sched at =
  let dt = at -. Sched.now sched in
  if dt > 0. then Sched.sleep sched dt

(* Host ns to run [body] to completion on a fresh virtual scheduler. *)
let timed_sched body =
  let sched = Sched.create ~clock:`Virtual () in
  let t0 = ref 0 in
  ignore (Sched.spawn sched ~name:"layer-replay" (fun () -> body sched t0));
  Sched.run sched;
  Clock.since_ns !t0

(* The layout stream into a fresh LFS farm over instant drivers:
   (host ns, blocks moved, requests handed to the drivers, calls whose
   inode the replay did not know). *)
let replay_layout rc =
  let handed = ref 0 and blocks = ref 0 and unmatched = ref 0 in
  let ns =
    timed_sched (fun sched t0 ->
        let drivers =
          Array.init config.E.ndisks (fun d ->
              make_driver ~name:(Names.driver d) sched (stub_transport sched ~handed ~service:0.))
        in
        let volumes =
          Array.init config.E.ndisks (fun d ->
              Lfs.format_and_mount ~name:(Names.lfs d) ~config:(E.lfs_config_of config d) sched
                drivers.(d) ~block_bytes:E.block_bytes)
        in
        let l = Multiplex.layout volumes in
        let inodes = Hashtbl.create 4096 in
        let with_inode ino sc f =
          let i =
            match Hashtbl.find_opt inodes ino with
            | Some i -> Some i
            | None -> (
              match l.Layout.get_inode ino with
              | Ok (Some i) ->
                Hashtbl.replace inodes ino i;
                Some i
              | _ -> None)
          in
          match i with
          | Some i ->
            i.Inode.kind <- sc.s_kind;
            i.Inode.size <- sc.s_size;
            i.Inode.nlink <- sc.s_nlink;
            i.Inode.uid <- sc.s_uid;
            let a, m, c = sc.s_times in
            i.Inode.atime <- a;
            i.Inode.mtime <- m;
            i.Inode.ctime <- c;
            f i
          | None -> incr unmatched
        in
        handed := 0;
        t0 := Clock.now_ns ();
        Queue.iter
          (function
            | Alloc kind -> (
              match l.Layout.alloc_inode ~kind with
              | Ok i -> Hashtbl.replace inodes i.Inode.ino i
              | Error _ -> incr unmatched)
            | Get ino -> (
              match l.Layout.get_inode ino with
              | Ok (Some i) -> Hashtbl.replace inodes ino i
              | _ -> ())
            | Update (ino, sc) -> with_inode ino sc l.Layout.update_inode
            | Free ino ->
              Hashtbl.remove inodes ino;
              ignore (l.Layout.free_inode ino)
            | Read_block (ino, sc, b) ->
              incr blocks;
              with_inode ino sc (fun i -> ignore (l.Layout.read_block i b))
            | Read_blocks (ino, sc, first, count) ->
              blocks := !blocks + count;
              with_inode ino sc (fun i -> ignore (l.Layout.read_blocks i ~first ~count))
            | Write_blocks ws ->
              blocks := !blocks + List.length ws;
              ignore
                (l.Layout.write_blocks (List.map (fun (ino, b, len) -> (ino, b, Data.sim len)) ws))
            | Truncate (ino, sc, n) -> with_inode ino sc (fun i -> ignore (l.Layout.truncate i ~blocks:n))
            | Adopt (ino, sc, n) -> with_inode ino sc (fun i -> ignore (l.Layout.adopt i ~blocks:n))
            | Sync -> ignore (l.Layout.sync ()))
          rc.layout_calls)
  in
  (ns, !blocks, !handed, !unmatched)

(* One driver's submission stream into a fresh driver over a device
   that takes the recorded mean service time: (host ns, requests). *)
let replay_driver rc d =
  let subs = Array.of_seq (Queue.to_seq rc.submits.(d)) in
  Array.stable_sort (fun a b -> Float.compare a.sub_at b.sub_at) subs;
  let calls = rc.disk_calls.(d) in
  let service =
    if Queue.is_empty calls then 0.
    else Queue.fold (fun a c -> a +. c.service) 0. calls /. float_of_int (Queue.length calls)
  in
  let handed = ref 0 in
  let ns =
    timed_sched (fun sched t0 ->
        let drv = make_driver ~name:"replay" sched (stub_transport sched ~handed ~service) in
        t0 := Clock.now_ns ();
        Array.iter
          (fun s ->
            sleep_until sched s.sub_at;
            let data =
              if s.s_op = Iorequest.Write then Some (Data.sim (s.s_sectors * sector_bytes)) else None
            in
            Driver.submit drv (Iorequest.make sched s.s_op ~lba:s.s_lba ~sectors:s.s_sectors ?data ()))
          subs;
        Driver.drain drv)
  in
  (ns, Array.length subs)

(* One disk's physical request stream into a fresh simulated drive on
   its own bus: (host ns, requests). *)
let replay_disk rc d =
  let calls = rc.disk_calls.(d) in
  let ns =
    timed_sched (fun sched t0 ->
        let disk = Sim_disk.create sched disk_model (Bus.scsi2 sched) in
        t0 := Clock.now_ns ();
        Queue.iter
          (fun c ->
            sleep_until sched c.at;
            let data =
              if c.op = Iorequest.Write then Some (Data.sim (c.sectors * sector_bytes)) else None
            in
            let req = Iorequest.make sched c.op ~lba:c.lba ~sectors:c.sectors ?data () in
            let answers = ref c.queue_empty in
            Sim_disk.execute disk req ~queue_empty:(fun () ->
                match !answers with
                | b :: rest ->
                  answers := rest;
                  b
                | [] -> true))
          calls)
  in
  (ns, Queue.length calls)

(* Host ns per record of one streamed pass over the trace file. *)
let parse_ns_per_record path =
  let cursor = Source.cursor (Source.sprite_file path) in
  let n = ref 0 in
  let (), ns =
    Clock.time (fun () ->
        let rec go () = match cursor () with Some _ -> incr n; go () | None -> () in
        go ())
  in
  (float_of_int ns /. float_of_int (max 1 !n), !n)

(* {1 A run} *)

(* Independent traces per run: a run's figures average over trace
   content instead of resting on one sample of it. Each trace's
   generation is one set-up, and set-up time is their median. *)
let traces = 4

(* One replay of each trace, on the reference host. A run of [seconds]
   replays every trace [seconds / cycle_s] times, whatever the program's
   speed, so two builds are measured on the same records. *)
let cycle_s = 15.

let trace_path k = Printf.sprintf "sprite-1b.%d.trace" k
let trace_seed ~seed k = (seed * traces) + k

(* Generate and write the traces in a child process, so the replaying
   process's peak RSS excludes generation; the child reports each
   trace's host ns. *)
let write_traces_in_child ~seed =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let code =
      try
        let times =
          List.init traces (fun k ->
              snd (Clock.time (fun () -> write_trace ~seed:(trace_seed ~seed k) (trace_path k))))
        in
        let line = String.concat " " (List.map string_of_int times) ^ "\n" in
        ignore (Unix.write_substring w line 0 (String.length line));
        0
      with e ->
        prerr_endline ("perfbench trace writer: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> raise (Pfs_wl.Failed "trace writer failed"));
    List.map float_of_string (String.split_on_char ' ' (String.trim line))

let registry_metrics reg =
  let n = config.E.ndisks in
  let writes = stat_count reg "cache.dirty_blocks" in
  let flushed = stat_count reg "cache.flushed_blocks" in
  let absorbed = stat_count reg "cache.absorbed_writes" in
  let over = stat_count reg "cache.overwrites" in
  let hits = float_of_int (stat_count reg "cache.hits") in
  let misses = float_of_int (stat_count reg "cache.misses") in
  [
    ("cache.hit_ratio", hits /. Float.max 1. (hits +. misses));
    ("cache.flushed_blocks", float_of_int flushed);
    ("cache.absorbed_writes", float_of_int absorbed);
    ("cache.write_stall_s", stat_total reg "cache.write_stall");
    ("cache.conservation_gap", float_of_int (flushed + absorbed + over - writes));
    ("lfs.segments_sealed", float_of_int (sum_count reg n (fun d -> Names.lfs d ^ ".segment_sealed")));
    ("driver.requests", float_of_int (sum_count reg n (fun d -> Names.driver d ^ ".wait")));
    ("driver.merged", float_of_int (sum_count reg n (fun d -> Names.driver d ^ ".merged")));
    ("driver.wait_s", sum_total reg n (fun d -> Names.driver d ^ ".wait"));
    ("disk.service_s", sum_total reg n (fun d -> Names.disk d ^ ".service"));
    ("disk.seek_s", sum_total reg n (fun d -> Names.disk d ^ ".seek"));
    ("disk.rotation_s", sum_total reg n (fun d -> Names.disk d ^ ".rotation"));
    ("bus.acquire_wait_s", sum_total reg config.E.nbuses (fun b -> Names.bus b ^ ".acquire_wait"));
  ]

(* What a run keeps of each round: a round's registry and latency
   samples are dropped as soon as it is checked, so the replaying
   process's peak RSS does not grow with the number of rounds. *)
type summary = {
  s_trace : int;
  s_records : int;
  s_sim : sim;
  s_replay_ns : int;
  s_build_ns : int;
  s_words_per_op : float;
  s_refused : int;
  s_refused_by : (string * int) list;
  s_violations : string list;
}

let summarize ~trace ~records r =
  {
    s_trace = trace;
    s_records = records;
    s_sim = r.sim;
    s_replay_ns = r.replay_ns;
    s_build_ns = r.build_ns;
    s_words_per_op = r.minor_words /. float_of_int r.replay.Replay.operations;
    s_refused = r.replay.Replay.errors;
    s_refused_by = r.replay.Replay.errors_by_kind;
    s_violations = checks ~records r;
  }

let ops_per_s s = float_of_int s.s_records /. (float_of_int s.s_replay_ns /. 1e9)

let main ~seed ~seconds ~traced =
  Out.section "patsy-sprite1b";
  let gen_ns = write_traces_in_child ~seed in
  let records = Array.init traces (fun k -> Check.count_trace_lines (trace_path k)) in
  let path = trace_path 0 in
  Printf.printf
    "inputs: %d sprite-1b traces of %.0f s, %s records; policy ups, %d disks, %d bus, \
     %d MB cache, %d MB NVRAM\n%!"
    traces trace_duration
    (String.concat "+" (Array.to_list (Array.map string_of_int records)))
    config.E.ndisks config.E.nbuses config.E.cache_mb config.E.nvram_mb;
  let replay ?gaps ~farm k =
    let r = round ?gaps ~farm ~source:(Source.sprite_file (trace_path k)) () in
    (r, summarize ~trace:k ~records:records.(k) r)
  in
  let warm, warm_s = replay ~farm:plain_farm 0 in
  (* one round's gaps, exact; each round's percentiles are kept and the
     run reports their medians, so memory stays one round's worth *)
  let gaps = Samples.create ~cap:(Array.fold_left max 0 records) () in
  let p50s = ref [] and p99s = ref [] in
  (* timed rounds: whole cycles through the traces, each from trace 0 *)
  let timed secs =
    let n = traces * max 1 (Float.to_int (Float.round (secs /. cycle_s))) in
    let rec go i acc =
      if i = n then List.rev acc
      else begin
        Samples.clear gaps;
        let _, r = replay ~gaps ~farm:plain_farm (i mod traces) in
        let s = Samples.sorted gaps in
        p50s := Samples.quantile_sorted s 0.5 :: !p50s;
        p99s := Samples.quantile_sorted s 0.99 :: !p99s;
        go (i + 1) (r :: acc)
      end
    in
    go 0 []
  in
  let rounds = timed (if traced then seconds /. 2. else seconds) in
  let all = warm_s :: rounds in
  let violations =
    List.concat_map (fun s -> s.s_violations) all
    @ List.concat
        (List.init traces (fun k ->
             Check.rounds_agree
               (List.filter_map (fun s -> if s.s_trace = k then Some s.s_sim else None) all)))
  in
  let setup_s =
    (Samples.median_of gen_ns +. Samples.median_of (List.map (fun s -> float_of_int s.s_build_ns) all))
    /. 1e9
  in
  let rate = Samples.median_of (List.map ops_per_s rounds) in
  let sim = warm.sim in
  Printf.printf "rounds: %d timed after one warm-up; %d operations, %d skipped, %d refused per round\n"
    (List.length rounds) warm.replay.Replay.operations warm.replay.Replay.skipped_ops
    warm.replay.Replay.errors;
  Printf.printf "simulated: mean %.6g ms, p99 %.6g ms (n=%d, %d beyond), %d blocks flushed\n"
    sim.mean_ms sim.p99_ms
    (Capfs_stats.Sample_set.count warm.replay.Replay.latency)
    (Samples.beyond (Capfs_stats.Sample_set.count warm.replay.Replay.latency) 0.99)
    sim.flushed;
  let e2e =
    [
      Out.metric "ops_per_s" "1/s" rate;
      Out.metric "setup_s" "s" setup_s;
      Out.metric "peak_rss_mb" "MB" (Out.peak_rss_mb "self");
      Out.metric "op_p50_us" "us" (Samples.median_of !p50s);
    ]
  in
  let op_p99 = Samples.median_of !p99s in
  Printf.printf
    "host time between completed ops: p50 and p99 per round over %d samples (%d beyond p99)\n"
    (Samples.count gaps) (Samples.beyond (Samples.count gaps) 0.99);
  Out.print_rounds ~unit_:"ops/s" (List.map ops_per_s rounds) [];
  Out.print_metrics (e2e @ [ Out.metric "op_p99_us" "us" op_p99 ]);
  let per_op_ns s = float_of_int s.s_replay_ns /. float_of_int s.s_records in
  let violations, metrics =
    if not traced then (violations, e2e)
    else begin
      let rc = new_recording config.E.ndisks in
      let tr, tr_s = replay ~farm:(traced_farm rc) 0 in
      let violations =
        violations
        @ tr_s.s_violations
        @ Check.flush_accounting
            ~flushed:(stat_count tr.registry "cache.flushed_blocks")
            ~written:(Queue.fold
                        (fun a -> function Write_blocks ws -> a + List.length ws | _ -> a)
                        0 rc.layout_calls)
        @
        if tr.sim <> sim then [ "the traced farm's simulated figures differ from the plain farm's" ]
        else []
      in
      Out.print_overhead "ops_per_s" ~untraced:rate ~traced:(ops_per_s tr_s);
      let parse_ns, parsed = parse_ns_per_record path in
      let layout_ns, blocks, layout_handed, unmatched = replay_layout rc in
      let sum f = List.fold_left (fun (a, b) (x, y) -> (a + x, b + y)) (0, 0) (List.init config.E.ndisks f) in
      let driver_ns, submits = sum (replay_driver rc) in
      let disk_ns, requests = sum (replay_disk rc) in
      let per a b = float_of_int a /. float_of_int (max 1 b) in
      let driver_per = per driver_ns submits and disk_per = per disk_ns requests in
      (* the layout replay ran over real drivers: take their share out *)
      let layout_per =
        (float_of_int layout_ns -. (driver_per *. float_of_int layout_handed))
        /. float_of_int (max 1 blocks)
      in
      let ops = float_of_int tr.replay.Replay.operations in
      let host_op = Samples.median_of (List.map per_op_ns rounds) in
      let parts =
        [
          ("trace parse (Sprite_format)", parse_ns *. float_of_int parsed /. ops);
          ("layout (Lfs, Multiplex)", layout_per *. float_of_int blocks /. ops);
          ("driver (Driver, Iosched)", driver_per *. float_of_int submits /. ops);
          ("disk model (Sim_disk, Bus)", disk_per *. float_of_int requests /. ops);
        ]
      in
      Printf.printf "layout replay: %d calls, %d blocks, %d driver requests, %d unmatched\n"
        (Queue.length rc.layout_calls) blocks layout_handed unmatched;
      Out.print_stack ~title:"patsy-sprite1b host ns per operation, stacked" ~unit_:"ns"
        ~total:host_op parts;
      let residual = host_op -. List.fold_left (fun a (_, v) -> a +. v) 0. parts in
      let words = Samples.median_of (List.map (fun s -> s.s_words_per_op) rounds) in
      ( violations,
        Out.per_layer_metrics
          (registry_metrics tr.registry
          @ [
              ("op_p99_us", op_p99);
              ("sim_mean_latency_ms", sim.mean_ms);
              ("sim_p99_latency_ms", sim.p99_ms);
              ("sim_blocks_flushed", float_of_int sim.flushed);
              ("trace.parse_ns_per_record", parse_ns);
              ("replay.minor_words_per_op", words);
              ("replay.residual_ns_per_op", residual);
              ("layout.host_ns_per_block", layout_per);
              ("driver.host_ns_per_request", driver_per);
              ("disk.host_ns_per_request", disk_per);
            ]) )
    end
  in
  List.iter
    (fun s ->
      if s.s_refused > 0 then
        Printf.printf "trace %d: %d operations refused (%s)\n" s.s_trace s.s_refused
          (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) s.s_refused_by)))
    all;
  List.iter (fun v -> Printf.printf "CHECK FAILED: %s\n" v) violations;
  if traced then Out.print_metrics metrics;
  let attempted = List.fold_left (fun a s -> a + s.s_records) 0 all in
  let refused = List.fold_left (fun a s -> a + s.s_refused) 0 all in
  List.iter (fun k -> Sys.remove (trace_path k)) (List.init traces Fun.id);
  Out.result_json ~correct:(violations = []) ~attempted ~failed:refused metrics
