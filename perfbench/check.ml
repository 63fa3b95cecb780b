(* Output checks. Each compares a workload's outputs against the
   benchmark's own model or against a property the method must have —
   never against a stored copy of earlier output. A check returns the
   list of violations it found; empty means it passed. *)

let fail fmt = Printf.ksprintf (fun s -> [ s ]) fmt

(* {1 Patsy} *)

(* Records in a Sprite-format trace file, counted from the text itself
   (non-blank, non-comment lines) rather than through the parser. *)
let count_trace_lines path =
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       let l = String.trim (input_line ic) in
       if l <> "" && l.[0] <> '#' then incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

(* Every record of the file was replayed exactly once: operations that
   ran (succeeded or refused) plus skipped trace artifacts. *)
let replay_accounting ~records ~operations ~skipped ~errors =
  let replayed = operations - skipped - errors in
  if replayed < 0 || replayed + skipped + errors <> records then
    fail "replay accounting: %d replayed + %d skipped + %d refused <> %d records"
      replayed skipped errors records
  else []

(* Every block the cache counts as flushed reached the layout: the
   cache's [flushed_blocks] equals the blocks the benchmark saw cross
   [Layout.write_blocks]. (The cache's own flushed + absorbed +
   overwritten do not sum to its writes: see [cache.conservation_gap].) *)
let flush_accounting ~flushed ~written =
  if flushed <> written then
    fail "flush accounting: cache flushed %d blocks, the layout was given %d" flushed written
  else []

let clean_after_sync ~dirty =
  if dirty <> 0 then fail "%d dirty blocks left after the final sync" dirty
  else []

(* Virtual-time replay is deterministic: every round of a run reports
   the very same simulated figures. *)
let rounds_agree figures =
  match figures with
  | [] | [ _ ] -> []
  | first :: rest ->
    if List.for_all (fun f -> f = first) rest then []
    else fail "simulated figures differ between rounds of one run"

(* {1 PFS}

   Every block a client writes carries a stamp: the writer's id, the
   file and block it belongs to, and a sequence number drawn from one
   counter per run, so stamps order every write the benchmark made. *)

let block_bytes = 4096

type stamp = { writer : int; file : int; block : int; seq : int }

let stamp_text s =
  Printf.sprintf "w=%d f=%d b=%d s=%d;" s.writer s.file s.block s.seq

let block_of_stamp s =
  let head = stamp_text s in
  let b = Bytes.make block_bytes '.' in
  Bytes.blit_string head 0 b 0 (String.length head);
  Bytes.to_string b

let parse_stamp block =
  match
    Scanf.sscanf block "w=%d f=%d b=%d s=%d;%n" (fun writer file block seq n ->
        ({ writer; file; block; seq }, n))
  with
  | s, n ->
    (* the filler must be intact too: a flipped byte anywhere fails *)
    let ok = ref (String.length block = block_bytes) in
    for i = n to String.length block - 1 do
      if block.[i] <> '.' then ok := false
    done;
    if !ok then Some s else None
  | exception _ -> None

(* The file contents a write of [seq] by [writer] leaves. *)
let file_image ~writer ~file ~blocks ~seq =
  String.concat ""
    (List.init blocks (fun block -> block_of_stamp { writer; file; block; seq }))

(* Decode a whole-file read into its one version: every block must
   carry a well-formed stamp of this file, in order, all from the same
   write. *)
let read_version ~file ~blocks data =
  if String.length data <> blocks * block_bytes then
    Error (Printf.sprintf "short read: %d bytes" (String.length data))
  else begin
    let stamps =
      List.init blocks (fun i ->
          parse_stamp (String.sub data (i * block_bytes) block_bytes))
    in
    match stamps with
    | Some s0 :: _
      when List.for_all
             (function
               | Some s -> s.writer = s0.writer && s.seq = s0.seq && s.file = file
               | None -> false)
             stamps
           && List.for_all2
                (fun st i -> match st with Some s -> s.block = i | None -> false)
                stamps (List.init blocks Fun.id) ->
      Ok (s0.writer, s0.seq)
    | _ -> Error "torn or corrupt block stamps"
  end

(* The benchmark's model of what the server holds: per file, the last
   acknowledged write (writer, seq), plus every write ever acknowledged
   so a read can be matched to the write it returns. *)
module Model = struct
  type t = {
    last : (int * int) array;
    acked : (int, int * int) Hashtbl.t;  (* seq -> (writer, file) *)
  }

  let create ~files ~loader_seq =
    let acked = Hashtbl.create 4096 in
    for f = 0 to files - 1 do
      Hashtbl.replace acked (loader_seq f) (0, f)
    done;
    { last = Array.init files (fun f -> (0, loader_seq f)); acked }

  let ack t ~file ~writer ~seq =
    t.last.(file) <- (writer, seq);
    Hashtbl.replace t.acked seq (writer, file)

  let last t file = t.last.(file)
end

(* Per-op RPC: every read equals the model's last acknowledged write. *)
let rpc_read model ~file ~blocks data =
  match read_version ~file ~blocks data with
  | Error e -> fail "file %d: %s" file e
  | Ok v ->
    let w, s = Model.last model file in
    if v <> (w, s) then
      fail "file %d: read w=%d s=%d, model says w=%d s=%d" file (fst v) (snd v) w s
    else []

(* Leased clients: a read returns some acknowledged write of this file,
   never older than a version this client has already seen (which
   includes its own writes). [seen] is the client's floor per file and
   advances on success. Returns whether the read was stale against the
   model (another client's newer write not yet visible) — allowed until
   the pushed invalidation lands, and counted. *)
let leased_read model ~seen ~file ~blocks data =
  match read_version ~file ~blocks data with
  | Error e -> (fail "file %d: %s" file e, false)
  | Ok (w, s) -> (
    match Hashtbl.find_opt model.Model.acked s with
    | Some (w', f') when w' = w && f' = file ->
      if s < seen.(file) then
        ( fail "file %d: read s=%d after having seen s=%d" file s seen.(file),
          false )
      else begin
        seen.(file) <- s;
        ([], s <> snd (Model.last model file))
      end
    | _ -> (fail "file %d: read w=%d s=%d was never acknowledged" file w s, false))
