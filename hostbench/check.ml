(* Output checks.  A query op's observable output is its simulated line: the
   same format, field for field, as the scale-40 golden fingerprint
   (test/counter_golden_scale40.txt), so an op run here is directly
   comparable to the line with the same tag there.  Tb_core.Fingerprint
   keeps its line writer private, so the format is restated here; any
   drift between the two fails every golden-seed op. *)

module Sim = Tb_sim.Sim
module Counters = Tb_sim.Counters

let golden_path = "test/counter_golden_scale40.txt"

(* The seed the golden file was recorded at (Generator.config's default). *)
let golden_seed = 1997

let line ~tag (sim : Sim.t) rows =
  let c = sim.Sim.counters in
  let recovery =
    if
      c.Counters.wal_appends = 0 && c.Counters.redo_pages = 0
      && c.Counters.undo_pages = 0
      && c.Counters.read_retries = 0
    then ""
    else
      Printf.sprintf " wal=%d redo=%d undo=%d rr=%d" c.Counters.wal_appends
        c.Counters.redo_pages c.Counters.undo_pages c.Counters.read_retries
  in
  let chaos =
    if
      c.Counters.rpc_timeouts = 0 && c.Counters.rpc_retries = 0
      && c.Counters.failovers = 0
    then ""
    else
      Printf.sprintf " rpct=%d rpcr=%d fo=%d" c.Counters.rpc_timeouts
        c.Counters.rpc_retries c.Counters.failovers
  in
  Printf.sprintf
    "%s | elapsed=%Lx rows=%d dr=%d dw=%d rpc=%d rpcp=%d sh=%d sm=%d ch=%d \
     cm=%d ha=%d hf=%d hh=%d ga=%d cmp=%d hi=%d hp=%d sc=%d ra=%d sw=%d \
     peak=%d%s%s"
    tag
    (Int64.bits_of_float (Sim.elapsed_s sim))
    rows c.Counters.disk_reads c.Counters.disk_writes c.Counters.rpc_count
    c.Counters.rpc_pages c.Counters.server_hits c.Counters.server_misses
    c.Counters.client_hits c.Counters.client_misses c.Counters.handle_allocs
    c.Counters.handle_frees c.Counters.handle_hits c.Counters.get_atts
    c.Counters.comparisons c.Counters.hash_inserts c.Counters.hash_probes
    c.Counters.sort_comparisons c.Counters.result_appends
    c.Counters.swap_faults sim.Sim.peak_working_bytes recovery chaos

(* tag -> whole line.  Raises [Sys_error] when the file is missing. *)
let load_golden () =
  let ic = open_in golden_path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let tbl = Hashtbl.create 128 in
      (try
         while true do
           let l = input_line ic in
           match String.index_opt l '|' with
           | Some i when i > 0 ->
               Hashtbl.replace tbl (String.sub l 0 (i - 1)) l
           | _ -> ()
         done
       with End_of_file -> ());
      tbl)

let rows_of_line l =
  List.find_map
    (fun w ->
      if String.starts_with ~prefix:"rows=" w then
        int_of_string_opt (String.sub w 5 (String.length w - 5))
      else None)
    (String.split_on_char ' ' l)
