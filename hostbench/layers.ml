(* Replays of single-layer primitives over a workload's own data, for the
   traced run.  Each replay calls one public function of one layer in a
   tight loop over the workload's patients (or its patient extent's pages)
   and reports host ns per call.  A replay is timed over whole loops, the
   best of [rounds]; where the primitive needs a Handle or a pinned page
   first, a loop without the primitive is timed too and subtracted, so the
   figure is the primitive's own cost.

   Replays charge the workload's simulated machine like any other call;
   they run after every checked op, so no golden line ever sees them. *)

module Database = Tb_store.Database
module Btree = Tb_store.Btree
module Codec = Tb_store.Codec
module Schema = Tb_store.Schema
module Value = Tb_store.Value
module Cache_stack = Tb_storage.Cache_stack
module Heap_file = Tb_storage.Heap_file
module Page_id = Tb_storage.Page_id
module Rid = Tb_storage.Rid
module Mem_hash = Tb_query.Mem_hash
module Exchange = Tb_query.Exchange
module Packed = Tb_query.Packed
module Generator = Tb_derby.Generator
module Derby = Tb_derby.Derby

type input = {
  db : Database.t;
  patients : Rid.t array;  (** patient Rids living in [db] *)
  cfg : Generator.config;
  cost : Tb_sim.Cost_model.t;
}

let rounds = 3
let patient = Derby.patient_cls

let timed f =
  let t0 = Span.now () in
  f ();
  Span.now () - t0

let best f =
  let b = ref max_int in
  for _ = 1 to rounds do
    b := min !b (f ())
  done;
  !b

let per calls ns = float_of_int ns /. float_of_int (max 1 calls)

(* Cache_stack.fetch over the patient extent's pages: warm (half the client
   cache, fetched again and again) and cold (after [clear], every page once,
   so each fetch misses both tiers). *)
let storage_fetch inp =
  let stack = Database.stack inp.db in
  let hf = Database.class_file inp.db ~cls:patient in
  let file = Heap_file.file_id hf in
  let pages = Heap_file.page_count hf in
  let warm = max 1 (min pages (Cache_stack.client_capacity stack / 2)) in
  let fetch_range n =
    for i = 0 to n - 1 do
      ignore (Cache_stack.fetch stack (Page_id.make ~file ~index:i))
    done
  in
  let repeats = 20 in
  let hit =
    best (fun () ->
        fetch_range warm;
        timed (fun () ->
            for _ = 1 to repeats do
              fetch_range warm
            done))
  in
  let miss =
    best (fun () ->
        Cache_stack.clear stack;
        timed (fun () -> fetch_range pages))
  in
  Database.cold_restart inp.db;
  [
    ("storage.fetch_hit_ns", per (repeats * warm) hit, "ns");
    ("storage.fetch_miss_ns", per pages miss, "ns");
  ]

(* Handle acquire/unref, and what runs on an acquired Handle: get_att_slot,
   Codec.skip over every attribute, and a packed predicate (seek + eval). *)
let store_handles inp =
  let db = inp.db in
  let rids = inp.patients in
  let n = Array.length rids in
  Database.cold_restart db;
  let slot = Database.attr_slot db ~cls:patient "num" in
  let n_attrs =
    List.length (Schema.find_class (Database.schema db) patient).Schema.attrs
  in
  let prog =
    Packed.compile db ~cls:patient
      ~preds:
        [
          {
            Tb_query.Plan.attr = "num";
            cmp = Tb_query.Oql_ast.Lt;
            const = Value.Int (n / 10);
          };
        ]
      ()
  in
  let reps = 8 in
  let packed_rows = ref 0 in
  let loop body =
    best (fun () ->
        packed_rows := 0;
        timed (fun () ->
            Array.iter
              (fun rid ->
                let h = Database.acquire db rid in
                (match Database.packed_body db h with
                | Some (buf, pos) ->
                    incr packed_rows;
                    body h buf pos
                | None -> ());
                Database.unref db h)
              rids))
  in
  let base = loop (fun _ _ _ -> ()) in
  let get_att =
    loop (fun h _ _ ->
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (Database.get_att_slot db h slot))
        done)
  in
  let skip =
    loop (fun _ buf pos ->
        for _ = 1 to reps do
          let p = ref pos in
          for _ = 1 to n_attrs do
            p := Codec.skip buf ~pos:!p
          done;
          ignore (Sys.opaque_identity !p)
        done)
  in
  let packed =
    loop (fun _ buf pos ->
        for _ = 1 to reps do
          Packed.seek_all prog buf ~pos;
          ignore (Sys.opaque_identity (Packed.eval_preds db prog buf))
        done)
  in
  let calls = !packed_rows * reps in
  Database.cold_restart db;
  [
    ("store.acquire_unref_ns", per n base, "ns");
    ("store.get_att_slot_ns", per calls (get_att - base), "ns");
    ("store.codec_skip_ns", per (calls * n_attrs) (skip - base), "ns");
    ("query.packed_eval_ns", per calls (packed - base), "ns");
  ]

(* Btree.range over the whole num index. *)
let btree_range inp =
  match Database.find_index inp.db ~cls:patient ~attr:"num" with
  | None -> failwith "hostbench: workload database has no num index"
  | Some idx ->
      let tree = idx.Tb_store.Index_def.tree in
      let entries = ref 0 in
      let ns =
        best (fun () ->
            entries := 0;
            timed (fun () -> Btree.range tree (fun _ _ -> incr entries)))
      in
      Database.cold_restart inp.db;
      [ ("store.btree_range_ns_per_entry", per !entries ns, "ns") ]

(* Mem_hash add and find with a 13-byte payload, one key per patient: the
   hash join's build and probe. *)
let query_hash inp =
  let sim = Database.sim inp.db in
  let rids = inp.patients in
  let add = ref max_int and find = ref max_int in
  for _ = 1 to rounds do
    let h = Mem_hash.create sim in
    add :=
      min !add
        (timed (fun () ->
             Array.iteri
               (fun i key -> Mem_hash.add h ~key ~payload_bytes:13 i)
               rids));
    find :=
      min !find
        (timed (fun () ->
             Array.iter
               (fun key -> ignore (Sys.opaque_identity (Mem_hash.find h ~key)))
               rids));
    Mem_hash.dispose h
  done;
  let n = Array.length rids in
  [
    ("query.mem_hash_add_ns", per n !add, "ns");
    ("query.mem_hash_find_ns", per n !find, "ns");
  ]

(* Exchange routing: every patient sent from lane 0 to its 4-way
   destination, then every destination taken. *)
let query_exchange inp =
  let sim = Database.sim inp.db in
  let rids = inp.patients in
  let ns =
    best (fun () ->
        let ex = Exchange.create sim ~shards:4 in
        let t =
          timed (fun () ->
              Array.iteri
                (fun i rid ->
                  let key = Exchange.retag ~shard:0 rid in
                  Exchange.send ex ~src:0 ~dest:(Exchange.dest_of ex key)
                    ~bytes:13 i)
                rids;
              Exchange.flush_source ex ~src:0;
              for dest = 0 to 3 do
                ignore (Sys.opaque_identity (Exchange.take ex ~dest))
              done)
        in
        Exchange.dispose ex;
        t)
  in
  [ ("query.exchange_send_take_ns", per (Array.length rids) ns, "ns") ]

(* The write path, replayed into a fresh database under Standard
   transactions: every patient's value inserted again (commit every 10,000,
   as the loader does), the num index created on it, and the same
   (num, Rid) run built into a B+-tree in bulk and by single inserts. *)
let store_load inp =
  let values =
    Array.map (fun rid -> snd (Database.read_object inp.db rid)) inp.patients
  in
  let sim = Tb_sim.Sim.create ~seed:inp.cfg.Generator.seed inp.cost in
  let db =
    Database.create sim ~schema:Derby.schema
      ~server_pages:inp.cfg.Generator.server_pages
      ~client_pages:inp.cfg.Generator.client_pages
      ~handle_kind:inp.cfg.Generator.handle_kind
      ~txn_mode:Tb_store.Transaction.Standard
      ~zombie_limit:(max 64 inp.cfg.Generator.client_pages)
      ()
  in
  Database.bind_class db ~cls:patient (Database.new_file db ~name:"patients");
  let n = Array.length values in
  let rids = Array.make n Rid.nil in
  let commit_every = 10_000 in
  let insert_ns = ref 0 and commit_ns = ref 0 and commits = ref 0 in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + commit_every) in
    insert_ns :=
      !insert_ns
      + timed (fun () ->
            for j = !lo to hi - 1 do
              rids.(j) <-
                Database.insert_object db ~cls:patient ~indexed:true values.(j)
            done);
    commit_ns := !commit_ns + timed (fun () -> Database.commit db);
    incr commits;
    lo := hi
  done;
  let index_ns =
    timed (fun () ->
        ignore (Database.create_index db ~name:"num" ~cls:patient ~attr:"num"))
  in
  let run =
    Array.mapi (fun j v -> (Value.to_int (Value.field v "num"), rids.(j))) values
  in
  let stack = Database.stack db in
  let bulk_ns =
    timed (fun () -> ignore (Btree.bulk_build stack ~name:"bulk" run))
  in
  let tree = Btree.create stack ~name:"incremental" in
  let insert_tree_ns =
    timed (fun () -> Array.iter (fun (key, rid) -> Btree.insert tree ~key ~rid) run)
  in
  [
    ("store.insert_object_ns", per n !insert_ns, "ns");
    ("store.create_index_ms", float_of_int index_ns /. 1e6, "ms");
    ("store.btree_bulk_build_ns_per_entry", per n bulk_ns, "ns");
    ("store.btree_insert_ns", per n insert_tree_ns, "ns");
    ("store.commit_ms", per !commits !commit_ns /. 1e6, "ms");
  ]

(* Every replay, each under its own top-level span. *)
let measure tr inp =
  List.concat_map
    (fun (name, f) ->
      Span.with_span tr ~op:(-1) ("replay." ^ name) (fun () -> f inp))
    [
      ("storage_fetch", storage_fetch);
      ("store_handles", store_handles);
      ("btree_range", btree_range);
      ("query_hash", query_hash);
      ("query_exchange", query_exchange);
      ("store_load", store_load);
    ]
