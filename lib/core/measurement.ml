module Database = Tb_store.Database
module Sim = Tb_sim.Sim
module Counters = Tb_sim.Counters

type t = {
  label : string;
  elapsed_s : float;
  result_count : int;
  disk_reads : int;
  disk_writes : int;
  rpcs : int;
  rpc_pages : int;
  sc2cc_reads : int;
  client_missrate : float;
  server_missrate : float;
  handle_allocs : int;
  handle_frees : int;
  handle_hits : int;
  comparisons : int;
  sort_comparisons : int;
  hash_inserts : int;
  hash_probes : int;
  result_appends : int;
  swap_faults : int;
  peak_working_bytes : int;
}

let run_cold ?organization ?force_algo ?force_sorted ?force_seq ~label db
    oql =
  let sim = Database.sim db in
  Database.cold_restart db;
  Sim.reset sim;
  let result =
    Tb_query.Planner.run ?organization ?force_algo ?force_sorted
      ?force_seq ~keep:false db oql
  in
  let result_count = Tb_query.Query_result.count result in
  Tb_query.Query_result.dispose result;
  let c = sim.Sim.counters in
  {
    label;
    elapsed_s = Sim.elapsed_s sim;
    result_count;
    disk_reads = c.Counters.disk_reads;
    disk_writes = c.Counters.disk_writes;
    rpcs = c.Counters.rpc_count;
    rpc_pages = c.Counters.rpc_pages;
    sc2cc_reads = c.Counters.rpc_pages;
    client_missrate = Counters.client_miss_rate c;
    server_missrate = Counters.server_miss_rate c;
    handle_allocs = c.Counters.handle_allocs;
    handle_frees = c.Counters.handle_frees;
    handle_hits = c.Counters.handle_hits;
    comparisons = c.Counters.comparisons;
    sort_comparisons = c.Counters.sort_comparisons;
    hash_inserts = c.Counters.hash_inserts;
    hash_probes = c.Counters.hash_probes;
    result_appends = c.Counters.result_appends;
    swap_faults = c.Counters.swap_faults;
    peak_working_bytes = sim.Sim.peak_working_bytes;
  }

let to_observation t ~numtest ~query_text ~selectivity ~database ~cluster ~algo
    ~server_cache_pages ~client_cache_pages =
  {
    Tb_statdb.Stat_store.numtest;
    query_text;
    projection = "tuple";
    selectivity;
    cold = true;
    database;
    cluster;
    algo;
    server_cache_pages;
    client_cache_pages;
    elapsed_s = t.elapsed_s;
    rpcs = t.rpcs;
    rpc_pages = t.rpc_pages;
    d2sc_reads = t.disk_reads;
    sc2cc_reads = t.sc2cc_reads;
    cc_missrate = t.client_missrate;
    sc_missrate = t.server_missrate;
    cc_pagefaults = t.swap_faults;
  }

let pp ppf t =
  Format.fprintf ppf
    "%s: %.2fs, %d rows, %d reads, %d rpcs, %d/%d handles (%d hits), %d swap \
     faults, peak %.1f MB"
    t.label t.elapsed_s t.result_count t.disk_reads t.rpcs t.handle_allocs
    t.handle_frees t.handle_hits t.swap_faults
    (float_of_int t.peak_working_bytes /. 1048576.0)
