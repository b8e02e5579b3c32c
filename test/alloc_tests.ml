(* Allocation budget of the row path.  A cold seq-scan selection, a cold
   Rid-sorted index selection and a cold PHJ join run on a scale-1000
   Derby database, and the minor words allocated inside [Exec.run] are
   divided by the simulated Handles it allocated.  The count is exact and
   repeats from run to run.  The PHJ bound is about 1.5 times its measured
   value (69.1 words, DESIGN.md §4n) and catches a per-row closure, tuple
   or box brought back into the Handle, attribute or projection path.  The
   two selection bounds sit under their measured values (21.8 and 51.4)
   plus one list cell, so a per-Rid list cell, option or singleton array
   brought back into the scan cursor, the index scan or Sort_rids fails
   them. *)

open Tb_query
module Database = Tb_store.Database
module Generator = Tb_derby.Generator
module Sim = Tb_sim.Sim

let built =
  lazy
    (Generator.build
       ~cost:(Tb_sim.Cost_model.scaled 1000)
       (Generator.config ~scale:1000 `Deep Generator.Class_clustered))

let words_per_handle ?force_algo ?force_sorted ?force_seq text =
  let b = Lazy.force built in
  let db = b.Generator.db in
  let root =
    Planner.lower
      (Planner.plan ?force_algo ?force_sorted ?force_seq db
         (Oql_parser.parse text))
  in
  let counters = (Database.sim db).Sim.counters in
  Database.cold_restart db;
  Sim.reset (Database.sim db);
  let w0 = Gc.minor_words () in
  let r = Exec.run db root ~keep:false in
  let words = Gc.minor_words () -. w0 in
  let handles = counters.Tb_sim.Counters.handle_allocs in
  Query_result.dispose r;
  if handles = 0 then Alcotest.fail "the query allocated no Handles";
  words /. float_of_int handles

let check_budget name ~bound words =
  if words > bound then
    Alcotest.failf "%s: %.1f minor words per Handle alloc, budget %.1f" name
      words bound

let test_seq_scan_selection () =
  let n = Array.length (Lazy.force built).Generator.patients in
  check_budget "seq-scan selection" ~bound:24.0
    (words_per_handle ~force_seq:true
       (Printf.sprintf "select pa.age from pa in Patients where pa.mrn < %d"
          (n / 10)))

let test_sorted_index_selection () =
  let n = Array.length (Lazy.force built).Generator.patients in
  check_budget "Rid-sorted index selection" ~bound:53.0
    (words_per_handle ~force_sorted:true
       (Printf.sprintf "select pa.age from pa in Patients where pa.mrn < %d"
          (n / 10)))

let test_phj_join () =
  let b = Lazy.force built in
  let n_pat = Array.length b.Generator.patients
  and n_prov = Array.length b.Generator.providers in
  check_budget "PHJ join" ~bound:104.0
    (words_per_handle ~force_algo:Plan.PHJ
       (Printf.sprintf
          "select [p.name, pa.age] from p in Providers, pa in p.clients where \
           pa.mrn < %d and p.upin < %d"
          (n_pat / 2) (n_prov / 2)))

let suite =
  [
    Alcotest.test_case "seq-scan selection: words per Handle alloc" `Quick
      test_seq_scan_selection;
    Alcotest.test_case "Rid-sorted index selection: words per Handle alloc"
      `Quick test_sorted_index_selection;
    Alcotest.test_case "PHJ join: words per Handle alloc" `Quick test_phj_join;
  ]
