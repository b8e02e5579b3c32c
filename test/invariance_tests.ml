(* The regression gate behind the hot-path overhaul: every real-time
   optimisation (lazy record decode, slot-compiled attributes, packed page
   ids, the intrusive LRU) must be invisible to the simulated cost model.
   The golden file was captured from the engine before the optimisations
   landed; re-running the same fig6/fig7/fig9/fig11-fig15 workload must
   reproduce it bit for bit — the simulated clock is compared as raw float
   bits, alongside every Counters field, the result cardinality and the
   simulated memory peak.

   To re-capture after an *intentional* cost-model change:
     dune exec bench/fingerprint_dump.exe > test/counter_golden_scale40.txt *)

let golden_file = "counter_golden_scale40.txt"

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let test_counters_match_golden () =
  let golden = read_lines golden_file in
  let got = Tb_core.Fingerprint.collect ~scale:40 () in
  Alcotest.(check int) "fingerprint line count" (List.length golden)
    (List.length got);
  List.iter2
    (fun want have -> Alcotest.(check string) "fingerprint line" want have)
    golden got

(* Process-level state hygiene (treelint rule R4's dynamic counterpart):
   running the whole workload twice in one process must give bit-identical
   fingerprints.  Any toplevel ref/table that survives a run and leaks into
   the next — a forgotten spill counter, a stale cache — shows up here. *)
let test_back_to_back_runs_identical () =
  let first = Tb_core.Fingerprint.collect ~scale:10 () in
  let second = Tb_core.Fingerprint.collect ~scale:10 () in
  Alcotest.(check int) "fingerprint line count" (List.length first)
    (List.length second);
  List.iter2
    (fun want have -> Alcotest.(check string) "fingerprint line" want have)
    first second

(* The sharded engine at S=1 must be the unsharded engine, bit for bit:
   one-shard sharded runs of the selection workload reproduce the golden
   file's "sel " lines byte-identically — same build charge stream, same
   plans (no Gather/Shard_lane at S=1), same clock bits. *)
let test_sharded_s1_matches_golden () =
  let is_sel l = String.length l >= 4 && String.equal (String.sub l 0 4) "sel " in
  let golden = List.filter is_sel (read_lines golden_file) in
  let got = Tb_core.Fingerprint.sharded_selection_lines ~shards:1 ~scale:40 () in
  Alcotest.(check int) "selection line count" (List.length golden)
    (List.length got);
  List.iter2
    (fun want have -> Alcotest.(check string) "S=1 sharded line" want have)
    golden got

(* Load-time charges and durable page bytes.  The counter golden file
   only sees the figure queries run on freshly built databases; this one
   pins the builds themselves — the simulated load time of the four
   Section 3.2 loading configurations (the unindexed one exercises the
   header-growth rewrite of every object) and of the six shape x
   organization builds, plus each disk's durable digest.  A write-path
   change may move host cost, never one of these lines.

   To re-capture after an *intentional* cost-model or page-format change:
     dune exec bench/fingerprint_dump.exe -- --load > test/load_golden_scale40.txt *)
let load_golden_file = "load_golden_scale40.txt"

let test_load_matches_golden () =
  let golden = read_lines load_golden_file in
  let got = Tb_core.Fingerprint.load_lines ~scale:40 () in
  Alcotest.(check int) "load line count" (List.length golden) (List.length got);
  List.iter2
    (fun want have -> Alcotest.(check string) "load line" want have)
    golden got

let suite =
  [
    Alcotest.test_case "counters: golden fingerprint (scale 40)" `Slow
      test_counters_match_golden;
    Alcotest.test_case "counters: back-to-back runs are identical" `Slow
      test_back_to_back_runs_identical;
    Alcotest.test_case "counters: S=1 sharded engine matches golden" `Slow
      test_sharded_s1_matches_golden;
    Alcotest.test_case "load: charges and durable pages match golden (scale 40)"
      `Slow test_load_matches_golden;
  ]
