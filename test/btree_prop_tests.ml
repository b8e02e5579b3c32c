(* Property tests for the B+-tree index layer: random operation sequences
   checked against a sorted-list reference model, deterministic split and
   rebalance boundary cases, leaf-chain range iteration, and the bulk-build
   equivalence guarantee — same tree, same search results, and bit-identical
   simulated charges as the incremental build it replaces. *)

open Tb_store
module Rid = Tb_storage.Rid

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh_stack () =
  let sim = Tb_sim.Sim.create (Tb_sim.Cost_model.scaled 100) in
  let disk = Tb_storage.Disk.create sim in
  ( sim,
    Tb_storage.Cache_stack.create sim disk ~server_pages:64 ~client_pages:256
  )

let rid i = Rid.make ~file:0 ~page:(i / 8) ~slot:(i mod 8)

let cmp_pair (k1, r1) (k2, r2) =
  let c = compare (k1 : int) k2 in
  if c <> 0 then c else Rid.compare r1 r2

(* Reference model: a sorted (key, rid) list with set semantics — exactly
   the contract btree.mli documents. *)
let model_insert m p =
  if List.exists (fun q -> cmp_pair p q = 0) m then m
  else List.sort cmp_pair (p :: m)

let model_delete m p = List.filter (fun q -> cmp_pair p q <> 0) m
let model_mem m p = List.exists (fun q -> cmp_pair p q = 0) m

let model_search m k =
  List.filter_map (fun (k', r) -> if k' = k then Some r else None) m

let dump t =
  let acc = ref [] in
  Btree.iter t (fun k r -> acc := (k, r) :: !acc);
  List.rev !acc

let same_rids = List.for_all2 (fun a b -> Rid.compare a b = 0)

(* --- random operations vs the reference model --- *)

let prop_vs_model =
  QCheck.Test.make ~name:"btree: random ops agree with sorted-map model"
    ~count:30
    QCheck.(list_of_size (Gen.int_range 100 400) (pair (int_range 0 60) bool))
    (fun ops ->
      let _sim, stack = fresh_stack () in
      let t = Btree.create stack ~name:"prop" in
      let model = ref [] in
      List.iteri
        (fun i (key, ins) ->
          let p = (key, rid (i mod 64)) in
          if ins then begin
            Btree.insert t ~key ~rid:(snd p);
            model := model_insert !model p
          end
          else begin
            let expected = model_mem !model p in
            let found = Btree.delete t ~key ~rid:(snd p) in
            if found <> expected then
              QCheck.Test.fail_reportf "delete %d reported %b, model %b" key
                found expected;
            model := model_delete !model p
          end;
          if Btree.entry_count t <> List.length !model then
            QCheck.Test.fail_reportf "entry_count %d, model %d"
              (Btree.entry_count t) (List.length !model))
        ops;
      Btree.check_invariants t;
      (* Full contents in order, then per-key search results. *)
      if dump t <> !model then QCheck.Test.fail_report "iter disagrees";
      for key = 0 to 60 do
        if not (same_rids (Btree.search t ~key) (model_search !model key))
        then QCheck.Test.fail_reportf "search %d disagrees" key
      done;
      true)

(* --- split boundaries --- *)

(* leaf_cap is 200: 201 sorted inserts force exactly one leaf split. *)
let test_leaf_split_boundary () =
  let _sim, stack = fresh_stack () in
  let t = Btree.create stack ~name:"leaf" in
  for i = 0 to 200 do
    Btree.insert t ~key:i ~rid:(rid i)
  done;
  Btree.check_invariants t;
  check_int "all entries" 201 (Btree.entry_count t);
  check_int "iter count" 201 (List.length (dump t));
  List.iteri
    (fun i (k, r) ->
      check_int "sorted key" i k;
      check_bool "rid kept" true (Rid.compare r (rid i) = 0))
    (dump t)

(* internal_cap is 150: a sorted load large enough to split ~160 leaves off
   the rightmost path forces an internal (root) split and a height-3 tree;
   draining a prefix then exercises borrow/merge and the height shrink. *)
let test_internal_split_and_drain () =
  let _sim, stack = fresh_stack () in
  let t = Btree.create stack ~name:"deep" in
  let n = 16_384 in
  for i = 0 to n - 1 do
    Btree.insert t ~key:i ~rid:(rid i)
  done;
  Btree.check_invariants t;
  check_int "all entries" n (Btree.entry_count t);
  check_bool "spot search" true
    (same_rids (Btree.search t ~key:12_345) [ rid 12_345 ]);
  (* Delete a contiguous prefix: every removal lands in the leftmost leaf,
     repeatedly driving it under min occupancy — borrows, merges and
     eventually root height shrinks. *)
  for i = 0 to (3 * n / 4) - 1 do
    check_bool "prefix delete found" true (Btree.delete t ~key:i ~rid:(rid i))
  done;
  Btree.check_invariants t;
  check_int "remaining" (n / 4) (Btree.entry_count t);
  check_bool "deleted gone" true (Btree.search t ~key:0 = []);
  check_bool "survivor intact" true
    (same_rids (Btree.search t ~key:(n - 1)) [ rid (n - 1) ]);
  (* Drain completely: the tree must collapse back to a single empty leaf. *)
  for i = 3 * n / 4 to n - 1 do
    ignore (Btree.delete t ~key:i ~rid:(rid i))
  done;
  Btree.check_invariants t;
  check_int "empty" 0 (Btree.entry_count t)

(* --- leaf-chain range iteration --- *)

let test_range_over_leaf_chain () =
  let _sim, stack = fresh_stack () in
  let t = Btree.create stack ~name:"range" in
  (* Insert in a scattered order so the leaf chain is built by splits. *)
  for i = 0 to 999 do
    let k = i * 617 mod 1000 in
    Btree.insert t ~key:k ~rid:(rid k)
  done;
  let seen = ref [] in
  Btree.range t ~lo:250 ~hi:750 (fun k r -> seen := (k, r) :: !seen);
  let seen = List.rev !seen in
  check_int "range size" 500 (List.length seen);
  List.iteri
    (fun i (k, r) ->
      check_int "range key in order" (250 + i) k;
      check_bool "range rid" true (Rid.compare r (rid (250 + i)) = 0))
    seen

(* --- bulk build: same tree, same charges --- *)

(* The incremental reference bulk_add promises to match: sort the run, then
   loop the ordinary insert. *)
let build_incremental run =
  let sim, stack = fresh_stack () in
  let t = Btree.create stack ~name:"idx" in
  let sorted = Array.copy run in
  Array.sort cmp_pair sorted;
  Array.iter (fun (key, rid) -> Btree.insert t ~key ~rid) sorted;
  (sim, t)

let build_bulk run =
  let sim, stack = fresh_stack () in
  (sim, Btree.bulk_build stack ~name:"idx" run)

let assert_equiv label run =
  let sim_a, a = build_incremental run in
  let sim_b, b = build_bulk run in
  (* Charges first: [dump], [search] and [check_invariants] below fetch
     pages and so charge the sims themselves.  The bulk path must have been
     invisible to the simulation up to this point — every counter equal and
     the clock bit-identical (same float additions in the same order). *)
  check_bool (label ^ ": counters") true
    (sim_a.Tb_sim.Sim.counters = sim_b.Tb_sim.Sim.counters);
  check_bool (label ^ ": clock bits") true
    (Int64.bits_of_float (Tb_sim.Sim.elapsed_s sim_a)
    = Int64.bits_of_float (Tb_sim.Sim.elapsed_s sim_b));
  Btree.check_invariants b;
  check_int (label ^ ": entry_count") (Btree.entry_count a)
    (Btree.entry_count b);
  check_bool (label ^ ": contents") true (dump a = dump b);
  Array.iter
    (fun (key, _) ->
      check_bool
        (Printf.sprintf "%s: search %d" label key)
        true
        (same_rids (Btree.search a ~key) (Btree.search b ~key)))
    run

let test_bulk_equivalence () =
  assert_equiv "empty" [||];
  assert_equiv "single" [| (7, rid 7) |];
  assert_equiv "sorted unique" (Array.init 2000 (fun i -> (i, rid i)));
  assert_equiv "unsorted"
    (Array.init 2000 (fun i -> (i * 617 mod 2000, rid (i mod 512))));
  assert_equiv "duplicate keys, distinct rids"
    (Array.init 1500 (fun i -> (i / 3, rid i)));
  assert_equiv "exact duplicate pairs"
    (Array.init 1200 (fun i -> (i / 2, rid (i / 2))))

(* bulk_add into a non-empty tree must take the interleaving-safe path and
   still match the incremental reference exactly. *)
let test_bulk_into_nonempty () =
  let seed = Array.init 50 (fun i -> ((i * 40) + 7, rid i)) in
  let run = Array.init 800 (fun i -> (i * 617 mod 1000, rid (i mod 256))) in
  let sorted = Array.copy run in
  Array.sort cmp_pair sorted;
  let sim_a, a =
    let sim, stack = fresh_stack () in
    let t = Btree.create stack ~name:"idx" in
    Array.iter (fun (key, rid) -> Btree.insert t ~key ~rid) seed;
    Array.iter (fun (key, rid) -> Btree.insert t ~key ~rid) sorted;
    (sim, t)
  in
  let sim_b, b =
    let sim, stack = fresh_stack () in
    let t = Btree.create stack ~name:"idx" in
    Array.iter (fun (key, rid) -> Btree.insert t ~key ~rid) seed;
    Btree.bulk_add t run;
    (sim, t)
  in
  check_bool "nonempty: counters" true
    (sim_a.Tb_sim.Sim.counters = sim_b.Tb_sim.Sim.counters);
  check_bool "nonempty: clock bits" true
    (Int64.bits_of_float (Tb_sim.Sim.elapsed_s sim_a)
    = Int64.bits_of_float (Tb_sim.Sim.elapsed_s sim_b));
  Btree.check_invariants b;
  check_int "nonempty: entry_count" (Btree.entry_count a) (Btree.entry_count b);
  check_bool "nonempty: contents" true (dump a = dump b)

let suite =
  [
    Prop.to_alcotest prop_vs_model;
    Alcotest.test_case "leaf split at capacity boundary" `Quick
      test_leaf_split_boundary;
    Alcotest.test_case "internal split, borrow/merge, height shrink" `Quick
      test_internal_split_and_drain;
    Alcotest.test_case "range iteration across the leaf chain" `Quick
      test_range_over_leaf_chain;
    Alcotest.test_case "bulk build matches incremental build and charges"
      `Quick test_bulk_equivalence;
    Alcotest.test_case "bulk add into non-empty tree stays equivalent" `Quick
      test_bulk_into_nonempty;
  ]
