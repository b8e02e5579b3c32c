(* Tests for the Derby workload generator: cardinalities, key properties,
   and the physical layouts that drive Figures 11-15. *)

open Tb_derby
module Database = Tb_store.Database
module Value = Tb_store.Value
module Rid = Tb_storage.Rid

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let build ?(organization = Generator.Class_clustered) ?(n_providers = 40)
    ?(fanout = 5) ?(txn_mode = Tb_store.Transaction.Load_off)
    ?(indexed_creation = true) () =
  let cfg =
    {
      (Generator.config ~scale:100 `Deep organization) with
      Generator.n_providers;
      fanout;
      txn_mode;
      indexed_creation;
    }
  in
  Generator.build ~cost:(Tb_sim.Cost_model.scaled 1000) cfg

(* The hand-written pad16 is Printf's %016d, digit for digit, from zero
   through every power-of-ten boundary to the widest ints (which it hands
   to the formatter). *)
let test_pad16_matches_printf () =
  let powers = List.init 19 (fun k -> int_of_float (10. ** float_of_int k)) in
  let cases =
    [ 0; 1; 7; 39; 40; 99; 12345; max_int; max_int - 1; -1; -42; min_int ]
    @ List.concat_map (fun p -> [ p - 1; p; p + 1 ]) powers
  in
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "pad16 %d" n)
        (Printf.sprintf "%016d" n) (Derby.pad16 n))
    cases

let test_cardinalities () =
  let b = build () in
  let db = b.Generator.db in
  check_int "providers" 40 (Database.cardinality db ~cls:Derby.provider_cls);
  check_int "patients" 200 (Database.cardinality db ~cls:Derby.patient_cls);
  check_int "provider rids" 40 (Array.length b.Generator.providers);
  check_int "patient rids" 200 (Array.length b.Generator.patients)

let test_relationship_consistency () =
  (* clients and primary_care_provider are mutual inverses, every provider
     has exactly [fanout] patients. *)
  let b = build () in
  let db = b.Generator.db in
  Array.iteri
    (fun i prid ->
      let _, pv = Database.read_object db prid in
      check_int "upin is logical id" i (Value.to_int (Value.field pv "upin"));
      let clients = Value.field pv "clients" in
      check_int "exact fanout" 5 (Database.set_length db clients);
      Database.iter_set db clients (fun r ->
          let _, cv = Database.read_object db (Value.to_ref r) in
          check_bool "inverse points back" true
            (Rid.equal prid (Value.to_ref (Value.field cv "primary_care_provider")))))
    b.Generator.providers

let test_num_is_permutation () =
  let b = build () in
  let db = b.Generator.db in
  let seen = Array.make 200 false in
  Array.iter
    (fun rid ->
      let _, v = Database.read_object db rid in
      let num = Value.to_int (Value.field v "num") in
      check_bool "in range" true (num >= 0 && num < 200);
      check_bool "no duplicate" false seen.(num);
      seen.(num) <- true)
    b.Generator.patients

let test_determinism () =
  let a = build () and b = build () in
  let digest (x : Generator.built) =
    Array.map Rid.to_string x.Generator.patients
  in
  check_bool "same seed, same database" true (digest a = digest b)

let test_wide_shape_spills_clients () =
  let cfg =
    {
      (Generator.config ~scale:100 `Wide Generator.Class_clustered) with
      Generator.n_providers = 3;
    }
  in
  let b = Generator.build ~cost:(Tb_sim.Cost_model.scaled 1000) cfg in
  let db = b.Generator.db in
  let _, pv = Database.read_object db b.Generator.providers.(0) in
  (match Value.field pv "clients" with
  | Value.Big_set _ -> ()
  | _ -> Alcotest.fail "1:1000 clients should spill");
  check_int "still iterable" 1000 (Database.set_length db (Value.field pv "clients"))

let test_organizations_layout () =
  (* Class clustering: separate files; patients' physical order follows
     mrn, so the mrn index is clustered. *)
  let cc = build ~organization:Generator.Class_clustered () in
  check_bool "class: separate files" true
    (Tb_storage.Heap_file.file_id
       (Database.class_file cc.Generator.db ~cls:Derby.provider_cls)
    <> Tb_storage.Heap_file.file_id
         (Database.class_file cc.Generator.db ~cls:Derby.patient_cls));
  check_bool "class: mrn clustered" true
    (Tb_store.Index_def.is_clustered cc.Generator.mrn_index);
  check_bool "class: num unclustered" true
    (not
       (Tb_store.Index_def.is_clustered (Option.get cc.Generator.num_index)));
  (* Composition: one shared file; the mrn index loses its clustering
     because patients are placed by owner, not by logical id. *)
  let comp = build ~organization:Generator.Composition () in
  check_bool "composition: shared file" true
    (Tb_storage.Heap_file.file_id
       (Database.class_file comp.Generator.db ~cls:Derby.provider_cls)
    = Tb_storage.Heap_file.file_id
        (Database.class_file comp.Generator.db ~cls:Derby.patient_cls));
  check_bool "composition: mrn no longer clustered" true
    (comp.Generator.mrn_index.Tb_store.Index_def.clustering
    < cc.Generator.mrn_index.Tb_store.Index_def.clustering);
  (* Composition adjacency: a provider's patients sit right after it. *)
  let db = comp.Generator.db in
  Array.iteri
    (fun i prid ->
      let _, pv = Database.read_object db prid in
      Database.iter_set db (Value.field pv "clients") (fun r ->
          let crid = Value.to_ref r in
          check_bool
            (Printf.sprintf "provider %d's patients follow it" i)
            true
            (Rid.compare prid crid < 0
            &&
            (* ... and come before the next provider. *)
            (i = Array.length comp.Generator.providers - 1
            || Rid.compare crid comp.Generator.providers.(i + 1) < 0))))
    comp.Generator.providers

let test_assoc_ordered_layout () =
  (* Separate files, but patients stored in provider order: consecutive
     patients of one provider are physically adjacent. *)
  let b = build ~organization:Generator.Assoc_ordered () in
  let db = b.Generator.db in
  check_bool "separate files" true
    (Tb_storage.Heap_file.file_id (Database.class_file db ~cls:Derby.provider_cls)
    <> Tb_storage.Heap_file.file_id (Database.class_file db ~cls:Derby.patient_cls));
  (* Walk the patients file and check providers appear in blocks. *)
  let last_provider = ref Rid.nil in
  let switches = ref 0 in
  Tb_storage.Heap_file.scan
    (Database.class_file db ~cls:Derby.patient_cls)
    (fun _ _ -> ());
  Database.scan_extent db ~cls:Derby.patient_cls (fun rid ->
      let _, v = Database.read_object db rid in
      let p = Value.to_ref (Value.field v "primary_care_provider") in
      if not (Rid.equal p !last_provider) then begin
        incr switches;
        last_provider := p
      end);
  check_int "one block per provider" 40 !switches

let test_randomized_interleaves () =
  let b = build ~organization:Generator.Randomized ~n_providers:30 ~fanout:3 () in
  let db = b.Generator.db in
  (* Both classes in one file, and class runs are short (interleaved). *)
  let kinds = ref [] in
  let heap = Database.class_file db ~cls:Derby.provider_cls in
  Tb_storage.Heap_file.scan heap (fun _ body ->
      let header, _ = Tb_store.Obj_header.decode body ~pos:0 in
      kinds := Tb_store.Obj_header.class_id header :: !kinds);
  let kinds = Array.of_list (List.rev !kinds) in
  check_int "all objects in one file" 120 (Array.length kinds);
  let runs = ref 1 in
  for i = 1 to Array.length kinds - 1 do
    if kinds.(i) <> kinds.(i - 1) then incr runs
  done;
  check_bool "classes interleave" true (!runs > 10)

let test_standard_mode_load_commits () =
  (* Loading under full transactions works (commits bound the uncommitted
     set) and costs more simulated time than transaction-off mode. *)
  let slow =
    build ~txn_mode:Tb_store.Transaction.Standard ~n_providers:40 ~fanout:5 ()
  in
  let fast = build ~txn_mode:Tb_store.Transaction.Load_off () in
  check_bool "standard-mode load is slower" true
    (slow.Generator.load_seconds > fast.Generator.load_seconds)

let test_unindexed_creation_costs_more_at_index_time () =
  let clean = build ~indexed_creation:true () in
  let dirty = build ~indexed_creation:false () in
  (* Same data either way; the difference is load cost (reallocation). *)
  check_int "same cardinality"
    (Database.cardinality clean.Generator.db ~cls:Derby.patient_cls)
    (Database.cardinality dirty.Generator.db ~cls:Derby.patient_cls);
  check_bool "reallocation load is slower" true
    (dirty.Generator.load_seconds > clean.Generator.load_seconds)

let suite =
  [
    Alcotest.test_case "cardinalities" `Quick test_cardinalities;
    Alcotest.test_case "pad16 is Printf's %016d" `Quick test_pad16_matches_printf;
    Alcotest.test_case "relationship consistency" `Quick
      test_relationship_consistency;
    Alcotest.test_case "num is a permutation" `Quick test_num_is_permutation;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "1:1000 clients spill" `Quick test_wide_shape_spills_clients;
    Alcotest.test_case "organization layouts" `Slow test_organizations_layout;
    Alcotest.test_case "assoc-ordered layout" `Quick test_assoc_ordered_layout;
    Alcotest.test_case "randomized interleaving" `Quick test_randomized_interleaves;
    Alcotest.test_case "standard-mode load" `Quick test_standard_mode_load_commits;
    Alcotest.test_case "first-index reallocation at load" `Quick
      test_unindexed_creation_costs_more_at_index_time;
  ]
