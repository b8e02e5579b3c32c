(* Tests for the four-stage optimizer pipeline: enumerate → cost → pick →
   validate, and for the estimator primitives underneath it. *)

open Tb_query
module Generator = Tb_derby.Generator
module Sc = Tb_statcore.Stat_catalog
module Database = Tb_store.Database

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- S1: Cardenas distinct-page boundaries --- *)

let test_distinct_pages_bounds () =
  let dp = Estimate.distinct_pages in
  (* Degenerate inputs touch nothing. *)
  Alcotest.(check (float 0.0)) "no pages" 0.0 (dp ~n:50.0 ~pages:0.0 ());
  Alcotest.(check (float 0.0)) "no rows" 0.0 (dp ~n:0.0 ~pages:10.0 ());
  Alcotest.(check (float 0.0)) "negative rows" 0.0 (dp ~n:(-3.0) ~pages:10.0 ());
  Alcotest.(check (float 0.0)) "negative pages" 0.0 (dp ~n:5.0 ~pages:(-1.0) ());
  (* Fetching every row saturates at exactly the extent size — the
     unclamped formula would leave pages*(1-1/e) at the boundary. *)
  Alcotest.(check (float 0.0)) "full extent saturates" 10.0
    (dp ~rows_per_page:10.0 ~n:100.0 ~pages:10.0 ());
  Alcotest.(check (float 0.0)) "overfull extent still saturates" 10.0
    (dp ~rows_per_page:10.0 ~n:1000.0 ~pages:10.0 ());
  check_bool "one short of full stays under" true
    (dp ~rows_per_page:10.0 ~n:99.0 ~pages:10.0 () < 10.0);
  (* Without a rows-per-page hint the curve approaches but never reaches
     the extent. *)
  let near = dp ~n:1000.0 ~pages:100.0 () in
  check_bool "default hint never saturates" true (near < 100.0 && near > 99.9);
  (* Monotone in n, and never above min(n, pages). *)
  let prev = ref 0.0 in
  for n = 1 to 50 do
    let d = dp ~rows_per_page:10.0 ~n:(float_of_int n) ~pages:20.0 () in
    check_bool "monotone" true (d >= !prev);
    check_bool "<= n" true (d <= float_of_int n +. 1e-9);
    check_bool "<= pages" true (d <= 20.0);
    prev := d
  done

(* --- shared build helpers --- *)

let built org =
  Generator.build
    ~cost:(Tb_sim.Cost_model.scaled 40)
    (Generator.config ~scale:40 `Wide org)

let actual_ms root =
  let t = ref 0.0 in
  Op.iter (fun n -> t := !t +. n.Op.frame.Op.ms) root;
  !t

let plan_q root =
  Op.Est.q ~est:(Estimate.plan_cost_ms root) ~actual:(actual_ms root)

(* Run one forced plan cold and return its plan-level q-error. *)
let forced_q b ?force_algo ?force_sorted ?force_seq oql =
  let db = b.Generator.db in
  let stats = Sc.analyze db in
  let organization = Generator.estimate_organization b.Generator.cfg in
  let ast = Oql_parser.parse oql in
  let plan = Planner.plan ~organization ?force_algo ?force_sorted ?force_seq db ast in
  let root = Planner.lower plan in
  Estimate.annotate ~stats ~organization root;
  Database.cold_restart db;
  let r, _totals = Exec.run_explained db root ~keep:false in
  Query_result.dispose r;
  plan_q root

(* --- S3: q-error matrix --- *)

(* Every join algorithm and every physical organization, at 1/40 scale:
   the cost model must land within [matrix_bound] of the accounted truth
   at the plan level.  The bound is documented in DESIGN.md §4l; it is the
   contract the validate stage's feedback loop then tightens to 2x. *)
let matrix_bound = 4.0

let org_name = function
  | Generator.Class_clustered -> "class"
  | Generator.Randomized -> "random"
  | Generator.Composition -> "composition"
  | Generator.Assoc_ordered -> "assoc"

let join_oql = "select [p.name, pa.age] from p in Providers, pa in p.clients where pa.num < 5000"

let test_q_error_matrix_joins () =
  List.iter
    (fun org ->
      let b = built org in
      List.iter
        (fun algo ->
          match forced_q b ~force_algo:algo join_oql with
          | q ->
              Printf.eprintf "[matrix] %-12s %-6s q=%.2f\n%!" (org_name org)
                (Plan.algo_name algo) q;
              check_bool
                (Printf.sprintf "%s/%s q %.2f <= %.1f" (org_name org)
                   (Plan.algo_name algo) q matrix_bound)
                true (q <= matrix_bound)
          | exception Plan.Unsupported _ -> ())
        Enumerate.all_algos)
    [ Generator.Class_clustered; Generator.Randomized; Generator.Composition;
      Generator.Assoc_ordered ]

let test_q_error_matrix_accesses () =
  let oql = "select pa.age from pa in Patients where pa.num < 2500" in
  List.iter
    (fun org ->
      let b = built org in
      List.iter
        (fun (label, sorted, seq) ->
          let q = forced_q b ?force_sorted:sorted ?force_seq:seq oql in
          Printf.eprintf "[matrix] %-12s %-12s q=%.2f\n%!" (org_name org) label q;
          check_bool
            (Printf.sprintf "%s/%s q %.2f <= %.1f" (org_name org) label q
               matrix_bound)
            true (q <= matrix_bound))
        [
          ("seq", None, Some true);
          ("index", Some false, None);
          ("index+sort", Some true, None);
        ])
    [ Generator.Class_clustered; Generator.Randomized ]

(* --- S3: feedback convergence --- *)

let test_feedback_converges () =
  (* Composition clustering is invisible to the catalog (DESIGN.md §4l):
     the optimizer costs the shared file as randomly organized, so the
     first run mis-estimates and validate feeds corrections back.  After
     one round every operator must sit within the 2x threshold. *)
  let b = built Generator.Composition in
  let db = b.Generator.db in
  let stats = Sc.analyze db in
  let run () =
    Database.cold_restart db;
    let r, _d, _g, checks = Planner.run_optimized_explained ~stats db join_oql in
    Query_result.dispose r;
    checks
  in
  let first = run () in
  let q1 = Exec.worst_q first in
  let fed = List.exists (fun c -> c.Exec.ec_fed_back) first in
  let second = run () in
  let q2 = Exec.worst_q second in
  Printf.eprintf "[feedback] first worst q=%.2f fed_back=%b second worst q=%.2f\n%!"
    q1 fed q2;
  check_bool "first run feeds corrections back" true fed;
  check_bool "corrections recorded in catalog" true (Sc.fed_back stats > 0);
  check_bool
    (Printf.sprintf "after one round worst q %.2f <= 2.0" q2)
    true (q2 <= 2.0);
  check_bool "feedback never makes it worse" true (q2 <= q1 +. 1e-9)

(* --- tentpole: fig6 crossover rediscovered from statistics alone --- *)

let test_fig6_crossover_from_stats () =
  let b = built Generator.Class_clustered in
  let db = b.Generator.db in
  let stats = Sc.analyze db in
  let n = Array.length b.Generator.patients in
  let two_way permille =
    let d =
      Planner.optimize ~stats db
        (Printf.sprintf "select pa.age from pa in Patients where pa.num < %d"
           (permille * n / 1000))
    in
    let cost desc =
      match
        List.find_opt
          (fun ch -> String.equal ch.Planner.ch_desc desc)
          d.Planner.d_candidates
      with
      | Some ch -> ch.Planner.ch_cost_ms
      | None -> Alcotest.failf "candidate %s missing at %d permille" desc permille
    in
    (cost "index packed", cost "seq packed")
  in
  (* Fig 6's two-way menu: the unsorted unclustered index wins at 0.1-1%
     and loses from 5% on — the same verdicts `treebench figure fig6`
     measures, recovered here without executing anything. *)
  List.iter
    (fun permille ->
      let ix, sq = two_way permille in
      check_bool (Printf.sprintf "index wins at %d permille" permille) true
        (ix < sq))
    [ 1; 10 ];
  List.iter
    (fun permille ->
      let ix, sq = two_way permille in
      check_bool (Printf.sprintf "scan wins at %d permille" permille) true
        (sq < ix))
    [ 50; 100; 300; 600; 900 ]

let test_pick_tie_policy () =
  (* Equal-cost candidates resolve by enumeration order: packed before
     handle, so the winner is always the packed twin. *)
  let b = built Generator.Class_clustered in
  let db = b.Generator.db in
  let stats = Sc.analyze db in
  let d =
    Planner.optimize ~stats db
      "select pa.age from pa in Patients where pa.num < 50"
  in
  check_bool "winner is packed" true d.Planner.d_packed;
  match d.Planner.d_candidates with
  | a :: b :: _ ->
      check_bool "top two tie" true (Float.equal a.Planner.ch_cost_ms b.Planner.ch_cost_ms);
      check_bool "packed enumerated first" true
        (a.Planner.ch_packed && not b.Planner.ch_packed)
  | _ -> Alcotest.fail "expected at least two candidates"

let test_partial_pins_honoured () =
  (* A join with no [force_algo] is chosen by the argmin, but only among
     candidates that honour the other pins. *)
  let b = built Generator.Class_clustered in
  let db = b.Generator.db in
  let ast =
    Oql_parser.parse
      "select [p.name, pa.age] from p in Providers, pa in p.clients where \
       pa.mrn < 500 and p.upin < 5"
  in
  let accesses = function
    | Plan.Hier_join { parent_access; child_access; _ } ->
        [ parent_access; child_access ]
    | Plan.Selection _ -> Alcotest.fail "expected a join"
  in
  check_bool "force_seq: every side scans" true
    (List.for_all
       (function Plan.Seq_scan _ -> true | Plan.Index_scan _ -> false)
       (accesses (Planner.plan ~force_seq:true db ast)));
  let unsorted = accesses (Planner.plan ~force_sorted:false db ast) in
  check_bool "force_sorted:false: an index side is taken" true
    (List.exists
       (function Plan.Index_scan _ -> true | Plan.Seq_scan _ -> false)
       unsorted);
  check_bool "force_sorted:false: no index side sorts" true
    (List.for_all
       (function Plan.Index_scan { sorted; _ } -> not sorted | Plan.Seq_scan _ -> true)
       unsorted)

let test_validate_covers_every_operator () =
  let b = built Generator.Class_clustered in
  let db = b.Generator.db in
  Database.cold_restart db;
  let r, d, _g, checks =
    Planner.run_optimized_explained db
      "select pa.age from pa in Patients where pa.num < 500"
  in
  Query_result.dispose r;
  let ops = ref 0 in
  Op.iter (fun _ -> incr ops) d.Planner.d_root;
  check_int "one check per operator" !ops (List.length checks);
  check_bool "worst q sane" true (Exec.worst_q checks >= 1.0)

let suite =
  [
    Alcotest.test_case "distinct pages: boundaries" `Quick
      test_distinct_pages_bounds;
    Alcotest.test_case "q-error matrix: joins" `Slow test_q_error_matrix_joins;
    Alcotest.test_case "q-error matrix: access paths" `Slow
      test_q_error_matrix_accesses;
    Alcotest.test_case "feedback converges" `Quick test_feedback_converges;
    Alcotest.test_case "fig6 crossover from statistics" `Quick
      test_fig6_crossover_from_stats;
    Alcotest.test_case "pick: tie policy" `Quick test_pick_tie_policy;
    Alcotest.test_case "plan: partial pins honoured" `Quick
      test_partial_pins_honoured;
    Alcotest.test_case "validate covers every operator" `Quick
      test_validate_covers_every_operator;
  ]
