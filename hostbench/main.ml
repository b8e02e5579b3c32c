(* hostbench: the host cost of treebench's scale-40 workloads, end to end
   and layer by layer.

     sh hostbench/run.sh --workload select --seed 1997 --seconds 20 --trace 0

   Workloads (scale 40), chosen to vary what the engine's host cost depends
   on: access path, join algorithm, read vs write, and sharding.
   - select:  the Figures 6/7/9 grid on the wide class-clustered database
     (seq scan and unsorted index at 7 selectivities, sorted index at 4).
     Page fetch, Handle acquire and packed decode, B+-tree range; no
     hashing.  Its 1-permille index ops are sub-millisecond, so fixed
     per-op overhead (parse, plan, lower, cold restart) shows here.
   - join:    the Figures 13/14 grid on the deep class-clustered database
     ({PHJ, CHJ, NOJOIN, NL} x 4 selectivity cells).  Hash build and probe,
     navigation, result materialisation; bypasses selection-only code.
   - load:    the Section 3.2 loading ablations on the deep shape; one op is
     one Generator.build.  The write path no query touches.
   - sharded: the select grid without sorted ops plus the wide join grid,
     through Planner.run_sharded on 4 shards x 2 replicas, fault-free.
     Exchange/Gather and the sharded executor.

   Every query op is cold, exactly as the golden fingerprint runs it:
   cold restart + Sim.reset, Planner.run* with forced options, then
   Query_result.count + dispose.  One caller in a closed loop: the next op
   starts when the previous one returns.  The loop runs whole passes over
   the workload's ops for --seconds.

   Every op's output is checked: at the golden seed against
   test/counter_golden_scale40.txt, at any seed against the op's first run
   in this process and against the other plans of the same cell.

   --trace 0 measures the end-to-end metrics.  --trace 1 alternates
   untraced passes with passes that put a span around each public call,
   then replays layer primitives over the workload's data (layers.ml), and
   reports the per-layer metrics; spans go to hostbench/out/.  The last
   line of stdout is one JSON object. *)

module Generator = Tb_derby.Generator
module Database = Tb_store.Database
module Shard_map = Tb_store.Shard_map
module Btree = Tb_store.Btree
module Planner = Tb_query.Planner
module Plan = Tb_query.Plan
module Exec = Tb_query.Exec
module Query_result = Tb_query.Query_result
module Sim = Tb_sim.Sim
module Counters = Tb_sim.Counters

let scale = 40
let cost = Tb_sim.Cost_model.scaled scale
let setups = 3

(* ---- ops ---- *)

type qop = {
  tag : string;  (** the golden file's tag for this op *)
  text : string;
  organization : Tb_query.Estimate.organization option;
  force_algo : Plan.join_algo option;
  force_seq : bool option;
  force_sorted : bool option;
  group : string;  (** ops of one group must return the same rows *)
  expect_rows : int option;  (** rows known from the generator alone *)
}

let sel_op ~n_patients access p =
  let k = p * n_patients / 1000 in
  let name, force_seq, force_sorted =
    match access with
    | `Scan -> ("scan", Some true, None)
    | `Index -> ("index", None, Some false)
    | `Sorted -> ("sorted", None, Some true)
  in
  {
    tag = Printf.sprintf "sel %s p=%d" name p;
    text = Printf.sprintf "select pa.age from pa in Patients where pa.num < %d" k;
    organization = None;
    force_algo = None;
    force_seq;
    force_sorted;
    group = Printf.sprintf "sel p=%d" p;
    (* num is a permutation of 0..n-1, so exactly k patients qualify. *)
    expect_rows = Some k;
  }

let sel_ops ~n_patients ~sorted =
  List.concat_map
    (fun p -> [ sel_op ~n_patients `Index p; sel_op ~n_patients `Scan p ])
    [ 1; 10; 50; 100; 300; 600; 900 ]
  @
  if sorted then List.map (sel_op ~n_patients `Sorted) [ 100; 300; 600; 900 ]
  else []

let join_cells = [ (10, 10); (10, 90); (90, 10); (90, 90) ]

let join_ops ~shape ~cfg ~n_patients ~n_providers cells =
  List.concat_map
    (fun (sp, sv) ->
      List.map
        (fun algo ->
          {
            tag =
              Printf.sprintf "join %s class %s %d/%d" shape (Plan.algo_name algo)
                sp sv;
            text =
              Printf.sprintf
                "select [p.name, pa.age] from p in Providers, pa in p.clients \
                 where pa.mrn < %d and p.upin < %d"
                (sp * n_patients / 100)
                (sv * n_providers / 100);
            organization = Some (Generator.estimate_organization cfg);
            force_algo = Some algo;
            force_seq = None;
            force_sorted = Some true;
            group = Printf.sprintf "join %d/%d" sp sv;
            expect_rows = None;
          })
        [ Plan.PHJ; Plan.CHJ; Plan.NOJOIN; Plan.NL ])
    cells

type target = Single of Database.t | Sharded of Shard_map.t

let sim_of = function
  | Single db -> Database.sim db
  | Sharded smap -> Shard_map.sim smap

let cold target =
  (match target with
  | Single db -> Database.cold_restart db
  | Sharded smap -> Shard_map.cold_restart smap);
  Sim.reset (sim_of target)

(* The measured call: Fingerprint.run_cold's sequence. *)
let run_query target q =
  cold target;
  let r =
    match target with
    | Single db ->
        Planner.run ?organization:q.organization ?force_algo:q.force_algo
          ?force_seq:q.force_seq ?force_sorted:q.force_sorted ~keep:false db
          q.text
    | Sharded smap ->
        Planner.run_sharded ?organization:q.organization
          ?force_algo:q.force_algo ?force_seq:q.force_seq
          ?force_sorted:q.force_sorted ~keep:false smap q.text
  in
  let n = Query_result.count r in
  Query_result.dispose r;
  n

(* The same call split at its public seams, one span each.  Planner.run is
   parse -> plan -> lower -> Exec.run; Planner.run_sharded plans against
   shard 0, lowers with lower_sharded and runs the sharded executor. *)
let run_query_traced tr ~op target q ~exec_words =
  let sp name f = Span.with_span tr ~op name f in
  sp "store.cold_restart" (fun () -> cold target);
  let ast = sp "query.parse" (fun () -> Tb_query.Oql_parser.parse q.text) in
  let db0 =
    match target with Single db -> db | Sharded smap -> Shard_map.shard smap 0
  in
  let plan =
    sp "query.plan" (fun () ->
        Planner.plan ?organization:q.organization ?force_algo:q.force_algo
          ?force_seq:q.force_seq ?force_sorted:q.force_sorted db0 ast)
  in
  let root =
    sp "query.lower" (fun () ->
        match target with
        | Single _ -> Planner.lower plan
        | Sharded smap -> Planner.lower_sharded smap plan)
  in
  let r =
    sp "query.exec" (fun () ->
        let w0 = Gc.minor_words () in
        let r =
          match target with
          | Single db -> Exec.run db root ~keep:false
          | Sharded smap ->
              let r, _, _ = Exec.run_sharded_explained smap root ~keep:false in
              r
        in
        let w1 = Gc.minor_words () in
        exec_words := !exec_words +. (w1 -. w0);
        r)
  in
  sp "query.result" (fun () ->
      let n = Query_result.count r in
      Query_result.dispose r;
      n)

(* ---- guards: simulated totals that tracing must not move ---- *)

type guards = {
  mutable sim_elapsed_s : float;
  mutable swap_faults : int;
  mutable disk_reads : int;
  mutable client_hits : int;
  mutable client_misses : int;
  mutable handle_allocs : int;
  mutable rows : int;
  mutable guard_ops : int;
}

let new_guards () =
  {
    sim_elapsed_s = 0.;
    swap_faults = 0;
    disk_reads = 0;
    client_hits = 0;
    client_misses = 0;
    handle_allocs = 0;
    rows = 0;
    guard_ops = 0;
  }

let add_sim g (sim : Sim.t) rows =
  let c = sim.Sim.counters in
  g.sim_elapsed_s <- g.sim_elapsed_s +. Sim.elapsed_s sim;
  g.swap_faults <- g.swap_faults + c.Counters.swap_faults;
  g.disk_reads <- g.disk_reads + c.Counters.disk_reads;
  g.client_hits <- g.client_hits + c.Counters.client_hits;
  g.client_misses <- g.client_misses + c.Counters.client_misses;
  g.handle_allocs <- g.handle_allocs + c.Counters.handle_allocs;
  g.rows <- g.rows + rows;
  g.guard_ops <- g.guard_ops + 1

(* ---- a runner: the ops of one workload behind one interface ---- *)

type runner = {
  n_ops : int;
  run_op : int -> unit;  (** the measured call; keeps its output aside *)
  run_traced : Span.t -> op:int -> int -> unit;
  check_op : guards -> int -> bool;  (** checks the output [run_op] kept *)
  settle : unit -> int;
      (** after a pass: ops that passed [check_op] before their group could
          be compared, and whose group turned out to disagree *)
  exec_words : float ref;  (** words inside Exec, traced ops *)
}

let queries_runner ~target ~(ops : qop array) ~golden ~golden_rows_only =
  let n = Array.length ops in
  let last_rows = ref 0 in
  let reference = Array.make n "" in
  let first_rows = Array.make n (-1) in
  let group_ok = Hashtbl.create 16 in
  let expected_line = Array.make n None and expected_rows = Array.make n None in
  let missing = Array.make n false in
  (match golden with
  | None -> ()
  | Some tbl ->
      Array.iteri
        (fun i q ->
          match Hashtbl.find_opt tbl q.tag with
          | None -> missing.(i) <- true
          | Some l when golden_rows_only -> (
              match Check.rows_of_line l with
              | Some rows -> expected_rows.(i) <- Some rows
              | None -> missing.(i) <- true)
          | Some l -> expected_line.(i) <- Some l)
        ops);
  let group_agrees g =
    match Hashtbl.find_opt group_ok g with
    | Some ok -> Some ok
    | None ->
        (* Decided once every op of the group has run: equal rows across
           plans, and the generator's own count where it is known. *)
        let members =
          List.filter (fun i -> ops.(i).group = g) (List.init n Fun.id)
        in
        if List.exists (fun i -> first_rows.(i) < 0) members then None
        else begin
          let r0 = first_rows.(List.hd members) in
          let ok =
            List.for_all
              (fun i ->
                first_rows.(i) = r0
                && match ops.(i).expect_rows with Some k -> k = r0 | None -> true)
              members
          in
          Hashtbl.replace group_ok g ok;
          Some ok
        end
  in
  let pending = Array.make n false in
  let exec_words = ref 0. in
  {
    n_ops = n;
    run_op = (fun i -> last_rows := run_query target ops.(i));
    run_traced =
      (fun tr ~op i ->
        last_rows :=
          run_query_traced tr ~op target ops.(i) ~exec_words);
    check_op =
      (fun g i ->
        let rows = !last_rows in
        let sim = sim_of target in
        let l = Check.line ~tag:ops.(i).tag sim rows in
        add_sim g sim rows;
        if first_rows.(i) < 0 then begin
          first_rows.(i) <- rows;
          reference.(i) <- l
        end;
        (not missing.(i))
        && l = reference.(i)
        && (match expected_line.(i) with Some e -> l = e | None -> true)
        && (match expected_rows.(i) with Some e -> rows = e | None -> true)
        &&
        match group_agrees ops.(i).group with
        | Some ok -> ok
        | None ->
            pending.(i) <- true;
            true);
    settle =
      (fun () ->
        let late = ref 0 in
        Array.iteri
          (fun i p ->
            if p then begin
              pending.(i) <- false;
              if group_agrees ops.(i).group <> Some true then incr late
            end)
          pending;
        !late);
    exec_words;
  }

(* Load: one op is one Generator.build.  A build is correct when both
   extents hold what the config asked for, every index holds one entry per
   object and passes its invariant check, and the simulated load time is
   bit-identical to the first build of the same config in this process. *)
let load_runner ~(configs : (string * Generator.config) array) ~first =
  let slot = [| first |] in
  let reference = Array.make (Array.length configs) None in
  let exec_words = ref 0. in
  {
    n_ops = Array.length configs;
    run_op = (fun i -> slot.(0) <- Generator.build ~cost (snd configs.(i)));
    run_traced =
      (fun tr ~op i ->
        slot.(0) <-
          Span.with_span tr ~op "derby.build" (fun () ->
              Generator.build ~cost (snd configs.(i))));
    check_op =
      (fun g i ->
        let b = slot.(0) in
        (* Start every build from the same heap: the previous build is
           released and collected here, outside the timed call, so one
           build's garbage never lands in the next one's time or peak. *)
        slot.(0) <- first;
        let cfg = b.Generator.cfg in
        let db = b.Generator.db in
        let np = cfg.Generator.n_providers in
        let nc = np * cfg.Generator.fanout in
        let bits = Int64.bits_of_float b.Generator.load_seconds in
        g.sim_elapsed_s <- g.sim_elapsed_s +. b.Generator.load_seconds;
        g.guard_ops <- g.guard_ops + 1;
        let same_time =
          match reference.(i) with
          | None ->
              reference.(i) <- Some bits;
              true
          | Some r -> Int64.equal r bits
        in
        let index_ok (idx : Tb_store.Index_def.t) expected =
          match Btree.check_invariants idx.Tb_store.Index_def.tree with
          | () -> Btree.entry_count idx.Tb_store.Index_def.tree = expected
          | exception _ -> false
        in
        let ok =
          same_time
          && Database.cardinality db ~cls:Tb_derby.Derby.provider_cls = np
          && Database.cardinality db ~cls:Tb_derby.Derby.patient_cls = nc
          && index_ok b.Generator.upin_index np
          && index_ok b.Generator.mrn_index nc
          && (match b.Generator.num_index with
             | Some idx -> index_ok idx nc
             | None -> not cfg.Generator.build_num_index)
        in
        Gc.full_major ();
        ok);
    settle = (fun () -> 0);
    exec_words;
  }

(* ---- passes ---- *)

type tally = { mutable attempted : int; mutable failed : int }

(* Promotion and major cycles inside the ops of untraced passes. *)
type gc_tally = {
  mutable gc_ops : int;
  mutable promoted : float;
  mutable majors : int;
}

(* One untraced pass.  Only the op itself sits between the clock and
   allocation reads; the check, and the GC statistics when [gc] is given,
   run outside them. *)
let pass ?gc r tally g ~lat ~words =
  for i = 0 to r.n_ops - 1 do
    let s0 = Option.map (fun _ -> Gc.quick_stat ()) gc in
    let t0 = Span.now () in
    let w0 = Gc.minor_words () in
    r.run_op i;
    let w1 = Gc.minor_words () in
    let t1 = Span.now () in
    lat.(i) <- t1 - t0;
    words.(i) <- w1 -. w0;
    (match (gc, s0) with
    | Some gt, Some s0 ->
        let s1 = Gc.quick_stat () in
        gt.gc_ops <- gt.gc_ops + 1;
        gt.promoted <-
          gt.promoted +. (s1.Gc.promoted_words -. s0.Gc.promoted_words);
        gt.majors <-
          gt.majors + (s1.Gc.major_collections - s0.Gc.major_collections)
    | _ -> ());
    tally.attempted <- tally.attempted + 1;
    if not (r.check_op g i) then tally.failed <- tally.failed + 1
  done;
  tally.failed <- tally.failed + r.settle ()

let traced_pass r tally g tr ~first_op =
  for i = 0 to r.n_ops - 1 do
    let op = first_op + i in
    Span.with_span tr ~op "op" (fun () -> r.run_traced tr ~op i);
    let ok = Span.with_span tr ~op "check" (fun () -> r.check_op g i) in
    tally.attempted <- tally.attempted + 1;
    if not ok then tally.failed <- tally.failed + 1
  done;
  tally.failed <- tally.failed + r.settle ()

(* ---- statistics ---- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Linear interpolation between closest ranks over a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  let x = q *. float_of_int (n - 1) in
  let lo = int_of_float x in
  let hi = min (n - 1) (lo + 1) in
  let f = x -. float_of_int lo in
  (sorted.(lo) *. (1. -. f)) +. (sorted.(hi) *. f)

let calibration_ms () =
  (* A fixed integer loop, timed three times in this run, so figures from
     different hosts are never compared without their host's speed. *)
  let once () =
    let t0 = Span.now () in
    let x = ref 88172645463325252 in
    for _ = 1 to 1 lsl 24 do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17)
    done;
    ignore (Sys.opaque_identity !x);
    float_of_int (Span.now () - t0) /. 1e6
  in
  median [ once (); once (); once () ]

let ms ns = float_of_int ns /. 1e6

(* ---- workloads ---- *)

type env = {
  runner : runner;
  layer_input : Layers.input;
  probe : runner option;
      (** load only: the join grid's 10/10 cell on the last tuned build,
          so the query layers are measured on the loaded database too *)
}

let config ~seed shape =
  {
    (Generator.config ~scale shape Generator.Class_clustered) with
    Generator.seed;
  }

let load_configs base =
  [|
    ("tuned", base);
    ( "standard",
      { base with Generator.txn_mode = Tb_store.Transaction.Standard } );
    ("unindexed", { base with Generator.indexed_creation = false });
    ( "default-caches",
      { base with Generator.client_pages = base.Generator.server_pages } );
  |]

let golden_for seed =
  if seed = Check.golden_seed then Some (Check.load_golden ()) else None

let deep_join_runner ~golden (b : Generator.built) cells =
  let ops =
    join_ops ~shape:"deep" ~cfg:b.Generator.cfg
      ~n_patients:(Array.length b.Generator.patients)
      ~n_providers:(Array.length b.Generator.providers)
      cells
  in
  queries_runner ~target:(Single b.Generator.db) ~ops:(Array.of_list ops) ~golden
    ~golden_rows_only:false

let layer_input (b : Generator.built) =
  {
    Layers.db = b.Generator.db;
    patients = b.Generator.patients;
    cfg = b.Generator.cfg;
    cost;
  }

(* [setup ~seed name] builds the workload's input once and returns how to
   run it; called [setups] times in a measured run. *)
let setup ~seed ~golden = function
  | "select" ->
      let cfg = config ~seed `Wide in
      let b = Generator.build ~cost cfg in
      let ops =
        sel_ops ~n_patients:(Array.length b.Generator.patients) ~sorted:true
      in
      {
        runner =
          queries_runner ~target:(Single b.Generator.db) ~ops:(Array.of_list ops)
            ~golden ~golden_rows_only:false;
        layer_input = layer_input b;
        probe = None;
      }
  | "join" ->
      let cfg = config ~seed `Deep in
      let b = Generator.build ~cost cfg in
      {
        runner = deep_join_runner ~golden b join_cells;
        layer_input = layer_input b;
        probe = None;
      }
  | "sharded" ->
      let cfg = config ~seed `Wide in
      let b = Generator.build_sharded ~cost ~shards:4 ~replicas:2 cfg in
      let n_patients = Array.length b.Generator.sh_patients in
      let ops =
        sel_ops ~n_patients ~sorted:false
        @ join_ops ~shape:"wide" ~cfg ~n_patients
            ~n_providers:(Array.length b.Generator.sh_providers)
            join_cells
      in
      let smap = b.Generator.smap in
      let shard0 =
        List.filteri (fun j _ -> b.Generator.patient_shard.(j) = 0)
          (Array.to_list b.Generator.sh_patients)
      in
      {
        (* Sharding must not change answers: rows are checked against the
           golden unsharded line of the same tag. *)
        runner =
          queries_runner ~target:(Sharded smap) ~ops:(Array.of_list ops) ~golden
            ~golden_rows_only:true;
        layer_input =
          {
            Layers.db = Shard_map.shard smap 0;
            patients = Array.of_list shard0;
            cfg;
            cost;
          };
        probe = None;
      }
  | "load" ->
      let configs = load_configs (config ~seed `Deep) in
      (* Set-up is one build of the tuned config, outside the measured
         ops: it warms the process, is the first reference for the tuned
         config's load time, and is the database the traced run probes
         and replays over. *)
      let b = Generator.build ~cost (snd configs.(0)) in
      {
        runner = load_runner ~configs ~first:b;
        layer_input = layer_input b;
        probe = Some (deep_join_runner ~golden b [ (10, 10) ]);
      }
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---- output ---- *)

let emit ~tally ~metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "metric %-36s %.6g %s\n" name v unit)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           let v = if Float.is_finite v then v else 0. in
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (tally.failed = 0 && tally.attempted > 0)
    tally.attempted tally.failed body

let host_line ~calib =
  Printf.printf "host nproc=%d ocaml=%s word_bits=%d calibration_ms=%.3f\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.word_size calib

(* ---- the untraced run: end-to-end metrics ---- *)

let untraced ~workload ~seed ~seconds =
  let golden = golden_for seed in
  let setup_s = ref [] in
  let env = ref None in
  for _ = 1 to setups do
    env := None;
    let t0 = Span.now () in
    let e = setup ~seed ~golden workload in
    setup_s := (ms (Span.now () - t0) /. 1e3) :: !setup_s;
    env := Some e
  done;
  let env = Option.get !env in
  let r = env.runner in
  let tally = { attempted = 0; failed = 0 } in
  let lat = Array.make r.n_ops 0 and words = Array.make r.n_ops 0. in
  (* A warm-up pass for query workloads (the set-up builds warm load). *)
  if workload <> "load" then pass r tally (new_guards ()) ~lat ~words;
  (* Every op is a fixed query (or build) repeated once per pass.  Its
     latency is summarised by its median over the passes, and the workload's
     figures are taken over those per-op medians: a host neighbour that
     slows a few seconds of the run then moves no figure, where it would
     move figures pooled over every sample. *)
  let samples = Array.make r.n_ops [] and pass_words = ref [] in
  let start = Span.now () in
  while !pass_words = [] || ms (Span.now () - start) < 1e3 *. seconds do
    pass r tally (new_guards ()) ~lat ~words;
    Array.iteri (fun i ns -> samples.(i) <- ms ns :: samples.(i)) lat;
    pass_words := Array.fold_left ( +. ) 0. words :: !pass_words
  done;
  let passes = List.length !pass_words in
  let pass_words = List.rev !pass_words in
  let w0 = List.hd pass_words in
  List.iteri
    (fun k w ->
      if w <> w0 then
        Printf.printf "note: pass %d allocated %.0f minor words, pass 1 %.0f\n"
          (k + 1) w w0)
    pass_words;
  let op_ms = Array.map median samples in
  let sorted = Array.copy op_ms in
  Array.sort compare sorted;
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  Printf.printf
    "hostbench workload=%s seed=%d scale=%d mode=untraced passes=%d \
     ops_per_pass=%d samples=%d\n"
    workload seed scale passes r.n_ops (passes * r.n_ops);
  Printf.printf "op_median_ms %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.2f") (Array.to_list op_ms)));
  host_line ~calib:(calibration_ms ());
  let metrics =
    [
      ("setup_s", median !setup_s, "s");
      ( "ops_per_s",
        float_of_int r.n_ops /. (Array.fold_left ( +. ) 0. op_ms /. 1e3),
        "1/s" );
      ("op_p50_ms", percentile sorted 0.5, "ms");
      ("op_p90_ms", percentile sorted 0.9, "ms");
      ("minor_words_per_op", median pass_words /. float_of_int r.n_ops, "words");
      ("peak_heap_mb", float_of_int (top * (Sys.word_size / 8)) /. 1048576., "MB");
      ( "ok_ratio",
        float_of_int (tally.attempted - tally.failed)
        /. float_of_int (max 1 tally.attempted),
        "ratio" );
    ]
  in
  emit ~tally ~metrics

(* ---- the traced run: per-layer metrics ---- *)

let traced ~workload ~seed ~seconds =
  let golden = golden_for seed in
  let env = setup ~seed ~golden workload in
  let r = env.runner in
  let tally = { attempted = 0; failed = 0 } in
  let tr = Span.create () in
  let lat = Array.make r.n_ops 0 and words = Array.make r.n_ops 0. in
  if workload <> "load" then pass r tally (new_guards ()) ~lat ~words;
  let plain_ms = ref [] and traced_ms = ref [] and coverage = ref [] in
  let guard_sets = ref [] in
  let gt = { gc_ops = 0; promoted = 0.; majors = 0 } in
  let op_id = ref 0 in
  let start = Span.now () in
  while !traced_ms = [] || ms (Span.now () - start) < 1e3 *. seconds do
    (* untraced *)
    let g = new_guards () in
    let t0 = Span.now () in
    pass ~gc:gt r tally g ~lat ~words;
    plain_ms := ms (Span.now () - t0) :: !plain_ms;
    guard_sets := g :: !guard_sets;
    (* traced *)
    let g = new_guards () in
    let from = Span.count tr in
    let t0 = Span.now () in
    traced_pass r tally g tr ~first_op:!op_id;
    let wall = Span.now () - t0 in
    op_id := !op_id + r.n_ops;
    traced_ms := ms wall :: !traced_ms;
    coverage :=
      (float_of_int (Span.top_level_ns tr ~from ~upto:(Span.count tr))
      /. float_of_int wall)
      :: !coverage;
    guard_sets := g :: !guard_sets
  done;
  (* Load's query layers: the probe on its tuned build, untraced then
     traced, guards compared the same way. *)
  let probe_guards =
    match env.probe with
    | None -> []
    | Some pr ->
        let gu = new_guards () and gt = new_guards () in
        let lat = Array.make pr.n_ops 0 and words = Array.make pr.n_ops 0. in
        pass pr tally gu ~lat ~words;
        traced_pass pr tally gt tr ~first_op:!op_id;
        op_id := !op_id + pr.n_ops;
        [ (gu, gt) ]
  in
  let guards_ok =
    (match !guard_sets with
    | [] -> true
    | g0 :: rest -> List.for_all (( = ) g0) rest)
    && List.for_all (fun (a, b) -> a = b) probe_guards
  in
  if not guards_ok then begin
    print_endline "FAIL: a traced pass moved a simulated guard";
    tally.failed <- tally.failed + 1
  end;
  let selfs = Span.self_times tr in
  let span_mean name ~unit_ns =
    match Hashtbl.find_opt selfs name with
    | Some (ns, k) when k > 0 -> float_of_int ns /. float_of_int k /. unit_ns
    | _ -> 0.
  in
  let traced_queries =
    match Hashtbl.find_opt selfs "query.exec" with Some (_, k) -> k | None -> 0
  in
  let exec_words = !((Option.value env.probe ~default:r).exec_words) in
  (* Guards come from the pass the query counters describe: the workload's
     own passes, or the probe for load (a build resets its counters), whose
     simulated elapsed is the builds' load time. *)
  let g =
    match probe_guards with
    | (gu, _) :: _ ->
        let g0 = List.hd !guard_sets in
        { gu with sim_elapsed_s = g0.sim_elapsed_s }
    | [] -> List.hd !guard_sets
  in
  let gops = float_of_int (max 1 g.guard_ops) in
  let layer_metrics = Layers.measure tr env.layer_input in
  let calib = calibration_ms () in
  let metrics =
    [
      ("query.parse_us", span_mean "query.parse" ~unit_ns:1e3, "us");
      ("query.plan_us", span_mean "query.plan" ~unit_ns:1e3, "us");
      ("query.lower_us", span_mean "query.lower" ~unit_ns:1e3, "us");
      ("query.result_us", span_mean "query.result" ~unit_ns:1e3, "us");
      ("store.cold_restart_us", span_mean "store.cold_restart" ~unit_ns:1e3, "us");
      (* On sharded this is the sharded executor, Exec.run_sharded_explained. *)
      ("query.exec_ms", span_mean "query.exec" ~unit_ns:1e6, "ms");
      ( "query.exec_minor_words",
        exec_words /. float_of_int (max 1 traced_queries),
        "words" );
    ]
    @ layer_metrics
    @ [
        ( "gc.promoted_words_per_op",
          gt.promoted /. float_of_int (max 1 gt.gc_ops),
          "words" );
        ( "gc.major_collections_per_op",
          float_of_int gt.majors /. float_of_int (max 1 gt.gc_ops),
          "count" );
        ("sim.elapsed_s_per_pass", g.sim_elapsed_s, "sim_s");
        ("sim.swap_faults_per_pass", float_of_int g.swap_faults, "count");
        ("storage.disk_reads_per_op", float_of_int g.disk_reads /. gops, "count");
        ( "storage.client_hit_rate",
          float_of_int g.client_hits
          /. float_of_int (max 1 (g.client_hits + g.client_misses)),
          "ratio" );
        ( "store.handle_allocs_per_op",
          float_of_int g.handle_allocs /. gops,
          "count" );
        ("query.rows_out_per_op", float_of_int g.rows /. gops, "count");
        ("trace.overhead_ms_per_pass", median !traced_ms -. median !plain_ms, "ms");
        ("trace.top_span_coverage", median !coverage, "ratio");
        ("host.calibration_ms", calib, "ms");
      ]
  in
  Printf.printf
    "hostbench workload=%s seed=%d scale=%d mode=traced passes=%d+%d spans=%d\n"
    workload seed scale (List.length !plain_ms) (List.length !traced_ms)
    (Span.count tr);
  Printf.printf "pass_ms untraced=%.3f traced=%.3f\n" (median !plain_ms)
    (median !traced_ms);
  host_line ~calib;
  let dir = "hostbench/out" in
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
   with Sys_error _ -> ());
  let path = Printf.sprintf "%s/trace-%s-seed%d.tsv" dir workload seed in
  (try
     Span.write tr
       ~header:
         [
           Printf.sprintf "workload=%s seed=%d scale=%d" workload seed scale;
           Printf.sprintf "nproc=%d ocaml=%s word_bits=%d calibration_ms=%.3f"
             (Domain.recommended_domain_count ())
             Sys.ocaml_version Sys.word_size calib;
         ]
       path;
     Printf.printf "spans written to %s\n" path
   with Sys_error e -> Printf.printf "spans not written: %s\n" e);
  emit ~tally ~metrics

(* ---- command line ---- *)

let workloads = [ "select"; "join"; "load"; "sharded" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload select|join|load|sharded [--seed N] \
     [--seconds S] [--trace 0|1]";
  exit 2

let () =
  let workload = ref None and seed = ref Check.golden_seed in
  let seconds = ref 10. and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w workloads ->
        workload := Some w;
        parse rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some s ->
            seed := s;
            parse rest
        | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0. ->
            seconds := s;
            parse rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := v = "1";
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload = match !workload with Some w -> w | None -> usage () in
  match
    if !trace then traced ~workload ~seed:!seed ~seconds:!seconds
    else untraced ~workload ~seed:!seed ~seconds:!seconds
  with
  | () -> ()
  | exception Sys_error e ->
      prerr_endline ("hostbench: " ^ e);
      exit 1
