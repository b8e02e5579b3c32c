module Database = Tb_store.Database
module Index_def = Tb_store.Index_def
module Sc = Tb_statcore.Stat_catalog

let default_organization db ~parent_cls ~child_cls =
  let same =
    Tb_storage.Heap_file.file_id (Database.class_file db ~cls:parent_cls)
    = Tb_storage.Heap_file.file_id (Database.class_file db ~cls:child_cls)
  in
  if same then Estimate.Shared_random else Estimate.Separate_files

let organization_for db bound = function
  | Some o -> o
  | None -> (
      match bound with
      | Plan.B_hier { parent_cls; child_cls; _ } ->
          default_organization db ~parent_cls ~child_cls
      | Plan.B_selection _ -> Estimate.Separate_files)

(* --- lowering: Plan.t -> physical operator tree --- *)

(* Lowering is pure plan surgery: attribute names stay symbolic (the
   executor resolves slots once per operator), so no database access — and
   in particular no charge — happens here. *)

let access_preds = function
  | Plan.Seq_scan { preds; _ } -> preds
  | Plan.Index_scan { residual; _ } -> residual

let lower_access access =
  match access with
  | Plan.Seq_scan { cls; _ } -> Op.make (Op.Seq_scan { cls })
  | Plan.Index_scan { index; lo; hi; sorted; _ } ->
      let scan = Op.make (Op.Index_scan { index; lo; hi }) in
      if sorted then Op.make (Op.Sort_rids { child = scan }) else scan

let require_inv = function
  | Some attr -> attr
  | None ->
      raise
        (Plan.Unsupported
           "this algorithm navigates child-to-parent but the schema declares \
            no inverse reference")

let make_finish ~select ~aggregate env_op =
  Op.make
    (Op.Materialize
       { child = Op.make (Op.Project { child = env_op; select }); aggregate })

(* A Fetch that binds [var] to each surviving object of [access].  The
   covering shortcut — skip Handles entirely when the access path
   absorbed every predicate and the query only uses the object's
   identity — is only sound for selections; join sides always need
   attribute or set access.  The packed mode is chosen from the residual
   predicates alone ({!Packed.compilable}), keeping lowering pure. *)
let make_fetch ~packed ~batch ?(covering = false) access ~cls ~var =
  let preds = access_preds access in
  let mode =
    if packed && Packed.compilable preds then Op.Packed else Op.Handle
  in
  Op.make
    (Op.Fetch { child = lower_access access; cls; var; preds; covering; mode; batch })

(* Keys and payload prefixes are always packed-compilable; [~mode] is
   forced to Handle for hybrid probe-side harvests, which the hybrid
   driver evaluates through the Handle kernels. *)
let make_harvest ~packed ?mode side ~key ~cls ~var select =
  let mode =
    match mode with
    | Some m -> m
    | None -> if packed then Op.Packed else Op.Handle
  in
  let attrs, _self = Plan.needed_attrs var select in
  Op.make (Op.Harvest { child = side; key; cls; attrs; mode })

let lower ?(packed = true) ?(batch = 256) plan =
  let finish = make_finish in
  let fetch ?covering access ~cls ~var =
    make_fetch ~packed ~batch ?covering access ~cls ~var
  in
  let harvest ?mode side ~key ~cls ~var select =
    make_harvest ~packed ?mode side ~key ~cls ~var select
  in
  match plan with
  | Plan.Selection { var; cls; access; select; aggregate } ->
      let covering =
        match (access_preds access, Plan.needed_attrs var select) with
        | [], ([], _) -> true
        | _ -> false
      in
      finish ~select ~aggregate (fetch ~covering access ~cls ~var)
  | Plan.Hier_join
      {
        algo;
        parent_var;
        parent_cls;
        child_var;
        child_cls;
        set_attr;
        inv_attr;
        parent_access;
        child_access;
        partitions;
        select;
        aggregate;
      } -> (
      let parent_fetch () =
        fetch parent_access ~cls:parent_cls ~var:parent_var
      in
      let child_fetch () = fetch child_access ~cls:child_cls ~var:child_var in
      let parent_harvest ?mode () =
        harvest ?mode (parent_fetch ()) ~key:Op.K_self ~cls:parent_cls
          ~var:parent_var select
      in
      let child_harvest ?mode () =
        harvest ?mode
          (child_fetch ())
          ~key:(Op.K_inverse (require_inv inv_attr))
          ~cls:child_cls ~var:child_var select
      in
      let partitions = max 1 partitions in
      match algo with
      | Plan.NL ->
          (* NL cannot use the child index: the child side's predicates
             are evaluated during navigation. *)
          let child_preds =
            match child_access with
            | Plan.Seq_scan { preds; _ } -> preds
            | Plan.Index_scan _ ->
                invalid_arg "Exec: NL child access must be a scan"
          in
          finish ~select ~aggregate
            (Op.make
               (Op.Nav_set
                  {
                    child = parent_fetch ();
                    set_attr;
                    owner_cls = parent_cls;
                    nav_var = child_var;
                    nav_cls = child_cls;
                    preds = child_preds;
                  }))
      | Plan.NOJOIN ->
          let parent_preds =
            match parent_access with
            | Plan.Seq_scan { preds; _ } -> preds
            | Plan.Index_scan _ ->
                invalid_arg "Exec: NOJOIN parent access must be a scan"
          in
          finish ~select ~aggregate
            (Op.make
               (Op.Nav_inverse
                  {
                    child = child_fetch ();
                    inv_attr = require_inv inv_attr;
                    owner_cls = child_cls;
                    nav_var = parent_var;
                    nav_cls = parent_cls;
                    preds = parent_preds;
                  }))
      | Plan.PHJ ->
          finish ~select ~aggregate
            (Op.make
               (Op.Hash_probe
                  {
                    build = Op.make (Op.Hash_build { child = parent_harvest () });
                    probe = child_fetch ();
                    probe_key = Op.K_inverse (require_inv inv_attr);
                    probe_cls = child_cls;
                    build_var = parent_var;
                    probe_var = child_var;
                  }))
      | Plan.CHJ ->
          finish ~select ~aggregate
            (Op.make
               (Op.Hash_probe
                  {
                    build = Op.make (Op.Hash_build { child = child_harvest () });
                    probe = parent_fetch ();
                    probe_key = Op.K_self;
                    probe_cls = parent_cls;
                    build_var = child_var;
                    probe_var = parent_var;
                  }))
      | Plan.PHHJ ->
          finish ~select ~aggregate
            (Op.make
               (Op.Hash_probe
                  {
                    build =
                      Op.make
                        (Op.Hash_build
                           {
                             child =
                               Op.make
                                 (Op.Spill_partition
                                    { child = parent_harvest (); partitions });
                           });
                    probe =
                      Op.make
                        (Op.Spill_partition
                           { child = child_harvest ~mode:Op.Handle (); partitions });
                    probe_key = Op.K_inverse (require_inv inv_attr);
                    probe_cls = child_cls;
                    build_var = parent_var;
                    probe_var = child_var;
                  }))
      | Plan.CHHJ ->
          finish ~select ~aggregate
            (Op.make
               (Op.Hash_probe
                  {
                    build =
                      Op.make
                        (Op.Hash_build
                           {
                             child =
                               Op.make
                                 (Op.Spill_partition
                                    { child = child_harvest (); partitions });
                           });
                    probe =
                      Op.make
                        (Op.Spill_partition
                           { child = parent_harvest ~mode:Op.Handle (); partitions });
                    probe_key = Op.K_self;
                    probe_cls = parent_cls;
                    build_var = child_var;
                    probe_var = parent_var;
                  }))
      | Plan.SMJ ->
          finish ~select ~aggregate
            (Op.make
               (Op.Merge
                  {
                    left = Op.make (Op.Sort { child = parent_harvest () });
                    right = Op.make (Op.Sort { child = child_harvest () });
                    left_var = parent_var;
                    right_var = child_var;
                  })))

(* --- sharded lowering: Plan.t -> Gather over per-shard subtrees --- *)

module Shard_map = Tb_store.Shard_map

(* The logical plan is made against shard 0, whose Index_def values name
   shard 0's B-trees; every shard replicates the same index set, so the
   per-shard subtree swaps in its own catalog entry by (class, attribute).
   Still pure plan surgery: [Database.find_index] is a catalog lookup and
   never touches pages. *)
let remap_access db access =
  match access with
  | Plan.Seq_scan _ -> access
  | Plan.Index_scan { index; lo; hi; sorted; residual } -> (
      match
        Database.find_index db ~cls:index.Index_def.cls
          ~attr:index.Index_def.attr
      with
      | Some index -> Plan.Index_scan { index; lo; hi; sorted; residual }
      | None ->
          invalid_arg
            ("Planner: shard is missing replicated index " ^ index.Index_def.name))

let remap_plan db = function
  | Plan.Selection ({ access; _ } as r) ->
      Plan.Selection { r with access = remap_access db access }
  | Plan.Hier_join ({ parent_access; child_access; _ } as r) ->
      Plan.Hier_join
        {
          r with
          parent_access = remap_access db parent_access;
          child_access = remap_access db child_access;
        }

let key_name = function Op.K_self -> "self" | Op.K_inverse a -> a

(* One shard's lane of an exchange (hash-join) plan: both sides harvested
   locally, routed through Exchange by retagged join key, rebuilt and
   probed on the destination.  PHHJ/CHHJ degenerate to their in-memory
   cousins — repartitioning already splits the build side S ways, which is
   exactly the memory-pressure relief the spill partitions bought. *)
let hash_lane ~packed ~batch ~shards ~shard plan_s =
  match plan_s with
  | Plan.Hier_join
      {
        algo;
        parent_var;
        parent_cls;
        child_var;
        child_cls;
        inv_attr;
        parent_access;
        child_access;
        select;
        aggregate;
        _;
      } ->
      let parent_harvest =
        make_harvest ~packed
          (make_fetch ~packed ~batch parent_access ~cls:parent_cls
             ~var:parent_var)
          ~key:Op.K_self ~cls:parent_cls ~var:parent_var select
      in
      let child_harvest =
        make_harvest ~packed
          (make_fetch ~packed ~batch child_access ~cls:child_cls ~var:child_var)
          ~key:(Op.K_inverse (require_inv inv_attr))
          ~cls:child_cls ~var:child_var select
      in
      let build, probe, probe_key, probe_cls, build_var, probe_var =
        match algo with
        | Plan.PHJ | Plan.PHHJ ->
            ( parent_harvest,
              child_harvest,
              Op.K_inverse (require_inv inv_attr),
              child_cls,
              parent_var,
              child_var )
        | Plan.CHJ | Plan.CHHJ ->
            (child_harvest, parent_harvest, Op.K_self, parent_cls, child_var, parent_var)
        | Plan.NL | Plan.NOJOIN | Plan.SMJ -> assert false
      in
      let exchange harv =
        let part_key =
          key_name
            (match harv.Op.kind with
            | Op.Harvest { key; _ } -> key
            | _ -> assert false)
        in
        Op.make (Op.Exchange { child = harv; shards; part_key })
      in
      Op.make
        (Op.Shard_lane
           {
             child =
               make_finish ~select ~aggregate
                 (Op.make
                    (Op.Hash_probe
                       {
                         build =
                           Op.make (Op.Hash_build { child = exchange build });
                         probe = exchange probe;
                         probe_key;
                         probe_cls;
                         build_var;
                         probe_var;
                       }));
             shard;
             shards;
           })
  | Plan.Selection _ -> assert false

(* [lower_sharded smap plan] rewrites the plan into per-shard subtrees
   under a Gather root.  With a single shard this is exactly [lower]: no
   Gather, no Shard_lane — the one-shard engine is the unsharded engine by
   construction, which is what keeps the golden fingerprint byte-identical
   at S=1. *)
let lower_sharded ?(packed = true) ?(batch = 256) smap plan =
  let shards = Shard_map.count smap in
  if shards = 1 then lower ~packed ~batch (remap_plan (Shard_map.shard smap 0) plan)
  else
    let ordered =
      match plan with
      | Plan.Selection { access = Plan.Index_scan { sorted = true; _ }; _ } ->
          true
      | _ -> false
    in
    let lanes =
      Array.init shards (fun s ->
          let plan_s = remap_plan (Shard_map.shard smap s) plan in
          match plan_s with
          | Plan.Hier_join
              { algo = Plan.PHJ | Plan.CHJ | Plan.PHHJ | Plan.CHHJ; _ } ->
              hash_lane ~packed ~batch ~shards ~shard:s plan_s
          | _ ->
              Op.make
                (Op.Shard_lane
                   { child = lower ~packed ~batch plan_s; shard = s; shards }))
    in
    Op.make
      (Op.Gather { lanes; shards; part_key = Shard_map.key_attr smap; ordered })

(* --- the argmin: enumerate -> cost -> pick --- *)

type choice = {
  ch_desc : string;
  ch_packed : bool;
  ch_cost_ms : float;
}

type decision = {
  d_plan : Plan.t;
  d_root : Op.t;  (* lowered + annotated chosen tree *)
  d_desc : string;
  d_packed : bool;
  d_cost_ms : float;
  d_candidates : choice list;  (* every candidate, ranked best-first *)
  d_stats : Sc.t;
  d_organization : Estimate.organization;
}

(* Lower and cost every candidate [honour] keeps (it may also rewrite one
   to fit a pin), then pick the argmin.  The argmin is strict-<, so on
   equal cost the FIRST enumerated candidate wins — which is how the tie
   policy (originals over extensions, index over scan, packed over handle)
   is enforced. *)
let pick ?(honour = Option.some) ~stats ~organization ~batch db bound =
  let score (c : Enumerate.candidate) =
    let root = lower ~packed:c.Enumerate.c_packed ~batch c.Enumerate.c_plan in
    Estimate.annotate ~stats ~organization root;
    (c, root, Estimate.plan_cost_ms root)
  in
  let scored =
    List.filter_map
      (fun c -> Option.map score (honour c))
      (Enumerate.candidates stats db bound)
  in
  match scored with
  | [] -> raise (Plan.Unsupported "optimizer: empty candidate space")
  | first :: rest ->
      let best =
        List.fold_left
          (fun acc x ->
            let _, _, acc_ms = acc and _, _, x_ms = x in
            if x_ms < acc_ms then x else acc)
          first rest
      in
      let c, root, cost_ms = best in
      let ranked =
        List.stable_sort
          (fun a b -> Float.compare a.ch_cost_ms b.ch_cost_ms)
          (List.map
             (fun ((c : Enumerate.candidate), _, ms) ->
               {
                 ch_desc = c.Enumerate.c_desc;
                 ch_packed = c.Enumerate.c_packed;
                 ch_cost_ms = ms;
               })
             scored)
      in
      {
        d_plan = c.Enumerate.c_plan;
        d_root = root;
        d_desc = c.Enumerate.c_desc;
        d_packed = c.Enumerate.c_packed;
        d_cost_ms = cost_ms;
        d_candidates = ranked;
        d_stats = stats;
        d_organization = organization;
      }

(* --- plan: pinned plans built directly, the rest through the argmin --- *)

(* One side of a pinned plan: the most selective indexable conjunct with
   the pinned sorted-Rid flag, or a scan when [force_seq] says so or no
   index applies. *)
let pinned_access stats db ~cls ~preds ~sorted ~force_seq =
  match
    if force_seq then None
    else Enumerate.best_index (Lazy.force stats) db ~cls preds
  with
  | Some index_scan -> index_scan ~sorted
  | None -> Plan.Seq_scan { cls; preds }

(* A partly pinned join (no [force_algo]) still honours the other pins:
   [force_seq] keeps only scan-only candidates, [force_sorted] sets the
   sorted-Rid flag of every index side.  A selection only reaches the
   argmin unpinned. *)
let honour ~force_seq ~force_sorted (c : Enumerate.candidate) =
  let access = function
    | Plan.Seq_scan _ as a -> Some a
    | Plan.Index_scan _ when force_seq -> None
    | Plan.Index_scan r ->
        let sorted = Option.value force_sorted ~default:r.sorted in
        Some (Plan.Index_scan { r with sorted })
  in
  match c.Enumerate.c_plan with
  | Plan.Selection _ -> Some c
  | Plan.Hier_join r -> (
      match (access r.parent_access, access r.child_access) with
      | Some parent_access, Some child_access ->
          Some
            {
              c with
              c_plan = Plan.Hier_join { r with parent_access; child_access };
            }
      | _ -> None)

let plan ?organization ?force_algo ?force_sorted ?(force_seq = false) db q =
  let bound = Plan.bind db q in
  (* A pinned scan-only selection needs no statistics. *)
  let stats = lazy (Sc.analyze db) in
  match (bound, force_algo) with
  | Plan.B_selection { var; cls; preds; select; aggregate }, _
    when force_seq || Option.is_some force_sorted ->
      let sorted = Option.value force_sorted ~default:false in
      Plan.Selection
        {
          var;
          cls;
          access = pinned_access stats db ~cls ~preds ~sorted ~force_seq;
          select;
          aggregate;
        }
  | ( Plan.B_hier
        {
          parent_var;
          parent_cls;
          child_var;
          child_cls;
          set_attr;
          inv_attr;
          parent_preds;
          child_preds;
          select;
          aggregate;
        },
      Some algo ) ->
      let sorted = Option.value force_sorted ~default:true in
      let idx cls preds = pinned_access stats db ~cls ~preds ~sorted ~force_seq in
      let seq cls preds = Plan.Seq_scan { cls; preds } in
      let parent_access, child_access =
        match algo with
        | Plan.NL -> (idx parent_cls parent_preds, seq child_cls child_preds)
        | Plan.NOJOIN -> (seq parent_cls parent_preds, idx child_cls child_preds)
        | Plan.PHJ | Plan.CHJ | Plan.PHHJ | Plan.CHHJ | Plan.SMJ ->
            (idx parent_cls parent_preds, idx child_cls child_preds)
      in
      Plan.Hier_join
        {
          algo;
          parent_var;
          parent_cls;
          child_var;
          child_cls;
          set_attr;
          inv_attr;
          parent_access;
          child_access;
          partitions = Enumerate.partitions (Lazy.force stats) bound algo;
          select;
          aggregate;
        }
  | Plan.B_selection _, _ | Plan.B_hier _, None ->
      (pick ~stats:(Lazy.force stats)
         ~organization:(organization_for db bound organization)
         ~batch:256
         ~honour:(honour ~force_seq ~force_sorted)
         db bound)
        .d_plan

let plan_o2 db q = plan ~force_algo:Plan.NL ~force_sorted:false db q

let run ?organization ?force_algo ?force_sorted ?force_seq ?packed ?batch
    ?(keep = false) db text =
  let q = Oql_parser.parse text in
  let p = plan ?organization ?force_algo ?force_sorted ?force_seq db q in
  Exec.run db (lower ?packed ?batch p) ~keep

let run_explained ?organization ?force_algo ?force_sorted ?force_seq
    ?packed ?batch ?(keep = false) db text =
  let q = Oql_parser.parse text in
  let p = plan ?organization ?force_algo ?force_sorted ?force_seq db q in
  let root = lower ?packed ?batch p in
  let result, global = Exec.run_explained db root ~keep in
  (result, root, global)

(* Planning happens against shard 0: every shard replicates the schema and
   index set, and shard-0 statistics (1/S of the data) rank algorithms the
   same way the global statistics do for our uniform generators. *)
let run_sharded_explained ?organization ?force_algo ?force_sorted
    ?force_seq ?packed ?batch ?(keep = false) smap text =
  let db0 = Shard_map.shard smap 0 in
  let q = Oql_parser.parse text in
  let p = plan ?organization ?force_algo ?force_sorted ?force_seq db0 q in
  let root = lower_sharded ?packed ?batch smap p in
  if Shard_map.count smap = 1 then
    let result, global = Exec.run_explained db0 root ~keep in
    ( result,
      root,
      global,
      {
        Exec.lane_ms = [| global.Op.t_ms |];
        merge_ms = 0.0;
        elapsed_ms = global.Op.t_ms;
        critical = 0;
        failovers = [];
        degraded = false;
      } )
  else
    let result, global, lanes = Exec.run_sharded_explained smap root ~keep in
    (result, root, global, lanes)

let run_sharded ?organization ?force_algo ?force_sorted ?force_seq
    ?packed ?batch ?keep smap text =
  let result, _, _, _ =
    run_sharded_explained ?organization ?force_algo ?force_sorted
      ?force_seq ?packed ?batch ?keep smap text
  in
  result

(* --- the optimizer pipeline: enumerate -> cost -> pick -> validate --- *)

(* [optimize db text] runs the first three stages over the whole candidate
   space.  Statistics default to a fresh [Stat_catalog.analyze]; pass a
   retained catalog to let validate-stage feedback from earlier runs reach
   this optimization. *)
let optimize ?stats ?organization ?(batch = 256) db text =
  let q = Oql_parser.parse text in
  let stats = match stats with Some s -> s | None -> Sc.analyze db in
  let bound = Plan.bind db q in
  pick ~stats ~organization:(organization_for db bound organization) ~batch db
    bound

(* Optimize, execute, validate: the full four-stage pipeline.  The
   returned checks carry per-operator q-errors; mis-estimates have already
   fed corrections back into the decision's catalog. *)
let run_optimized_explained ?stats ?organization ?batch ?(keep = false) db text =
  let d = optimize ?stats ?organization ?batch db text in
  let result, global = Exec.run_explained db d.d_root ~keep in
  let checks = Exec.validate ~stats:d.d_stats d.d_root in
  (result, d, global, checks)

(* --- sharded break-even from statistics alone --- *)

type shard_decision = {
  sd_shards : int;
  sd_unsharded_ms : float;  (* best single-node candidate *)
  sd_sharded_ms : float;  (* the same plan sharded, fork/join elapsed *)
  sd_use_sharded : bool;
  sd_decision : decision;  (* the underlying single-node optimization *)
}

(* Compare the best single-node plan against its sharded rewrite, both
   costed from the merged global catalog (each Shard_lane estimates
   against a 1/S-scaled view).  Nothing executes: the break-even comes
   from statistics alone. *)
let optimize_sharded ?organization ?(batch = 256) smap text =
  let shards = Shard_map.count smap in
  let stats =
    Sc.merge
      (List.init shards (fun s -> Sc.analyze (Shard_map.shard smap s)))
  in
  let d = optimize ~stats ?organization ~batch (Shard_map.shard smap 0) text in
  let sharded_ms =
    if shards = 1 then d.d_cost_ms
    else begin
      let root = lower_sharded ~packed:d.d_packed ~batch smap d.d_plan in
      Estimate.annotate ~stats ~organization:d.d_organization root;
      Estimate.plan_cost_ms root
    end
  in
  {
    sd_shards = shards;
    sd_unsharded_ms = d.d_cost_ms;
    sd_sharded_ms = sharded_ms;
    sd_use_sharded = sharded_ms < d.d_cost_ms;
    sd_decision = d;
  }
