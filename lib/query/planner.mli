(** Plan construction: pinned plans and the cost-based optimizer.

    A plan is {e pinned} when the caller fixes its choices: a selection by
    [force_seq:true] or any [force_sorted], a join by [force_algo].  A
    pinned plan is built directly, with no cost model: each side takes the
    most selective indexable conjunct (sorted Rids unless
    [force_sorted:false]; a scan under [force_seq] or when no index
    applies), and hybrid joins get enough spill partitions for their build
    side — the same {!Enumerate} helpers over one
    {!Tb_statcore.Stat_catalog.analyze} the optimizer uses.  The figures,
    the golden fingerprint and the host benchmark run pinned plans only.

    Every choice left unpinned goes through {!optimize}'s argmin over the
    per-operator cost model ({!Estimate.annotate}), restricted to the
    candidates that honour the pins given.

    O2's navigation-biased heuristic (Section 2: an available index is
    always taken, unsorted — Section 4.2 shows O2 did not sort Rids — and
    hierarchical joins are evaluated by navigation) is the pinned
    configuration [~force_algo:NL ~force_sorted:false], named
    {!plan_o2}. *)

(** [plan db q] binds [q] and builds its physical plan, pinned or chosen
    by the optimizer as described above.

    [organization] tells the cost model how the database was laid out
    (defaults to [Separate_files] when the two classes live in different
    files, [Shared_random] otherwise — composition clustering cannot be
    detected from the catalog and must be declared); pinned plans ignore
    it.  Raises {!Plan.Unsupported} on queries outside the subset or
    naming unknown extents or attributes. *)
val plan :
  ?organization:Estimate.organization ->
  ?force_algo:Plan.join_algo ->
  ?force_sorted:bool ->
  ?force_seq:bool ->
  Tb_store.Database.t ->
  Oql_ast.query ->
  Plan.t

(** [plan_o2 db q] is O2's heuristic plan: [plan ~force_algo:NL
    ~force_sorted:false]. *)
val plan_o2 : Tb_store.Database.t -> Oql_ast.query -> Plan.t

(** [lower plan] assembles the physical operator tree {!Exec} runs.  Pure
    plan surgery — no database access, no charges: attribute names stay
    symbolic and the executor resolves slots once per operator.

    [packed] (default true) lets Fetch/Harvest evaluate on raw record
    bytes whenever the predicates are packed-compilable
    ({!Packed.compilable} — decided from the predicate constants alone, so
    lowering stays pure); non-compilable predicates fall back to the
    Handle path, visible as [mode=handle] in the lowered tree.  [batch]
    (default 256) sets the rows-per-vector of the Rid streams feeding
    Fetch.  Neither knob moves a single simulated charge.

    Raises {!Plan.Unsupported} when the algorithm needs an inverse
    reference the schema does not declare, [Invalid_argument] when
    NL/NOJOIN receive an index access on the navigated side (the planner
    never builds those). *)
val lower : ?packed:bool -> ?batch:int -> Plan.t -> Op.t

(** Parse, plan and execute in one call (the public "just run it" API). *)
val run :
  ?organization:Estimate.organization ->
  ?force_algo:Plan.join_algo ->
  ?force_sorted:bool ->
  ?force_seq:bool ->
  ?packed:bool ->
  ?batch:int ->
  ?keep:bool ->
  Tb_store.Database.t ->
  string ->
  Query_result.t

(** Like {!run}, but returns the executed operator tree (frames populated)
    and the run's global counter deltas, ready for {!Op.pp_report}. *)
val run_explained :
  ?organization:Estimate.organization ->
  ?force_algo:Plan.join_algo ->
  ?force_sorted:bool ->
  ?force_seq:bool ->
  ?packed:bool ->
  ?batch:int ->
  ?keep:bool ->
  Tb_store.Database.t ->
  string ->
  Query_result.t * Op.t * Op.totals

(** [lower_sharded smap plan] rewrites [plan] into per-shard subtrees
    under an {!Op.Gather} root.  Shard-local algorithms (selections, NL,
    NOJOIN, SMJ — sound because placement colocates each provider with its
    patients) get one plain subtree per shard; hash joins get both sides
    harvested locally and routed through {!Op.Exchange} by retagged join
    key (PHHJ/CHHJ degenerate to PHJ/CHJ: repartitioning already splits
    the build side S ways).  Index accesses are remapped to each shard's
    replicated catalog entry.  With a single shard this returns exactly
    [lower plan] — no Gather, no Shard_lane — so the S=1 engine is the
    unsharded engine by construction. *)
val lower_sharded : ?packed:bool -> ?batch:int -> Tb_store.Shard_map.t -> Plan.t -> Op.t

(** Parse, plan (against shard 0) and execute across the shard map. *)
val run_sharded :
  ?organization:Estimate.organization ->
  ?force_algo:Plan.join_algo ->
  ?force_sorted:bool ->
  ?force_seq:bool ->
  ?packed:bool ->
  ?batch:int ->
  ?keep:bool ->
  Tb_store.Shard_map.t ->
  string ->
  Query_result.t

(** Like {!run_sharded}, but also returns the executed tree (per-shard
    frames populated), the global work totals ([Op.reconciles] holds), and
    the {!Exec.lane_report} with per-shard elapsed and the critical-path
    shard.  At S=1 the report is a single lane equal to the run's total. *)
val run_sharded_explained :
  ?organization:Estimate.organization ->
  ?force_algo:Plan.join_algo ->
  ?force_sorted:bool ->
  ?force_seq:bool ->
  ?packed:bool ->
  ?batch:int ->
  ?keep:bool ->
  Tb_store.Shard_map.t ->
  string ->
  Query_result.t * Op.t * Op.totals * Exec.lane_report

(** {2 The optimizer pipeline — enumerate → cost → pick → validate} *)

(** One costed candidate, for explain output and snapshots. *)
type choice = {
  ch_desc : string;  (** e.g. ["PHJ parent=index child=seq packed"] *)
  ch_packed : bool;
  ch_cost_ms : float;
}

(** The pick stage's output: the chosen plan, its lowered and annotated
    tree (ready to execute), and the whole ranked candidate space. *)
type decision = {
  d_plan : Plan.t;
  d_root : Op.t;
  d_desc : string;
  d_packed : bool;
  d_cost_ms : float;
  d_candidates : choice list;  (** ranked best-first; ties keep enumeration order *)
  d_stats : Tb_statcore.Stat_catalog.t;
  d_organization : Estimate.organization;
}

(** [optimize db text] enumerates every candidate plan, costs each by
    lowering and annotating it against catalog statistics, and picks the
    strict argmin — on equal cost the first enumerated candidate wins,
    which enforces the tie policy (the paper's originals over extensions,
    index over scan, packed over handle).  [stats] defaults to a fresh
    {!Tb_statcore.Stat_catalog.analyze}; pass a retained catalog so
    validate-stage feedback reaches the next optimization.  Never
    executes and never charges. *)
val optimize :
  ?stats:Tb_statcore.Stat_catalog.t ->
  ?organization:Estimate.organization ->
  ?batch:int ->
  Tb_store.Database.t ->
  string ->
  decision

(** The full pipeline: optimize, execute the chosen tree, then validate —
    reconcile every operator's estimate against its accounted frame,
    feeding mis-estimates (q-error > 2) back into the decision's
    catalog. *)
val run_optimized_explained :
  ?stats:Tb_statcore.Stat_catalog.t ->
  ?organization:Estimate.organization ->
  ?batch:int ->
  ?keep:bool ->
  Tb_store.Database.t ->
  string ->
  Query_result.t * decision * Op.totals * Exec.est_check list

(** The sharded-vs-unsharded break-even, decided from statistics alone. *)
type shard_decision = {
  sd_shards : int;
  sd_unsharded_ms : float;
  sd_sharded_ms : float;
  sd_use_sharded : bool;
  sd_decision : decision;
}

(** [optimize_sharded smap text] optimizes against the merged global
    catalog, then costs the chosen plan's sharded rewrite (each lane
    against a 1/S-scaled view, fork/join elapsed at the Gather) and says
    which side of the break-even the query falls on.  Nothing executes. *)
val optimize_sharded :
  ?organization:Estimate.organization ->
  ?batch:int ->
  Tb_store.Shard_map.t ->
  string ->
  shard_decision
