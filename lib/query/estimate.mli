(** The optimizer's cost model.

    The project the paper set out on — "what statistics the system should
    maintain and how to incorporate them into a cost model" — distilled
    into per-operator estimates of the event counts the simulator charges:
    page reads (sequential vs random through an LRU cache), Handle pairs,
    hash traffic, Rid sorts, result construction and swap thrash.
    {!annotate} writes one estimate on every operator of a lowered tree and
    {!plan_cost_ms} sums them; {!Planner.optimize} ranks candidate plans by
    that sum.  This is the only cost model: pinned plans are built without
    one. *)

type organization =
  | Separate_files  (** one file per class (Figure 2 left) *)
  | Shared_random  (** everything in one file, randomly (Figure 2 middle) *)
  | Shared_composition
      (** children clustered behind their parent (Figure 2 right) *)
  | Assoc_clustered
      (** Section 5.3's alternative: separate files, children stored in
          parent-association order *)

(** Expected distinct pages touched when [n] uniform references hit a
    [pages]-page file.  Clamped at both boundaries: zero when the file is
    empty (or [n] non-positive), and saturating at [pages] once [n] covers
    every stored row ([rows_per_page], default infinity, sets that limit). *)
val distinct_pages : ?rows_per_page:float -> n:float -> pages:float -> unit -> float

(** {2 Per-operator estimation — the optimizer's cost stage}

    [annotate] attaches the cost components to the operators that will
    actually accrue them, writing one {!Op.est} per node of a lowered
    tree.  Pure arithmetic over {!Tb_statcore.Stat_catalog} statistics —
    no database access, no charges — and every ms figure passes through
    the catalog's per-key correction, which is how validate-stage feedback
    reaches the next optimization round. *)

(** The feedback/correction key for an operator: its opcode plus the class
    it works over, so the two sides of a join correct independently. *)
val est_key : Op.t -> string

(** Predicate selectivity from catalog statistics: the indexed histogram
    window when an index covers the attribute, System-R magic numbers
    otherwise. *)
val stat_pred_sel : Tb_statcore.Stat_catalog.t -> cls:string -> Plan.attr_pred -> float

(** Write an estimate on every node of a lowered tree (bottom-up). *)
val annotate :
  stats:Tb_statcore.Stat_catalog.t -> ?organization:organization -> Op.t -> unit

(** Plan-level estimated elapsed ms over an annotated tree: a plain sum,
    except a Gather root takes the slowest lane plus its own shipping
    (fork/join, mirroring the simulated clock's lane model). *)
val plan_cost_ms : Op.t -> float
