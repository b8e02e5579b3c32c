(** Stage one of the optimizer pipeline: the candidate space.

    Expands a bound query into every (join algorithm × access path per
    side × packed/handle mode) plan the lowering can execute, in an order
    that encodes the tie policy — the cost stage's argmin keeps the first
    candidate on equal cost, so index paths precede scans, the paper's
    algorithms keep {!all_algos} order, and packed precedes handle
    evaluation.  Pure catalog arithmetic: no page access, no charges.

    The helpers below are shared with {!Planner.plan}'s pinned plans, so a
    pinned plan and the optimizer pick the same index and size the same
    hybrid partitions. *)

type candidate = {
  c_plan : Plan.t;
  c_packed : bool;  (** lower with packed-bytes evaluation *)
  c_desc : string;
      (** human-readable shape, e.g. ["PHJ parent=index child=seq packed"] *)
}

(** Every join algorithm in candidate order: the paper's four originals
    (NL, NOJOIN, PHJ, CHJ) before the extensions, so they win ties. *)
val all_algos : Plan.join_algo list

(** [best_index stats db ~cls preds] is the most selective indexable
    conjunct of [preds] (by catalog selectivity) as an index access with
    the other conjuncts residual, waiting for its sorted-Rid flag; [None]
    when no conjunct has an index. *)
val best_index :
  Tb_statcore.Stat_catalog.t ->
  Tb_store.Database.t ->
  cls:string ->
  Plan.attr_pred list ->
  (sorted:bool -> Plan.access) option

(** [partitions stats bound algo] is the hybrid spill-partition count: for
    PHHJ/CHHJ, enough partitions that each bucket of the build side fits
    in 80% of the RAM budget; 1 for every other algorithm. *)
val partitions :
  Tb_statcore.Stat_catalog.t -> Plan.bound -> Plan.join_algo -> int

(** The full candidate list for a bound query.  Inverse-requiring
    algorithms are dropped when the schema declares no back-reference;
    NL's child side and NOJOIN's parent side stay scans (their predicates
    are evaluated during navigation). *)
val candidates :
  Tb_statcore.Stat_catalog.t ->
  Tb_store.Database.t ->
  Plan.bound ->
  candidate list
