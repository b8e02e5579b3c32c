(** Regeneration of every table and figure in the paper's evaluation, plus
    the ablations DESIGN.md calls out.

    All experiments run at [1/scale] of the paper's cardinalities with
    memory scaled identically, so page/cache and table/RAM ratios — and
    therefore winners and crossovers — are preserved.  Simulated times are
    roughly [1/scale] of the paper's seconds.

    Every measured run is also recorded as a [Stat] object in the context's
    stats database (Section 3.3, dogfooded). *)

type ctx

(** [create ~scale] — [scale] must be positive; the paper's own size is
    [scale = 1]. *)
val create : scale:int -> ctx

val scale : ctx -> int
val stats : ctx -> Tb_statdb.Stat_store.t

(** Each figure prints its table(s) to [ppf] and returns. *)

val fig6 : ctx -> Format.formatter -> unit
(** Reconstructed: selection with an (unsorted) unclustered index vs no
    index across selectivities — the duplicate-I/O effect of Section 4.2. *)

val fig7 : ctx -> Format.formatter -> unit
(** Sorted unclustered index vs no index. *)

val fig9 : ctx -> Format.formatter -> unit
(** Cost decomposition: standard scan vs sorted index scan at 90%. *)

val fig10 : ctx -> Format.formatter -> unit
(** Hash-table sizes: paper's approximations vs our model at paper scale,
    and measured peaks at bench scale. *)

val fig11 : ctx -> Format.formatter -> unit
val fig12 : ctx -> Format.formatter -> unit
val fig13 : ctx -> Format.formatter -> unit
val fig14 : ctx -> Format.formatter -> unit

val fig15 : ctx -> Format.formatter -> unit
(** Summary: winning algorithm per organization, including the randomized
    one. *)

val loading : ctx -> Format.formatter -> unit
(** Section 3.2 ablations: transaction mode, cache split, first-index
    reallocation. *)

val handles : ctx -> Format.formatter -> unit
(** Section 4.4 ablation: fat vs compact Handles. *)

val assoc : ctx -> Format.formatter -> unit
(** Section 5.3's proposed association-ordered layout vs class and
    composition clustering. *)

val hybrid : ctx -> Format.formatter -> unit
(** The extension Section 5.1 calls for: hybrid hash joins that spill
    partitions instead of swapping, on the memory-bound Figure 12 cells. *)

val sortjoin : ctx -> Format.formatter -> unit
(** The sort-merge joins the authors dropped early, reproduced losing. *)

val warm : ctx -> Format.formatter -> unit
(** Warm navigation under both Handle designs: the Section 4.4 claim that
    fixing cold associative access need not hurt in-memory navigation. *)

val aggregates : ctx -> Format.formatter -> unit
(** Result construction vs aggregation: what Section 4.2's 18-minute
    collection would have cost as a [count(...)]. *)

val costmodel : ctx -> Format.formatter -> unit
(** Predicted vs measured times for every algorithm and cell: the
    optimizer's per-operator cost model ({!Tb_query.Estimate.plan_cost_ms}
    over each pinned join plan) against the simulator — the validated cost
    model the paper set out to build. *)

val costmodel_verdict : ctx -> int * int
(** [(hits, cells)] of the {!costmodel} check: in how many of its cells
    the predicted winner is the measured one. *)

val oo7 : ctx -> Format.formatter -> unit
(** A miniature 007 benchmark: warm traversals vs one cold associative
    sweep — why the costs of Section 4 never showed up on the benchmarks
    object systems were tuned with. *)

val all : ctx -> Format.formatter -> unit

(** Names accepted by {!by_name}. *)
val names : string list

(** [by_name name] — raises [Not_found] for unknown names. *)
val by_name : string -> ctx -> Format.formatter -> unit
