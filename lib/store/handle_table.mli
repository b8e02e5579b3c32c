(** The table of live (and not-yet-destroyed) Handles.

    O2 keeps one representative per object in memory, refcounted, and delays
    destruction "as much as possible so as to avoid unnecessary
    free/allocate" (Section 4.4).  We model that with a bounded FIFO of
    zombies: unreferenced Handles stay resident (and can be resurrected for
    free) until the zombie pool overflows, at which point the oldest are
    actually freed — each alloc and each free charging the per-kind CPU cost
    that Figure 9 identifies. *)

type t

(** [create sim ~kind ~zombie_limit] — [zombie_limit] is how many
    unreferenced Handles may linger before real destruction begins. *)
val create : Tb_sim.Sim.t -> kind:Tb_sim.Cost_model.handle_kind -> zombie_limit:int -> t

val kind : t -> Tb_sim.Cost_model.handle_kind

(** [acquire t rid ~load ctx] returns the object's Handle with its
    refcount bumped.  A resident Handle (live or zombie) is reused for
    almost nothing; otherwise a new one is allocated (charged, then its
    [mem_bytes] claimed) and [load ctx rid ~mem_bytes] builds it (usually
    {!Handle.make} over a {!Handle.Packed}).  If [load] raises, the claim
    is released and the exception propagates; nothing becomes resident. *)
val acquire :
  t ->
  Tb_storage.Rid.t ->
  load:('ctx -> Tb_storage.Rid.t -> mem_bytes:int -> Handle.t) ->
  'ctx ->
  Handle.t

(** [unreference t h] drops one reference; at zero the Handle becomes a
    zombie and may be destroyed later. Raises [Invalid_argument] if the
    refcount is already zero. *)
val unreference : t -> Handle.t -> unit

(** [find_resident t rid] peeks at a resident Handle without charging or
    changing its refcount (used to keep Handles coherent on update). *)
val find_resident : t -> Tb_storage.Rid.t -> Handle.t option

(** Handles currently resident (live + zombies). *)
val resident_count : t -> int

(** Destroy every resident Handle, charging the frees. *)
val flush : t -> unit

(** Drop everything without charging (used when simulating a process
    restart, whose teardown the paper does not measure). *)
val discard : t -> unit
