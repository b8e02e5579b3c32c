(** Per-object disk headers.

    Section 3.2's hard truth: when an object becomes persistent inside an
    indexed collection, O2 gives it a header with room for 8 index entries;
    objects created unindexed get no such room.  Creating the *first* index
    after loading therefore reallocates every object on disk — destroying
    both hours and the carefully imposed physical organization.  We
    reproduce that exactly: the header's encoded size depends on whether
    index slots were provisioned, and {!Database.create_index} must rewrite
    (and possibly relocate) objects whose headers lack slots. *)

type t

(** Slots provisioned when an object is created as a member of an indexed
    collection. *)
val default_slot_count : int

(** The most slots a header can carry: the encoded slot count is one byte. *)
val max_slots : int

(** [create ~class_id ~indexed] — [indexed] provisions
    [default_slot_count] empty index slots. *)
val create : class_id:int -> indexed:bool -> t

val class_id : t -> int

(** Index ids this object belongs to. *)
val indexes : t -> int list

val has_slots : t -> bool

(** [add_index t idx] records membership; grows the slot array beyond
    {!default_slot_count} when needed ("it can be extended if required").
    Raises [Invalid_argument] if the header has no slot space at all —
    the object must be reallocated with a slotted header first — or if
    growing would take the slot count past {!max_slots}. *)
val add_index : t -> int -> t

val remove_index : t -> int -> t

(** [with_slots t] is [t] with slot space provisioned (used during the
    reallocation pass). *)
val with_slots : t -> t

val deleted : t -> bool
val set_deleted : t -> bool -> t

(** Encoded size in bytes: 3 without slots, [4 + 2*slots] with. *)
val encoded_size : t -> int

val encode : t -> bytes

(** [encode_into t b ~pos] writes the {!encoded_size} bytes of [t] at [pos]
    and returns the position just past them. *)
val encode_into : t -> bytes -> pos:int -> int
val decode : bytes -> pos:int -> t * int

(** [peek_class_id b ~pos] reads just the class id of a header encoded at
    [pos] — no allocation. *)
val peek_class_id : bytes -> pos:int -> int

(** [peek_deleted b ~pos] reads just the deleted flag — no allocation. *)
val peek_deleted : bytes -> pos:int -> bool

(** [skip b ~pos] is the offset just past the header encoded at [pos]
    (i.e. where the attribute values begin), without decoding it. *)
val skip : bytes -> pos:int -> int

(** {2 Editing a header in place} *)

(** [find_slot b ~pos idx] is the slot {!add_index} would record [idx] in
    for the header encoded at [pos]: the slot already holding [idx], else
    the first empty one.  [-1] when the header has no slots or none free —
    it must grow, which changes the record's length. *)
val find_slot : bytes -> pos:int -> int -> int

(** [set_slot b ~pos i idx] writes [idx] into slot [i] of the header
    encoded at [pos]; the header's length does not change. *)
val set_slot : bytes -> pos:int -> int -> int -> unit
