(** Heap files: variable-length records addressed by {!Rid}.

    A heap file appends records to its tail page up to the fill target (O2
    "always leaves some extra space to deal with growing strings or
    collections" — Section 2), so insertion order is physical order.  That
    single property is what the three clustering strategies of Figure 2
    exploit: the loader controls placement purely by choosing the order in
    which it creates objects.

    Records that outgrow their page on update are relocated and a forwarding
    stub is left at the original Rid, preserving physical identifiers at the
    cost of an extra hop — the price of updates "resulting in size increase"
    the paper warns about in Section 5.2. *)

type t

(** [create stack ~name] allocates a fresh file on [stack]'s disk. *)
val create : Cache_stack.t -> name:string -> t

(** [create_temp stack] allocates a scratch file (spill partitions and the
    like) whose name derives from the disk's current file count, so no
    caller-side counter — and no process-global state — is needed. *)
val create_temp : Cache_stack.t -> t

(** [of_file stack ~file] wraps an existing disk file id. *)
val of_file : Cache_stack.t -> file:int -> t

val file_id : t -> int
val page_count : t -> int

(** Live records (excluding forwarding stubs). *)
val record_count : t -> int

(** [insert t body] appends a record, returns its Rid. *)
val insert : t -> bytes -> Rid.t

(** [insert_with t ~len write] is [insert] of a [len]-byte body that
    [write b pos] produces in place at [pos] of the record buffer — the body
    is written once, with no intermediate copy.  [write] must fill exactly
    [len] bytes. *)
val insert_with : t -> len:int -> (bytes -> int -> unit) -> Rid.t

(** [read t rid] fetches the record body, following at most one forwarding
    hop. Raises [Not_found] on a dead Rid. *)
val read : t -> Rid.t -> bytes

(** Where {!locate} found a record body, filled in place. *)
type loc = {
  mutable l_slot : int;
      (** physical slot on the returned page whose record holds the body;
          differs from [rid.slot] for relocated bodies *)
  mutable l_off : int;  (** that record's offset in the page buffer *)
  mutable l_pos : int;  (** the body's offset in the page buffer *)
  mutable l_len : int;  (** the body's length *)
}

(** A fresh [loc]; callers on a hot path keep one and reuse it. *)
val new_loc : unit -> loc

(** [locate t rid loc] resolves [rid] to the page object holding the
    record's body and fills [loc] with the body's place on it — following
    at most one forwarding hop.  Charges are identical to {!read} (one
    cache fetch per page touched); no copy is made and nothing is
    allocated.  The span is valid until the page next compacts; use
    [l_slot] with {!Page_layout.record_offset} to re-derive it.  Raises
    [Not_found] on a dead Rid. *)
val locate : t -> Rid.t -> loc -> Page_layout.t

(** [with_record_bytes t rid ~f] runs [f buf ~pos ~len] on the record's
    body in place, with the page pinned for the duration of [f].  [f] must
    not mutate the buffer or move records on the page. *)
val with_record_bytes :
  t -> Rid.t -> f:(bytes -> pos:int -> len:int -> 'a) -> 'a

(** [update t rid body] rewrites the record; relocates and leaves a
    forwarding stub when the body no longer fits near its page. *)
val update : t -> Rid.t -> bytes -> unit

(** [update_with t rid ~len write] is [update] of a [len]-byte body that
    [write b pos] produces in place.  [write] runs once, before the first
    write fetch and before any page changes, so it may copy from bytes
    {!locate} returned for [rid]. *)
val update_with : t -> Rid.t -> len:int -> (bytes -> int -> unit) -> unit

(** [patch t rid f] edits the record's body in place: [f buf ~pos ~len]
    sees the body span in the page buffer and may overwrite bytes inside
    it, never its length.  The page fetches for writing are exactly those
    of {!update} (home page, then the relocated body's page when [rid]
    holds a forwarding stub), and the page is marked modified afterwards —
    so a patch is an equal-length [update] without building the body. *)
val patch : t -> Rid.t -> (bytes -> pos:int -> len:int -> unit) -> unit

(** [delete t rid] removes the record (and its relocated body if any). *)
val delete : t -> Rid.t -> unit

(** [scan t f] visits every live record in physical order — the sequential
    access path. Forwarded bodies are visited at their *original* Rid. *)
val scan : t -> (Rid.t -> bytes -> unit) -> unit

(** [iter_page_records t ~page f] visits the live records of one page. *)
val iter_page_records : t -> page:int -> (Rid.t -> bytes -> unit) -> unit

(** [iter_page_spans t ~page f] visits the live records of one page without
    copying: [f rid buf pos len] sees each body in place in the page
    buffer.  Same visiting order and Rid presentation as
    {!iter_page_records}; [f] must not mutate the buffer. *)
val iter_page_spans :
  t -> page:int -> (Rid.t -> bytes -> int -> int -> unit) -> unit

val cache : t -> Cache_stack.t

(** {2 Checkpoint support}

    The tail (the page index currently receiving inserts; [-1] when empty)
    is the only volatile state a heap file carries; recovery snapshots and
    restores it alongside the catalog. *)

val tail : t -> int
val set_tail : t -> int -> unit
