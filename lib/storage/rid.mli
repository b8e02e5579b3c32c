(** Physical record identifiers.

    O2's internal [Rid] type is a physical disk address (the [@p1], [@d2]
    markers of Figure 2).  The paper's join study deliberately targets
    physical identifiers (in contrast to the logical OIDs of Braumandl et
    al.), so a Rid here is exactly a (file, page, slot) triple.  Rids order
    by physical position — sorting Rids before fetching is the Section 4.2
    optimization that makes unclustered index scans sequential.

    A Rid is one immediate int (file in 20 bits, page in 26, slot in 16),
    so creating, copying, comparing and hashing one never allocates. *)

type t = private int

(** Raises [Invalid_argument] when a component is negative or does not fit
    its field: file above 2{^20}-1, page above 2{^26}-1, slot above
    2{^16}-1. *)
val make : file:int -> page:int -> slot:int -> t

(** A sentinel used for "nil" references (a retired doctor's patients...).
    It is [-1], the least Rid. *)
val nil : t

val is_nil : t -> bool

(** The components; all three are [-1] for {!nil}. *)
val file : t -> int
val page : t -> int
val slot : t -> int

(** Physical order: file, then page, then slot. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** FNV-1a over the (file, page, slot) triple: the same value as when a
    Rid was a record, independent of the packing. *)
val hash : t -> int

(** Bytes a Rid occupies on disk (the paper counts 8 per identifier). *)
val on_disk_bytes : int

(** Fixed-width binary encoding, [on_disk_bytes] long: file as 16 bits,
    page as 32, slot as 16, little-endian.  A first field of all ones
    marks {!nil}, so files 0 to 0xfffe round-trip. *)
val encode : t -> bytes

(** [encode_into t b ~pos] writes the encoding at [pos] without
    allocating. *)
val encode_into : t -> Bytes.t -> pos:int -> unit

val decode : bytes -> pos:int -> t
val pp : Format.formatter -> t -> unit
val to_string : t -> string
