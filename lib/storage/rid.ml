(* A Rid packed into one immediate int: file in bits 42..61, page in bits
   16..41, slot in bits 0..15.  Every valid Rid is non-negative and the
   fields nest from most to least significant, so integer order is the
   physical (file, page, slot) order and [nil = -1] stays the least Rid.
   20 file bits leave room for [Exchange.retag]'s shard tag over the
   16-bit on-disk file id. *)

type t = int

let file_bits = 20
let page_bits = 26
let slot_bits = 16
let max_file = (1 lsl file_bits) - 1
let max_page = (1 lsl page_bits) - 1
let max_slot = (1 lsl slot_bits) - 1
let page_shift = slot_bits
let file_shift = slot_bits + page_bits

let make ~file ~page ~slot =
  if file < 0 || file > max_file then invalid_arg "Rid.make: file";
  if page < 0 || page > max_page then invalid_arg "Rid.make: page";
  if slot < 0 || slot > max_slot then invalid_arg "Rid.make: slot";
  (file lsl file_shift) lor (page lsl page_shift) lor slot

let nil = -1
let is_nil t = t < 0

(* Nil reads back as (-1, -1, -1), which keeps [hash nil] where it was. *)
let file t = if t < 0 then -1 else t lsr file_shift
let page t = if t < 0 then -1 else (t lsr page_shift) land max_page
let slot t = if t < 0 then -1 else t land max_slot
let compare = Int.compare
let equal : t -> t -> bool = Int.equal

(* FNV-1a over the (file, page, slot) triple, not the packed int, so the
   values predate the packing: routing ([Exchange.dest_of]) and the bucket
   layout of every [Hashtbl.Make (Rid)] are unchanged.  Deterministic
   across runs and OCaml versions (Hashtbl.hash is specified only
   per-version), masked non-negative so [hash t mod n] is a valid bucket
   index. *)
let hash t =
  let mix h x = (h lxor x) * 0x0100_0193 in
  mix (mix (mix 0x811c_9dc5 (file t)) (page t)) (slot t) land max_int

(* 2 bytes of file id, 4 of page number, 2 of slot: 8 bytes, as in the
   paper's size accounting. Nil encodes as all-ones. *)
let on_disk_bytes = 8

let encode_into t b ~pos =
  if is_nil t then Bytes.fill b pos on_disk_bytes '\xff'
  else begin
    Bytes.set_uint16_le b pos (file t);
    Bytes.set_int32_le b (pos + 2) (Int32.of_int (page t));
    Bytes.set_uint16_le b (pos + 6) (slot t)
  end

let encode t =
  let b = Bytes.create on_disk_bytes in
  encode_into t b ~pos:0;
  b

let decode b ~pos =
  if Bytes.get b pos = '\xff' && Bytes.get b (pos + 1) = '\xff' then nil
  else
    make
      ~file:(Bytes.get_uint16_le b pos)
      ~page:(Int32.to_int (Bytes.get_int32_le b (pos + 2)))
      ~slot:(Bytes.get_uint16_le b (pos + 6))

let pp ppf t =
  if is_nil t then Format.pp_print_string ppf "@nil"
  else Format.fprintf ppf "@%d:%d.%d" (file t) (page t) (slot t)

let to_string t = Format.asprintf "%a" pp t
