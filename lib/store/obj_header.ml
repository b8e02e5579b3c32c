(* Encoding: u16 class id; u8 flags (bit 0 = has slots, bit 1 = deleted);
   if slotted: u8 slot count then u16 per slot (0xFFFF = empty). *)

type t = { class_id : int; deleted : bool; slots : int array option }

let default_slot_count = 8
let max_slots = 0xFF
let empty_slot = 0xFFFF

let create ~class_id ~indexed =
  {
    class_id;
    deleted = false;
    slots = (if indexed then Some (Array.make default_slot_count empty_slot) else None);
  }

let class_id t = t.class_id

let indexes t =
  match t.slots with
  | None -> []
  | Some slots ->
      Array.fold_right
        (fun s acc -> if s <> empty_slot then s :: acc else acc)
        slots []

let has_slots t = Option.is_some t.slots

let add_index t idx =
  if idx < 0 || idx >= empty_slot then invalid_arg "Obj_header.add_index: id";
  match t.slots with
  | None ->
      invalid_arg
        "Obj_header.add_index: object created without index slots; reallocate \
         it first"
  | Some slots ->
      if Array.exists (fun s -> s = idx) slots then t
      else begin
        let free = ref (-1) in
        Array.iteri (fun i s -> if s = empty_slot && !free < 0 then free := i) slots;
        let slots =
          if !free >= 0 then begin
            let slots = Array.copy slots in
            slots.(!free) <- idx;
            slots
          end
          else begin
            (* Extend: the header grows, as the O2 documentation allows —
               up to what the u8 slot count can describe. *)
            if Array.length slots + default_slot_count > max_slots then
              invalid_arg "Obj_header.add_index: slot count would exceed 255";
            let bigger = Array.make (Array.length slots + default_slot_count) empty_slot in
            Array.blit slots 0 bigger 0 (Array.length slots);
            bigger.(Array.length slots) <- idx;
            bigger
          end
        in
        { t with slots = Some slots }
      end

let remove_index t idx =
  match t.slots with
  | None -> t
  | Some slots ->
      let slots = Array.map (fun s -> if s = idx then empty_slot else s) slots in
      { t with slots = Some slots }

let with_slots t =
  match t.slots with
  | Some _ -> t
  | None -> { t with slots = Some (Array.make default_slot_count empty_slot) }

let deleted t = t.deleted
let set_deleted t deleted = { t with deleted }

let encoded_size t =
  match t.slots with None -> 3 | Some slots -> 4 + (2 * Array.length slots)

let encode_into t b ~pos =
  Bytes.set_uint16_le b pos t.class_id;
  let flags =
    (if Option.is_some t.slots then 1 else 0) lor if t.deleted then 2 else 0
  in
  Bytes.set_uint8 b (pos + 2) flags;
  match t.slots with
  | None -> pos + 3
  | Some slots ->
      Bytes.set_uint8 b (pos + 3) (Array.length slots);
      Array.iteri (fun i s -> Bytes.set_uint16_le b (pos + 4 + (2 * i)) s) slots;
      pos + 4 + (2 * Array.length slots)

let encode t =
  let b = Bytes.create (encoded_size t) in
  ignore (encode_into t b ~pos:0 : int);
  b

(* Header peeking for the packed read path: pull the class id and the body
   offset out of a raw record without materializing the slots array. *)
let peek_class_id b ~pos = Bytes.get_uint16_le b pos
let peek_deleted b ~pos = Bytes.get_uint8 b (pos + 2) land 2 <> 0

let skip b ~pos =
  if Bytes.get_uint8 b (pos + 2) land 1 = 0 then pos + 3
  else pos + 4 + (2 * Bytes.get_uint8 b (pos + 3))

(* In-place membership for the index build: the slot [add_index] would
   write [idx] into — the one already holding it, else the first empty one
   — or [-1] when the header has no room and must grow. *)
let find_slot b ~pos idx =
  if Bytes.get_uint8 b (pos + 2) land 1 = 0 then -1
  else begin
    let n = Bytes.get_uint8 b (pos + 3) in
    let holding = ref (-1) and empty = ref (-1) in
    for i = n - 1 downto 0 do
      let s = Bytes.get_uint16_le b (pos + 4 + (2 * i)) in
      if s = idx then holding := i else if s = empty_slot then empty := i
    done;
    if !holding >= 0 then !holding else !empty
  end

let set_slot b ~pos i idx = Bytes.set_uint16_le b (pos + 4 + (2 * i)) idx

let decode b ~pos =
  let class_id = Bytes.get_uint16_le b pos in
  let flags = Bytes.get_uint8 b (pos + 2) in
  let deleted = flags land 2 <> 0 in
  if flags land 1 = 0 then ({ class_id; deleted; slots = None }, pos + 3)
  else begin
    let n = Bytes.get_uint8 b (pos + 3) in
    let slots = Array.init n (fun i -> Bytes.get_uint16_le b (pos + 4 + (2 * i))) in
    ({ class_id; deleted; slots = Some slots }, pos + 4 + (2 * n))
  end
