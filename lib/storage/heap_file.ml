(* On-page record framing: one tag byte then the payload.
   tag 0 = ordinary record: body follows;
   tag 1 = forwarding stub: 8-byte target Rid follows;
   tag 2 = relocated body: 8-byte home Rid, then the body.
   A record relocated by a growing update is thus visible both at its home
   slot (as a stub) and at its new location (as a relocated body that still
   knows its home Rid), so scans can present it under its physical
   identifier of record. Chains never exceed one hop. *)

let tag_normal = '\000'
let tag_forward = '\001'
let tag_relocated = '\002'

type t = {
  stack : Cache_stack.t;
  file : int;
  mutable tail : int; (* page currently receiving inserts; -1 when empty *)
}

let create stack ~name =
  let file = Disk.new_file (Cache_stack.disk stack) ~name in
  { stack; file; tail = -1 }

let create_temp stack =
  let name =
    Printf.sprintf "__temp_%d" (Disk.file_count (Cache_stack.disk stack))
  in
  create stack ~name

let of_file stack ~file =
  { stack; file; tail = Disk.page_count (Cache_stack.disk stack) file - 1 }

let file_id t = t.file
let page_count t = Disk.page_count (Cache_stack.disk t.stack) t.file
let cache t = t.stack
let tail t = t.tail

let set_tail t tail =
  if tail < -1 then invalid_arg "Heap_file.set_tail";
  t.tail <- tail

let fill_limit t =
  let cost = (Cache_stack.sim t.stack).Tb_sim.Sim.cost in
  int_of_float
    (float_of_int cost.Tb_sim.Cost_model.page_size
    *. cost.Tb_sim.Cost_model.page_fill)

(* One allocation per stored body: [write b pos] produces the [len] body
   bytes straight behind the tag byte. *)
let frame_normal ~len write =
  let b = Bytes.create (1 + len) in
  Bytes.set b 0 tag_normal;
  write b 1;
  b

let frame_stub target =
  let b = Bytes.create (1 + Rid.on_disk_bytes) in
  Bytes.set b 0 tag_forward;
  Rid.encode_into target b ~pos:1;
  b

(* The relocated framing of a normally framed body. *)
let frame_relocated ~home framed =
  let len = Bytes.length framed - 1 in
  let b = Bytes.create (1 + Rid.on_disk_bytes + len) in
  Bytes.set b 0 tag_relocated;
  Rid.encode_into home b ~pos:1;
  Bytes.blit framed 1 b (1 + Rid.on_disk_bytes) len;
  b

let body_of framed =
  match Bytes.get framed 0 with
  | c when c = tag_normal -> Bytes.sub framed 1 (Bytes.length framed - 1)
  | c when c = tag_relocated ->
      let skip = 1 + Rid.on_disk_bytes in
      Bytes.sub framed skip (Bytes.length framed - skip)
  | _ -> invalid_arg "Heap_file: not a body record"

let blit_body body b pos = Bytes.blit body 0 b pos (Bytes.length body)

let fresh_page t =
  let index = Disk.append_page (Cache_stack.disk t.stack) ~file:t.file in
  t.tail <- index;
  let pid = Page_id.make ~file:t.file ~index in
  (index, Cache_stack.fetch_for_write t.stack pid)

(* Insert a framed record, preferring the tail page below the fill target. *)
let insert_framed t framed =
  let len = Bytes.length framed in
  let try_page index =
    let pid = Page_id.make ~file:t.file ~index in
    let page = Cache_stack.fetch_for_write t.stack pid in
    let used =
      Page_layout.live_bytes page + (4 * Page_layout.slot_count page)
    in
    if used + len + 4 <= fill_limit t then Page_layout.insert page framed
    else None
  in
  let index, slot =
    match if t.tail >= 0 then try_page t.tail else None with
    | Some slot -> (t.tail, slot)
    | None ->
        let index, page = fresh_page t in
        let slot =
          match Page_layout.insert page framed with
          | Some s -> s
          | None -> failwith "Heap_file.insert: record larger than a page"
        in
        (index, slot)
  in
  Rid.make ~file:t.file ~page:index ~slot

let insert_with t ~len write = insert_framed t (frame_normal ~len write)
let insert t body = insert_with t ~len:(Bytes.length body) (blit_body body)

let page_of rid = Page_id.make ~file:(Rid.file rid) ~index:(Rid.page rid)

let fetch_slot t (rid : Rid.t) =
  let pid = page_of rid in
  let page = Cache_stack.fetch t.stack pid in
  (page, Page_layout.read page (Rid.slot rid))

let read t rid =
  let _, framed = fetch_slot t rid in
  if Bytes.get framed 0 = tag_forward then
    let target = Rid.decode framed ~pos:1 in
    let _, framed' = fetch_slot t target in
    body_of framed'
  else body_of framed

(* Zero-copy read path: resolve a Rid to the page object holding its body
   plus the body's span inside that page's buffer, following at most one
   forwarding hop.  The charge sequence (one fetch per page touched) is
   identical to [read]; the difference is purely host-side — no Bytes.sub.
   The page is returned; the rest lands in [loc], which callers own and
   reuse, so a locate allocates nothing.  [l_slot] is the physical slot on
   the page whose record contains the body (it differs from [rid.slot]
   when the record was relocated) and [l_off] that record's offset, so
   callers can re-derive the span after the page compacts under them. *)
type loc = {
  mutable l_slot : int;
  mutable l_off : int;
  mutable l_pos : int;
  mutable l_len : int;
}

let new_loc () = { l_slot = 0; l_off = 0; l_pos = 0; l_len = 0 }

let set_loc loc ~slot ~off ~hop ~len =
  loc.l_slot <- slot;
  loc.l_off <- off;
  loc.l_pos <- off + hop;
  loc.l_len <- len - hop

let locate t (rid : Rid.t) loc =
  let pid = page_of rid in
  let page = Cache_stack.fetch t.stack pid in
  let off = Page_layout.record_offset page (Rid.slot rid) in
  let len = Page_layout.record_length page (Rid.slot rid) in
  let buf = Page_layout.buffer page in
  match Bytes.get buf off with
  | c when c = tag_normal ->
      set_loc loc ~slot:(Rid.slot rid) ~off ~hop:1 ~len;
      page
  | c when c = tag_forward ->
      let target = Rid.decode buf ~pos:(off + 1) in
      let tpid = page_of target in
      let tpage = Cache_stack.fetch t.stack tpid in
      let toff = Page_layout.record_offset tpage (Rid.slot target) in
      if Bytes.get (Page_layout.buffer tpage) toff <> tag_relocated then
        invalid_arg "Heap_file.locate: stub does not point at a relocated body";
      set_loc loc ~slot:(Rid.slot target) ~off:toff ~hop:(1 + Rid.on_disk_bytes)
        ~len:(Page_layout.record_length tpage (Rid.slot target));
      tpage
  | c when c = tag_relocated ->
      set_loc loc ~slot:(Rid.slot rid) ~off ~hop:(1 + Rid.on_disk_bytes) ~len;
      page
  | _ -> invalid_arg "Heap_file.locate: bad record tag"

(* The page stays pinned (a live OCaml reference) for the duration of [f];
   [f] must not mutate the page or trigger record movement on it. *)
let with_record_bytes t rid ~f =
  let loc = new_loc () in
  let page = locate t rid loc in
  f (Page_layout.buffer page) ~pos:loc.l_pos ~len:loc.l_len

let write_for t (rid : Rid.t) =
  let pid = page_of rid in
  Cache_stack.fetch_for_write t.stack pid

(* The write fetches every rewrite of [rid] makes, in this order: the home
   page, then — when the home slot holds a forwarding stub — the page of the
   relocated body.  Returns the home page, the stub's target ([Rid.nil]
   when the body lives at home) and the page holding the body. *)
let write_for_record t (rid : Rid.t) =
  let page = write_for t rid in
  let off, _ = Page_layout.record_span page (Rid.slot rid) in
  let buf = Page_layout.buffer page in
  match Bytes.get buf off with
  | c when c = tag_normal -> (page, Rid.nil, page)
  | c when c = tag_forward ->
      let target = Rid.decode buf ~pos:(off + 1) in
      (page, target, write_for t target)
  | _ -> invalid_arg "Heap_file.update: rid addresses a relocated body"

(* Store a relocated-framed body elsewhere and point [home]'s slot at it. *)
let relocate t ~(home : Rid.t) moved =
  let fresh = insert_framed t moved in
  let page = write_for t home in
  if not (Page_layout.update page (Rid.slot home) (frame_stub fresh)) then
    failwith "Heap_file: cannot write forwarding stub"

(* The body is framed before the first write fetch, as the callers'
   encode-then-update order always had it: [write] may read bytes located
   on these very pages. *)
let update_with t (rid : Rid.t) ~len write =
  let framed = frame_normal ~len write in
  let page, target, tpage = write_for_record t rid in
  if Rid.is_nil target then begin
    if not (Page_layout.update page (Rid.slot rid) framed) then
      relocate t ~home:rid (frame_relocated ~home:rid framed)
  end
  else begin
    let moved = frame_relocated ~home:rid framed in
    if not (Page_layout.update tpage (Rid.slot target) moved) then begin
      Page_layout.delete tpage (Rid.slot target);
      relocate t ~home:rid moved
    end
  end

let update t rid body = update_with t rid ~len:(Bytes.length body) (blit_body body)

let patch t (rid : Rid.t) f =
  let _, target, page = write_for_record t rid in
  let slot, hop =
    if Rid.is_nil target then (Rid.slot rid, 1)
    else (Rid.slot target, 1 + Rid.on_disk_bytes)
  in
  let off, len = Page_layout.record_span page slot in
  f (Page_layout.buffer page) ~pos:(off + hop) ~len:(len - hop);
  Page_layout.record_modified page

let delete t (rid : Rid.t) =
  let page = write_for t rid in
  let off, _ = Page_layout.record_span page (Rid.slot rid) in
  let buf = Page_layout.buffer page in
  if Bytes.get buf off = tag_forward then begin
    let target = Rid.decode buf ~pos:(off + 1) in
    let tpage = write_for t target in
    Page_layout.delete tpage (Rid.slot target)
  end;
  Page_layout.delete page (Rid.slot rid)

let iter_page_records t ~page:index f =
  let pid = Page_id.make ~file:t.file ~index in
  let page = Cache_stack.fetch t.stack pid in
  Page_layout.iter page (fun slot framed ->
      match Bytes.get framed 0 with
      | c when c = tag_normal ->
          f (Rid.make ~file:t.file ~page:index ~slot) (body_of framed)
      | c when c = tag_relocated -> f (Rid.decode framed ~pos:1) (body_of framed)
      | _ -> () (* stubs: their body is visited at its new location *))

(* Zero-copy page walk: [f rid buf pos len] sees each live body in place
   (same visiting order and Rid presentation as [iter_page_records]). *)
let iter_page_spans t ~page:index f =
  let pid = Page_id.make ~file:t.file ~index in
  let page = Cache_stack.fetch t.stack pid in
  let buf = Page_layout.buffer page in
  Page_layout.iter_spans page (fun slot off len ->
      match Bytes.get buf off with
      | c when c = tag_normal ->
          f (Rid.make ~file:t.file ~page:index ~slot) buf (off + 1) (len - 1)
      | c when c = tag_relocated ->
          let hop = 1 + Rid.on_disk_bytes in
          f (Rid.decode buf ~pos:(off + 1)) buf (off + hop) (len - hop)
      | _ -> ())

let scan t f =
  for index = 0 to page_count t - 1 do
    iter_page_records t ~page:index f
  done

let record_count t =
  let n = ref 0 in
  scan t (fun _ _ -> incr n);
  !n
