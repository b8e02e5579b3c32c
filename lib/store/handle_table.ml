module H = Hashtbl.Make (Tb_storage.Rid)

(* The zombie FIFO: a ring of Rids, grown by doubling when full, so a push
   writes one array cell instead of allocating a queue cell.  The capacity
   stays a power of two, so wrapping an index is a mask. *)
type t = {
  sim : Tb_sim.Sim.t;
  kind : Tb_sim.Cost_model.handle_kind;
  table : Handle.t H.t;
  mutable zombies : Tb_storage.Rid.t array;
  mutable z_head : int;  (* index of the oldest entry *)
  mutable z_len : int;
  zombie_limit : int;
}

let create sim ~kind ~zombie_limit =
  if zombie_limit < 0 then invalid_arg "Handle_table.create: zombie_limit";
  {
    sim;
    kind;
    table = H.create 4096;
    zombies = Array.make 16 Tb_storage.Rid.nil;
    z_head = 0;
    z_len = 0;
    zombie_limit;
  }

let kind t = t.kind

let push_zombie t rid =
  let cap = Array.length t.zombies in
  if t.z_len = cap then begin
    let grown = Array.make (2 * cap) Tb_storage.Rid.nil in
    for i = 0 to cap - 1 do
      grown.(i) <- t.zombies.((t.z_head + i) land (cap - 1))
    done;
    t.zombies <- grown;
    t.z_head <- 0
  end;
  t.zombies.((t.z_head + t.z_len) land (Array.length t.zombies - 1)) <- rid;
  t.z_len <- t.z_len + 1

let pop_zombie t =
  let rid = t.zombies.(t.z_head) in
  t.z_head <- (t.z_head + 1) land (Array.length t.zombies - 1);
  t.z_len <- t.z_len - 1;
  rid

let clear_zombies t =
  t.z_head <- 0;
  t.z_len <- 0

let destroy t h =
  Tb_sim.Sim.charge_handle_free t.sim t.kind;
  Tb_sim.Sim.release_bytes t.sim h.Handle.mem_bytes;
  H.remove t.table h.Handle.rid

(* Pop zombies until the pool is back under its limit.  Ring entries can be
   stale (resurrected or re-queued rids); only genuinely unreferenced
   residents are destroyed. *)
let trim t =
  while t.z_len > t.zombie_limit do
    match H.find t.table (pop_zombie t) with
    | h -> if h.Handle.refcount = 0 then destroy t h
    | exception Not_found -> ()
  done

(* The loader takes its context as an argument rather than closing over it,
   so a caller passing a toplevel function allocates no closure per call.
   A loader that raises leaves the alloc charged but hands back the bytes
   claimed for the Handle it never built. *)
let acquire t rid ~load ctx =
  match H.find t.table rid with
  | h ->
      Tb_sim.Sim.charge_handle_hit t.sim;
      h.Handle.refcount <- h.Handle.refcount + 1;
      h
  | exception Not_found -> (
      Tb_sim.Sim.charge_handle_alloc t.sim t.kind;
      let mem_bytes = Tb_sim.Cost_model.handle_bytes t.sim.Tb_sim.Sim.cost t.kind in
      Tb_sim.Sim.claim_bytes t.sim mem_bytes;
      match load ctx rid ~mem_bytes with
      | h ->
          H.replace t.table rid h;
          h
      | exception e ->
          Tb_sim.Sim.release_bytes t.sim mem_bytes;
          raise e)

let unreference t h =
  if h.Handle.refcount <= 0 then
    invalid_arg "Handle_table.unreference: refcount already zero";
  h.Handle.refcount <- h.Handle.refcount - 1;
  if h.Handle.refcount = 0 then begin
    push_zombie t h.Handle.rid;
    trim t
  end

let find_resident t rid = H.find_opt t.table rid
let resident_count t = H.length t.table

let flush t =
  H.iter (fun _ h ->
      Tb_sim.Sim.charge_handle_free t.sim t.kind;
      Tb_sim.Sim.release_bytes t.sim h.Handle.mem_bytes) t.table;
  H.reset t.table;
  clear_zombies t

let discard t =
  H.iter
    (fun _ h -> Tb_sim.Sim.release_bytes t.sim h.Handle.mem_bytes)
    t.table;
  H.reset t.table;
  clear_zombies t
