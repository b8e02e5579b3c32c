(* The charging kernels behind the physical operators.

   treelint's R1 discipline is split along this boundary: these functions
   are the modeled engine components and may call Sim.charge_* / claim
   simulated memory; the interpreter in Exec orchestrates them and may
   not charge anything itself.  Every kernel reproduces the charge order
   of the pre-operator monolithic drivers verbatim — the golden counter
   fingerprint depends on the sequence, not just the totals. *)

module Value = Tb_store.Value
module Database = Tb_store.Database
module Handle = Tb_store.Handle
module Rid = Tb_storage.Rid
module Sim = Tb_sim.Sim

let payload_bytes (p : Op.payload) =
  List.fold_left
    (fun acc (_, v) -> acc + 4 + Tb_store.Codec.encoded_size v)
    Rid.on_disk_bytes p.Op.attrs

(* Attribute names are resolved to schema slots once per operator; the
   per-row work below (predicate evaluation, payload harvest, inverse
   navigation) is then an integer-indexed load instead of a string
   lookup. *)
type compiled_pred = { pslot : int; pcmp : Oql_ast.cmp; pconst : Value.t }

let compile_preds db ~cls preds =
  List.map
    (fun { Plan.attr; cmp; const } ->
      { pslot = Database.attr_slot db ~cls attr; pcmp = cmp; pconst = const })
    preds

(* [(name, slot)] for the attributes [select] needs from a side. *)
let compile_attrs db ~cls attrs =
  List.map (fun a -> (a, Database.attr_slot db ~cls a)) attrs

(* Harvest exactly the attributes [select] needs from a live Handle. *)
let rec harvest db h = function
  | [] -> []
  | (a, slot) :: rest ->
      let v = Database.get_att_slot db h slot in
      (a, v) :: harvest db h rest

let make_payload db h ~slots = { Op.self = h.Handle.rid; attrs = harvest db h slots }

(* A projection compiled once per operator: constants are built up front,
   and each attribute path remembers the slot it resolved for the last
   class it met, so a row pays no name lookup and builds no closure — it
   allocates the values it returns and nothing else. *)
type proj =
  | P_const of Value.t
  | P_var of string
  | P_path of path
  | P_tuple of (string * proj) list

and path = {
  var : string;
  attr : string;
  mutable cls : int;  (* class id [slot] was resolved for; -1 for none *)
  mutable slot : int;
}

let rec compile_select = function
  | Oql_ast.Const lit -> P_const (Oql_ast.literal_to_value lit)
  | Oql_ast.Var v -> P_var v
  | Oql_ast.Path (var, attr) -> P_path { var; attr; cls = -1; slot = 0 }
  | Oql_ast.Mk_tuple fields ->
      P_tuple (List.map (fun (n, e) -> (n, compile_select e)) fields)

let rec source_of env v =
  match env with
  | (n, s) :: rest -> if String.equal n v then s else source_of rest v
  | [] -> invalid_arg ("Exec: unknown var " ^ v)

let rec stowed attrs attr =
  match attrs with
  | (n, x) :: rest -> if String.equal n attr then x else stowed rest attr
  | [] -> invalid_arg ("Exec: attribute " ^ attr ^ " not stowed")

(* The first row of a class reads by name — the charge any [get_att]
   makes, and the same raise for an unknown attribute — and keeps the
   slot for the rows after it. *)
let live_att db p h =
  let cls = h.Handle.class_id in
  if cls = p.cls then Database.get_att_slot db h p.slot
  else begin
    let v = Database.get_att db h p.attr in
    p.slot <-
      Tb_store.Schema.attr_slot (Database.schema db) ~class_id:cls ~attr:p.attr;
    p.cls <- cls;
    v
  end

let rec project db proj env =
  match proj with
  | P_const v -> v
  | P_var v -> (
      match source_of env v with
      | Op.Live h -> Value.Ref h.Handle.rid
      | Op.Stored p -> Value.Ref p.Op.self)
  | P_path p -> (
      match source_of env p.var with
      | Op.Live h -> live_att db p h
      | Op.Stored s -> stowed s.Op.attrs p.attr)
  | P_tuple fields -> Value.Tuple (project_fields db fields env)

(* Left to right, as the attribute charges have always been ordered. *)
and project_fields db fields env =
  match fields with
  | [] -> []
  | (n, e) :: rest ->
      let v = project db e env in
      (n, v) :: project_fields db rest env

let rec eval_preds db h = function
  | [] -> true
  | { pslot; pcmp; pconst } :: rest ->
      Sim.charge_compare (Database.sim db) 1;
      Oql_ast.eval_cmp pcmp (Database.get_att_slot db h pslot) pconst
      && eval_preds db h rest

let key_of_inverse db inv_slot h =
  match Database.get_att_slot db h inv_slot with
  | Value.Ref prid -> Some prid
  | Value.Nil -> None
  | _ -> invalid_arg "Exec: inverse attribute is not a reference"

let compile_key db ~cls = function
  | Op.K_self -> fun h -> Some h.Handle.rid
  | Op.K_inverse attr ->
      let slot = Database.attr_slot db ~cls attr in
      key_of_inverse db slot

(* Figure 8 right: the matching Rids are buffered, sorted so the fetches
   become (at worst) one sequential sweep, and streamed out.  The buffer's
   simulated memory is released even when a downstream operator raises —
   a failed query must not leak claimed RAM. *)
let with_sorted_rids sim ~rids ~count f =
  let claim = count * Rid.on_disk_bytes in
  Sim.claim_bytes sim claim;
  Fun.protect
    ~finally:(fun () -> Sim.release_bytes sim claim)
    (fun () ->
      Sim.charge_sort sim count;
      let arr =
        if count = Array.length rids then rids else Array.sub rids 0 count
      in
      Array.sort Rid.compare arr;
      f arr)

(* External-sort accounting: [n log n] comparisons, plus write+read passes
   when the run does not fit in memory. *)
let charge_external_sort sim ~elems ~bytes =
  Sim.charge_sort sim elems;
  let avail = Tb_sim.Cost_model.available_bytes sim.Sim.cost in
  if bytes > avail && avail > 0 then begin
    let fan_in = 8.0 in
    let passes =
      int_of_float
        (ceil (log (float_of_int bytes /. float_of_int avail) /. log fan_in))
    in
    let pages = (bytes / sim.Sim.cost.Tb_sim.Cost_model.page_size) + 1 in
    for _ = 1 to max 1 passes * pages do
      Sim.charge_disk_write sim;
      Sim.charge_disk_read sim
    done
  end

(* Claim a gathered (key, payload) run and sort it by key.  The sort is
   unstable, so the input order — newest-first, exactly as the gather loop
   prepends — is part of the deterministic contract. *)
let claim_and_sort sim kvs ~bytes =
  Sim.claim_bytes sim bytes;
  (* The claim deliberately survives the return — the caller owns it — but
     must not survive a raise below, or the bytes would never be released. *)
  match
    let arr = Array.of_list kvs in
    charge_external_sort sim ~elems:(Array.length arr) ~bytes;
    Array.sort (fun (a, _) (b, _) -> Rid.compare a b) arr;
    arr
  with
  | arr -> arr
  | exception e ->
      Sim.release_bytes sim bytes;
      raise e

let release_bytes sim n = Sim.release_bytes sim n

(* Merge two sorted runs.  Runs that do not fit in memory together are
   streamed through disk once more (write out, read back for the merge);
   parents' keys are unique (their own Rids). *)
let merge_join sim ~bytes ~parents ~children emit =
  if Sim.over_budget sim then begin
    let pages = (bytes / sim.Sim.cost.Tb_sim.Cost_model.page_size) + 1 in
    for _ = 1 to pages do
      Sim.charge_disk_write sim;
      Sim.charge_disk_read sim
    done
  end;
  let np = Array.length parents and nc = Array.length children in
  let i = ref 0 in
  for j = 0 to nc - 1 do
    let ckey, cp = children.(j) in
    while !i < np && Rid.compare (fst parents.(!i)) ckey < 0 do
      Sim.charge_compare sim 1;
      incr i
    done;
    Sim.charge_compare sim 1;
    if !i < np && Rid.equal (fst parents.(!i)) ckey then
      emit (snd parents.(!i)) cp
  done

(* --- spilled partitions (hybrid hashing, DeWitt/Katz/Olken-style) --- *)

(* A spilled payload travels as an encoded tuple whose first field is the
   join key. *)
let spill_record ~key (payload : Op.payload) =
  Tb_store.Codec.encode
    (Value.Tuple
       (("@key", Value.Ref key)
       :: ("@self", Value.Ref payload.Op.self)
       :: payload.Op.attrs))

let unspill_record body =
  match Tb_store.Codec.decode_exn body with
  | Value.Tuple (("@key", Value.Ref key) :: ("@self", Value.Ref self) :: attrs)
    ->
      (key, { Op.self; attrs })
  | _ -> invalid_arg "Exec: corrupt spill record"

let new_spill_files db n =
  Array.init n (fun _ -> Tb_storage.Heap_file.create_temp (Database.stack db))

let spill file ~key payload =
  ignore (Tb_storage.Heap_file.insert file (spill_record ~key payload))
