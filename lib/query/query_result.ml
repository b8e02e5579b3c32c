module Value = Tb_store.Value

type acc = {
  mutable n : int;
  mutable sum : float;
  mutable saw_real : bool;
  mutable minv : Value.t option;
  mutable maxv : Value.t option;
}

type mode =
  | Materialize
  | Fold of Oql_ast.agg * acc

type t = {
  sim : Tb_sim.Sim.t;
  keep : bool;
  standard : bool;
  mode : mode;
  mutable count : int;  (** rows through [append] *)
  mutable bytes : int;
  mutable resident_bytes : int;
      (** claimed against simulated RAM; overflow beyond physical memory is
          spilled sequentially (charged by the appends) and stops being
          resident *)
  mutable kept : Value.t list;
  mutable sample : Value.t list;
  mutable disposed : bool;
}

let sample_size = 16

let create ?(standard = true) ?aggregate sim ~keep =
  let mode =
    match aggregate with
    | None -> Materialize
    | Some agg ->
        Fold (agg, { n = 0; sum = 0.0; saw_real = false; minv = None; maxv = None })
  in
  {
    sim;
    keep;
    standard;
    mode;
    count = 0;
    bytes = 0;
    resident_bytes = 0;
    kept = [];
    sample = [];
    disposed = false;
  }

(* In-memory size of a result element: raw data plus a small per-row
   overhead (field names are shared structure, not per-row storage). *)
let rec mem_bytes v =
  match v with
  | Value.Nil | Value.Bool _ | Value.Char _ -> 1
  | Value.Int _ -> 4
  | Value.Real _ -> 8
  | Value.String s -> String.length s
  | Value.Ref _ | Value.Big_set _ -> 8
  | Value.Tuple fields ->
      List.fold_left (fun acc (_, x) -> acc + mem_bytes x) 0 fields
  | Value.Set xs | Value.List xs ->
      List.fold_left (fun acc x -> acc + mem_bytes x) 0 xs

let numeric v =
  match v with
  | Value.Int i -> (float_of_int i, false)
  | Value.Real r -> (r, true)
  | _ -> invalid_arg "Query_result: aggregate over a non-numeric value"

let fold_row agg acc v =
  acc.n <- acc.n + 1;
  match agg with
  | Oql_ast.Count -> ()
  | Oql_ast.Sum | Oql_ast.Avg ->
      let x, real = numeric v in
      acc.sum <- acc.sum +. x;
      if real then acc.saw_real <- true
  | Oql_ast.Min ->
      if
        match acc.minv with
        | None -> true
        | Some m -> Oql_ast.eval_cmp Oql_ast.Lt v m
      then acc.minv <- Some v
  | Oql_ast.Max ->
      if
        match acc.maxv with
        | None -> true
        | Some m -> Oql_ast.eval_cmp Oql_ast.Gt v m
      then acc.maxv <- Some v

let append t v =
  if t.disposed then invalid_arg "Query_result.append: disposed";
  t.count <- t.count + 1;
  match t.mode with
  | Fold (agg, acc) ->
      (* Folding costs one comparison/addition, not a collection insert. *)
      Tb_sim.Sim.charge_compare t.sim 1;
      fold_row agg acc v
  | Materialize ->
      let bytes = mem_bytes v + 8 in
      t.bytes <- t.bytes + bytes;
      if t.keep then t.kept <- v :: t.kept
      else if t.count <= sample_size then t.sample <- v :: t.sample;
      Tb_sim.Sim.charge_result_append t.sim ~bytes ~standard:t.standard;
      (* Past physical memory the collection spills sequentially (the
         append already paid the page fault): the spilled part is no longer
         resident and must not make unrelated random accesses thrash. *)
      if Tb_sim.Sim.over_budget t.sim then
        Tb_sim.Sim.release_bytes t.sim bytes
      else t.resident_bytes <- t.resident_bytes + bytes

(* Merge a partial (per-shard) result into [t] without re-paying per-row
   construction: the rows were already built — and charged — by the shard
   that produced them; the gather operator charges their shipping
   separately.  Charge-free bookkeeping only, enforced by treelint's rule
   that the merge loop may not charge. *)
let absorb t src =
  if t.disposed then invalid_arg "Query_result.absorb: disposed";
  if src.disposed then invalid_arg "Query_result.absorb: source disposed";
  if t == src then invalid_arg "Query_result.absorb: self";
  (match (t.mode, src.mode) with
  | Materialize, Materialize ->
      t.bytes <- t.bytes + src.bytes;
      if t.keep then t.kept <- src.kept @ t.kept
      else begin
        let have = List.length t.sample in
        if have < sample_size then begin
          let take = ref (sample_size - have) in
          List.iter
            (fun v ->
              if !take > 0 then begin
                t.sample <- v :: t.sample;
                decr take
              end)
            (List.rev src.sample)
        end
      end
  | Fold (agg_t, acc_t), Fold (agg_s, acc_s) when agg_t = agg_s ->
      acc_t.n <- acc_t.n + acc_s.n;
      acc_t.sum <- acc_t.sum +. acc_s.sum;
      acc_t.saw_real <- acc_t.saw_real || acc_s.saw_real;
      let merge_bound cmp cur incoming =
        match (cur, incoming) with
        | _, None -> cur
        | None, some -> some
        | Some m, Some v -> if Oql_ast.eval_cmp cmp v m then incoming else cur
      in
      acc_t.minv <- merge_bound Oql_ast.Lt acc_t.minv acc_s.minv;
      acc_t.maxv <- merge_bound Oql_ast.Gt acc_t.maxv acc_s.maxv
  | _ -> invalid_arg "Query_result.absorb: incompatible result modes");
  t.count <- t.count + src.count;
  (* The source's resident claim transfers: both results account against
     the same simulation, so nothing is claimed or released here — [t]'s
     dispose now covers it. *)
  t.resident_bytes <- t.resident_bytes + src.resident_bytes;
  src.resident_bytes <- 0;
  src.disposed <- true;
  src.kept <- [];
  src.sample <- []

let aggregate_value agg acc =
  match agg with
  | Oql_ast.Count -> Some (Value.Int acc.n)
  | Oql_ast.Sum ->
      Some
        (if acc.saw_real then Value.Real acc.sum
         else Value.Int (int_of_float acc.sum))
  | Oql_ast.Avg ->
      if acc.n = 0 then None
      else Some (Value.Real (acc.sum /. float_of_int acc.n))
  | Oql_ast.Min -> acc.minv
  | Oql_ast.Max -> acc.maxv

let aggregate_row t =
  match t.mode with
  | Materialize -> None
  | Fold (agg, acc) -> aggregate_value agg acc

let count t =
  match t.mode with
  | Materialize -> t.count
  | Fold _ -> ( match aggregate_row t with Some _ -> 1 | None -> 0)

let rows_seen t = t.count

let values t =
  match t.mode with
  | Fold _ -> ( match aggregate_row t with Some v -> [ v ] | None -> [])
  | Materialize ->
      if not t.keep then invalid_arg "Query_result.values: result not kept";
      List.rev t.kept

let sample t =
  match t.mode with
  | Fold _ -> values t
  | Materialize -> if t.keep then List.rev t.kept else List.rev t.sample

let size_bytes t = t.bytes

let dispose t =
  if not t.disposed then begin
    Tb_sim.Sim.release_bytes t.sim t.resident_bytes;
    t.resident_bytes <- 0;
    t.disposed <- true;
    t.kept <- [];
    t.sample <- []
  end
