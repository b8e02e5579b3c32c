(* Stage one of the optimizer pipeline: the candidate space.

   [candidates] expands a bound query into every (join algorithm × access
   path per side × packed/handle evaluation mode) combination the lowering
   can execute.  Pure plan surgery over catalog statistics — index lookups
   are Database bookkeeping, selectivities come from {!Tb_statcore} — so
   enumeration never touches a page and never charges (treelint R1).

   List order encodes the tie policy: the cost stage's argmin keeps the
   FIRST candidate on equal cost, so index paths precede scans (the
   Section 4.2 preference at low selectivity), the paper's four algorithms
   precede the extensions ({!all_algos}), and packed precedes handle
   evaluation (charge-identical by construction; packed is the cheaper
   wallclock). *)

module Database = Tb_store.Database
module Sc = Tb_statcore.Stat_catalog

type candidate = {
  c_plan : Plan.t;
  c_packed : bool;
  c_desc : string;  (* human-readable shape, e.g. "PHJ parent=index child=seq packed" *)
}

(* The paper's four originals first, so they win ties against the
   extensions. *)
let all_algos =
  [ Plan.NL; Plan.NOJOIN; Plan.PHJ; Plan.CHJ; Plan.PHHJ; Plan.CHHJ; Plan.SMJ ]

let indexable db ~cls preds =
  List.filter_map
    (fun p ->
      match
        (Plan.key_range p, Database.find_index db ~cls ~attr:p.Plan.attr)
      with
      | Some (lo, hi), Some ix -> Some (p, ix, lo, hi)
      | _ -> None)
    preds

(* The most selective indexable conjunct (by catalog statistics); the rest
   stay residual. *)
let best_index stats db ~cls preds =
  match indexable db ~cls preds with
  | [] -> None
  | first :: rest ->
      let sel (p, _, _, _) = Estimate.stat_pred_sel stats ~cls p in
      let best =
        List.fold_left
          (fun acc c -> if sel c < sel acc then c else acc)
          first rest
      in
      let chosen, index, lo, hi = best in
      let residual = List.filter (fun p -> p != chosen) preds in
      Some (fun ~sorted -> Plan.Index_scan { index; lo; hi; sorted; residual })

(* Selections get the full Section 4.2 menu: fetch in index order, sort the
   Rids first, or sweep the extent. *)
let selection_accesses stats db ~cls preds =
  let seq = (Plan.Seq_scan { cls; preds }, "seq") in
  match best_index stats db ~cls preds with
  | None -> [ seq ]
  | Some mk ->
      [ (mk ~sorted:false, "index"); (mk ~sorted:true, "index+sort"); seq ]

(* Join sides fetch through a sorted index when one applies, or scan. *)
let side_accesses stats db ~cls preds =
  let seq = (Plan.Seq_scan { cls; preds }, "seq") in
  match best_index stats db ~cls preds with
  | None -> [ seq ]
  | Some mk -> [ (mk ~sorted:true, "index"); seq ]

let packed_modes = [ (true, "packed"); (false, "handle") ]

(* Estimated resident bytes of one side's hash table, for sizing hybrid
   spill partitions. *)
let side_bytes stats ~cls ~var ~preds select =
  let sel =
    List.fold_left
      (fun acc p -> acc *. Estimate.stat_pred_sel stats ~cls p)
      1.0 preds
  in
  let attrs, _self = Plan.needed_attrs var select in
  let payload =
    List.fold_left
      (fun acc a -> acc + Sc.attr_bytes stats ~cls a)
      Tb_storage.Rid.on_disk_bytes attrs
  in
  let card =
    match Sc.extent stats ~cls with Some e -> e.Sc.x_card | None -> 0
  in
  sel *. float_of_int card
  *. float_of_int (payload + Mem_hash.entry_overhead + Mem_hash.group_overhead)

let partitions_for stats bytes =
  let budget = 0.8 *. float_of_int (Sc.available_bytes stats) in
  if budget <= 0.0 then 8 else max 1 (int_of_float (ceil (bytes /. budget)))

(* Hybrid hashing: enough partitions that each spilled bucket of the build
   side fits comfortably in memory; 1 for every other algorithm. *)
let partitions stats bound algo =
  match bound with
  | Plan.B_selection _ -> 1
  | Plan.B_hier
      { parent_var; parent_cls; child_var; child_cls; parent_preds; child_preds;
        select; _ } -> (
      match algo with
      | Plan.PHHJ ->
          partitions_for stats
            (side_bytes stats ~cls:parent_cls ~var:parent_var
               ~preds:parent_preds select)
      | Plan.CHHJ ->
          partitions_for stats
            (side_bytes stats ~cls:child_cls ~var:child_var ~preds:child_preds
               select)
      | Plan.NL | Plan.NOJOIN | Plan.PHJ | Plan.CHJ | Plan.SMJ -> 1)

let candidates stats db bound =
  match bound with
  | Plan.B_selection { var; cls; preds; select; aggregate } ->
      List.concat_map
        (fun (access, adesc) ->
          List.map
            (fun (packed, pdesc) ->
              {
                c_plan = Plan.Selection { var; cls; access; select; aggregate };
                c_packed = packed;
                c_desc = adesc ^ " " ^ pdesc;
              })
            packed_modes)
        (selection_accesses stats db ~cls preds)
  | Plan.B_hier
      {
        parent_var;
        parent_cls;
        child_var;
        child_cls;
        set_attr;
        inv_attr;
        parent_preds;
        child_preds;
        select;
        aggregate;
      } ->
      List.concat_map
        (fun algo ->
          let needs_inv =
            match algo with
            | Plan.NL -> false
            | Plan.NOJOIN | Plan.PHJ | Plan.CHJ | Plan.PHHJ | Plan.CHHJ
            | Plan.SMJ ->
                true
          in
          if needs_inv && Option.is_none inv_attr then []
          else
            let parent_opts =
              match algo with
              | Plan.NOJOIN ->
                  (* NOJOIN reaches parents by navigation: scan semantics. *)
                  [ (Plan.Seq_scan { cls = parent_cls; preds = parent_preds }, "seq") ]
              | Plan.NL | Plan.PHJ | Plan.CHJ | Plan.PHHJ | Plan.CHHJ
              | Plan.SMJ ->
                  side_accesses stats db ~cls:parent_cls parent_preds
            in
            let child_opts =
              match algo with
              | Plan.NL ->
                  (* NL evaluates child predicates during navigation. *)
                  [ (Plan.Seq_scan { cls = child_cls; preds = child_preds }, "seq") ]
              | Plan.NOJOIN | Plan.PHJ | Plan.CHJ | Plan.PHHJ | Plan.CHHJ
              | Plan.SMJ ->
                  side_accesses stats db ~cls:child_cls child_preds
            in
            let partitions = partitions stats bound algo in
            List.concat_map
              (fun (parent_access, pad) ->
                List.concat_map
                  (fun (child_access, cad) ->
                    List.map
                      (fun (packed, pkd) ->
                        {
                          c_plan =
                            Plan.Hier_join
                              {
                                algo;
                                parent_var;
                                parent_cls;
                                child_var;
                                child_cls;
                                set_attr;
                                inv_attr;
                                parent_access;
                                child_access;
                                partitions;
                                select;
                                aggregate;
                              };
                          c_packed = packed;
                          c_desc =
                            Printf.sprintf "%s parent=%s child=%s %s"
                              (Plan.algo_name algo) pad cad pkd;
                        })
                      packed_modes)
                  child_opts)
              parent_opts)
        all_algos
