(* Regenerate the counter-invariance golden files:

     dune exec bench/fingerprint_dump.exe > test/counter_golden_scale40.txt
     dune exec bench/fingerprint_dump.exe -- --load > test/load_golden_scale40.txt

   Only legitimate when the cost model itself changes on purpose; a pure
   performance PR must leave the output byte-identical. *)

let () =
  let usage () =
    prerr_endline "usage: fingerprint_dump [--load] [--scale N]";
    exit 2
  in
  let rec parse ~load ~scale = function
    | [] -> (load, scale)
    | "--load" :: rest -> parse ~load:true ~scale rest
    | "--scale" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> parse ~load ~scale:n rest
        | _ -> usage ())
    | _ -> usage ()
  in
  let load, scale =
    parse ~load:false ~scale:40 (List.tl (Array.to_list Sys.argv))
  in
  let lines =
    if load then Tb_core.Fingerprint.load_lines ~scale ()
    else Tb_core.Fingerprint.collect ~scale ()
  in
  List.iter print_endline lines
