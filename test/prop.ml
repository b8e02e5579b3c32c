(* Replayable property tests.  Every QCheck property in the suite draws its
   cases from a Random.State made from one seed: QCHECK_SEED when set, else
   a fixed default — so a plain run always checks the same cases, and a
   failure found under any seed replays exactly with

     QCHECK_SEED=<seed> dune exec test/test_main.exe -- test <suite>

   Each property gets its own state made from that seed, so running one
   suite alone draws the same cases as the full run.  A failing property
   prints the seed to stderr before its counterexample propagates. *)

let default_seed = 19970412

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | None | Some "" -> default_seed
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None -> failwith ("QCHECK_SEED is not an integer: " ^ s))

let to_alcotest test =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        Printf.eprintf "property %S failed under QCHECK_SEED=%d\n%!" name seed;
        raise e )
