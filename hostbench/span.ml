(* In-memory span log for the traced run.  A span is one call the benchmark
   makes into a layer: its name, monotonic start and end in ns, the span that
   encloses it (-1 at top level) and the op it belongs to (-1 for layer
   replays).  Rows live in parallel arrays and are written out once, at
   exit, so recording costs a few array stores per span. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable n : int;
  mutable name : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable current : int;
}

let create () =
  let cap = 4096 in
  {
    n = 0;
    name = Array.make cap "";
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    op = Array.make cap (-1);
    current = -1;
  }

let grow t =
  let cap = 2 * Array.length t.start in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- extend t.name "";
  t.start <- extend t.start 0;
  t.stop <- extend t.stop 0;
  t.parent <- extend t.parent (-1);
  t.op <- extend t.op (-1)

let enter t ~op name =
  if t.n = Array.length t.start then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name;
  t.parent.(i) <- t.current;
  t.op.(i) <- op;
  t.current <- i;
  t.start.(i) <- now ();
  i

let leave t i =
  t.stop.(i) <- now ();
  t.current <- t.parent.(i)

let with_span t ~op name f =
  let i = enter t ~op name in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

let count t = t.n

(* Self time: a span's duration minus the part its children cover.  Returns
   name -> (total self ns, span count). *)
let self_times t =
  let self = Array.init t.n (fun i -> t.stop.(i) - t.start.(i)) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.stop.(i) - t.start.(i))
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let total, k =
      Option.value ~default:(0, 0) (Hashtbl.find_opt tbl t.name.(i))
    in
    Hashtbl.replace tbl t.name.(i) (total + self.(i), k + 1)
  done;
  tbl

(* Summed duration of the top-level spans in [from, upto). *)
let top_level_ns t ~from ~upto =
  let s = ref 0 in
  for i = from to upto - 1 do
    if t.parent.(i) < 0 then s := !s + (t.stop.(i) - t.start.(i))
  done;
  !s

let write t ~header path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun h -> Printf.fprintf oc "# %s\n" h) header;
      output_string oc "id\tname\tstart_ns\tend_ns\tparent\top\n";
      let t0 = if t.n > 0 then t.start.(0) else 0 in
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i t.name.(i)
          (t.start.(i) - t0)
          (t.stop.(i) - t0)
          t.parent.(i) t.op.(i)
      done)
