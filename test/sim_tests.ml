(* Tests for the simulation substrate: PRNG, cost model, clock, charging. *)

open Tb_sim

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 13 in
    check_bool "in range" true (v >= 0 && v < 13)
  done

let test_rng_copy_independent () =
  let a = Rng.create 3 in
  let _ = Rng.int a 10 in
  let b = Rng.copy a in
  check_int "copies agree" (Rng.int a 1_000_000) (Rng.int b 1_000_000)

let test_rng_permutation () =
  let r = Rng.create 11 in
  let p = Rng.permutation r 50 in
  let seen = Array.make 50 false in
  Array.iter (fun i -> seen.(i) <- true) p;
  check_bool "is a permutation" true (Array.for_all Fun.id seen)

let test_rng_uniformity =
  QCheck.Test.make ~name:"rng: mean of uniform draws is near the middle"
    ~count:20
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let r = Rng.create seed in
      let n = 5000 in
      let sum = ref 0 in
      for _ = 1 to n do
        sum := !sum + Rng.int r 100
      done;
      let mean = float_of_int !sum /. float_of_int n in
      mean > 44.0 && mean < 55.0)

let test_cost_model_scaled () =
  let m = Cost_model.scaled 10 in
  check_int "ram scaled" (Cost_model.default.Cost_model.ram_bytes / 10)
    m.Cost_model.ram_bytes;
  check_float "per-event cost unchanged"
    Cost_model.default.Cost_model.page_read_ms m.Cost_model.page_read_ms

let test_records_per_page () =
  let m = Cost_model.default in
  (* Paper arithmetic: ~30 providers (120 B) and ~57 patients (60 B + slot)
     per 4K page, giving ~33,000 and ~49,000 pages for the 1Mx3 database. *)
  let providers = Cost_model.records_per_page m ~record_bytes:124 in
  let patients = Cost_model.records_per_page m ~record_bytes:64 in
  check_bool "provider density" true (providers >= 28 && providers <= 32);
  check_bool "patient density" true (patients >= 55 && patients <= 62)

let test_clock () =
  let c = Clock.create () in
  Clock.advance c 1500.0;
  check_float "ms to s" 1.5 (Clock.now_s c);
  Clock.reset c;
  check_float "reset" 0.0 (Clock.now_s c)

let test_charges_advance_clock () =
  let sim = Sim.create Cost_model.default in
  Sim.charge_disk_read sim;
  check_float "one page read = 10ms" 0.010 (Sim.elapsed_s sim);
  Sim.charge_rpc sim ~pages:1;
  check_float "plus one rpc" 0.011 (Sim.elapsed_s sim);
  check_int "counted" 1 sim.Sim.counters.Counters.disk_reads

let test_result_append_modes () =
  let sim = Sim.create Cost_model.default in
  Sim.charge_result_append sim ~bytes:8 ~standard:true;
  let standard = Sim.elapsed_s sim in
  Sim.reset sim;
  Sim.release_bytes sim 8;
  Sim.charge_result_append sim ~bytes:8 ~standard:false;
  let load = Sim.elapsed_s sim in
  check_bool "standard transactions pay much more" true (standard > 10.0 *. load)

let test_swap_kicks_in_only_past_available () =
  let sim = Sim.create Cost_model.default in
  let avail = Cost_model.available_bytes sim.Sim.cost in
  Sim.claim_bytes sim (avail / 2);
  for _ = 1 to 1000 do
    Sim.charge_hash_probe sim
  done;
  check_int "no faults under the limit" 0 sim.Sim.counters.Counters.swap_faults;
  Sim.claim_bytes sim avail;
  for _ = 1 to 1000 do
    Sim.charge_hash_probe sim
  done;
  check_bool "faults past the limit" true
    (sim.Sim.counters.Counters.swap_faults > 0)

let test_swap_sequential_is_cheaper () =
  let cost = Cost_model.default in
  let over = Cost_model.available_bytes cost + (1 lsl 20) in
  let random_sim = Sim.create cost in
  Sim.claim_bytes random_sim over;
  Sim.reset random_sim;
  for _ = 1 to 10_000 do
    Sim.charge_hash_probe random_sim
  done;
  let seq_sim = Sim.create cost in
  Sim.claim_bytes seq_sim over;
  Sim.reset seq_sim;
  for _ = 1 to 10_000 do
    Sim.charge_result_append seq_sim ~bytes:24 ~standard:false
  done;
  check_bool "random thrash costs more than sequential spill" true
    (Sim.elapsed_s random_sim > Sim.elapsed_s seq_sim)

let test_excess_ratio () =
  let sim = Sim.create Cost_model.default in
  check_float "no claim, no excess" 0.0 (Sim.excess_ratio sim);
  let avail = Cost_model.available_bytes sim.Sim.cost in
  Sim.claim_bytes sim (2 * avail);
  check_float "double claim = ratio 1" 1.0 (Sim.excess_ratio sim);
  Sim.release_bytes sim (2 * avail);
  check_float "released" 0.0 (Sim.excess_ratio sim)

(* [over_budget] is [excess_ratio > 0.0] after every step of a random
   claim/release sequence.  Budgets and claims are drawn from the same
   small range, so the working set often lands exactly on the budget, and
   a budget of none at all ([available_bytes] 0: RAM at or below the
   reserve) comes up often too. *)
let over_budget_matches_excess_ratio =
  QCheck.Test.make ~name:"over_budget = excess_ratio > 0" ~count:500
    QCheck.(
      triple (int_range 0 48) (int_range 0 48)
        (small_list (pair bool (int_range 0 16))))
    (fun (ram_bytes, reserved_bytes, steps) ->
      let sim =
        Sim.create { Cost_model.default with Cost_model.ram_bytes; reserved_bytes }
      in
      let agrees () = Sim.over_budget sim = (Sim.excess_ratio sim > 0.0) in
      agrees ()
      && List.for_all
           (fun (claim, n) ->
             if claim then Sim.claim_bytes sim n else Sim.release_bytes sim n;
             agrees ())
           steps)

let test_counters_diff () =
  let sim = Sim.create Cost_model.default in
  Sim.charge_disk_read sim;
  let before = Counters.snapshot sim.Sim.counters in
  Sim.charge_disk_read sim;
  Sim.charge_disk_read sim;
  let d = Counters.diff ~later:(Counters.snapshot sim.Sim.counters) ~earlier:before in
  check_int "diff counts window only" 2 d.Counters.disk_reads

let test_miss_rates () =
  let c = Counters.create () in
  c.Counters.client_hits <- 3;
  c.Counters.client_misses <- 1;
  check_float "25%" 25.0 (Counters.client_miss_rate c);
  check_float "no traffic" 0.0 (Counters.server_miss_rate c)

let suite =
  [
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng: copy independence" `Quick test_rng_copy_independent;
    Alcotest.test_case "rng: permutation" `Quick test_rng_permutation;
    Prop.to_alcotest test_rng_uniformity;
    Alcotest.test_case "cost model: scaling" `Quick test_cost_model_scaled;
    Alcotest.test_case "cost model: page densities match the paper" `Quick
      test_records_per_page;
    Alcotest.test_case "clock" `Quick test_clock;
    Alcotest.test_case "charges advance the clock" `Quick
      test_charges_advance_clock;
    Alcotest.test_case "result append: standard vs load mode" `Quick
      test_result_append_modes;
    Alcotest.test_case "swap starts at the memory limit" `Quick
      test_swap_kicks_in_only_past_available;
    Alcotest.test_case "swap: sequential spill cheaper than thrash" `Quick
      test_swap_sequential_is_cheaper;
    Alcotest.test_case "excess ratio" `Quick test_excess_ratio;
    Prop.to_alcotest over_budget_matches_excess_ratio;
    Alcotest.test_case "counters: diff" `Quick test_counters_diff;
    Alcotest.test_case "counters: miss rates" `Quick test_miss_rates;
  ]
