(* Shared helpers for the test suites. *)

(* Naive substring search; inputs are small test strings. *)
let find_sub haystack needle =
  let n = String.length needle and h = String.length haystack in
  if n = 0 then Some 0
  else
    let rec go i =
      if i + n > h then None
      else if String.sub haystack i n = needle then Some i
      else go (i + 1)
    in
    go 0

let contains haystack needle = find_sub haystack needle <> None

(* Differential fault-injection oracle: run [prepare]'s workload once
   fault-free and once with [plan] injected, and classify the injected
   run against the fault-free snapshot.  Returns the verdict plus the
   raw pieces so tests can assert on individual components.  Shared by
   test_inject and usable by any suite that wants a
   corrupt-and-compare harness. *)
let run_injected ?(config = Metal_cpu.Config.default) ?(integrity = false)
    ~fuel ~plan prepare =
  let module System = Metal_core.System in
  let module Inject = Metal_inject.Inject in
  let halt_of = function Inject.Halted h -> Some h | _ -> None in
  let oracle_sys = System.create ~config () in
  prepare oracle_sys;
  let om = oracle_sys.System.machine in
  let ostop, _ = Inject.run_plan om ~fuel ~plan:[] in
  let oracle =
    Inject.Snapshot.take om
      ~console:(System.console_output oracle_sys)
      ~halt:(halt_of ostop)
  in
  let sys = System.create ~config () in
  prepare sys;
  let m = sys.System.machine in
  (* Count [ecc_correct] events so ECC-armed workloads can classify as
     Corrected; counters are exact regardless of ring drops. *)
  let c = Metal_trace.Collector.create ~capacity:1024 () in
  Metal_cpu.Machine.set_probe m (Metal_trace.Collector.probe c);
  let stop, applied = Inject.run_plan ~integrity m ~fuel ~plan in
  let snap =
    Inject.Snapshot.take m
      ~console:(System.console_output sys)
      ~halt:(halt_of stop)
  in
  let corrections =
    match
      List.assoc_opt "ecc_correct"
        (Metal_trace.Collector.metrics c).Metal_trace.Metrics.event_counts
    with
    | Some n -> n
    | None -> 0
  in
  let verdict = Inject.classify ~corrections ~oracle ~stop ~snap () in
  (verdict, applied, stop, oracle, snap)

(* Stepper tiers for the Metal-path unit groups.  The differential
   corpus is user-mode only, so these groups are what check each
   stepper's schedule on Metal, exception, interrupt, interception,
   translation and TLB paths.  [tier_config] narrows a test's own
   configuration to the current tier: a test that already picks the
   slow stepper keeps it; one that runs the default blocks stepper
   drops to predecode-only or slow. *)
let tier = ref None

let tier_config config =
  let open Metal_cpu.Config in
  match !tier with
  | None -> config
  | Some (predecode, blockcache) ->
    { config with
      predecode = config.predecode && predecode;
      blockcache = config.blockcache && blockcache }

(* [group] with each case as-is (the test's own configuration, blocks
   by default), followed by a ["predecode: "] and a ["slow: "] copy of
   every case.  The copies stay in [group] rather than in groups of
   their own: a longer group name widens the runner's group column and
   truncates the printed names of every test in the suite. *)
let tiered group cases =
  let case (prefix, t) (name, f) =
    Alcotest.test_case (prefix ^ name) `Quick (fun () ->
        tier := t;
        Fun.protect ~finally:(fun () -> tier := None) f)
  in
  [ ( group,
      List.concat_map
        (fun t -> List.map (case t) cases)
        [ ("", None);
          ("predecode: ", Some (true, false));
          ("slow: ", Some (false, false)) ] ) ]
