(* The repository benchmark: the whole mrun job path, end to end and
   per layer.

   perfbench --workload NAME --seed N --seconds S --trace 0|1

   One client runs jobs back to back (closed loop) over a pool of
   inputs generated from the seed, in whole passes until S seconds
   have gone.  --trace 0 reports the end-to-end metrics; --trace 1
   alternates untraced and traced passes, reruns every job on each
   stepper tier, replays fault campaigns step by step, checks a
   held-out seed, and reports the per-layer metrics.  The last line
   of stdout is one JSON object. *)

let workloads = [ "guest_batch"; "metal_mix"; "observed_runs"; "fault_campaign" ]

type pool = Jobs of Work.job list | Campaigns of Work.campaign list

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= Array.length a then a.(i) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* Interquartile range as a share of the median. *)
let spread xs =
  let m = median xs in
  if m = 0.0 then 0.0 else (quantile 0.75 xs -. quantile 0.25 xs) /. m

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

(* ------------------------------------------------------------------ *)
(* Setup and passes                                                    *)

type sample = { secs : float; cycles : int; instrs : int; errors : string list }

let job_counter = ref 0

let recorder traced =
  incr job_counter;
  Span.recorder ~on:traced ~job:!job_counter ()

let timed f =
  let t0 = Span.now () in
  match f () with
  | v -> (Span.now () -. t0, Ok v)
  | exception e -> (Span.now () -. t0, Error (Printexc.to_string e))

(* One job of a pool.  [replay] runs campaigns through the traced
   replay instead of [run_campaign]. *)
let run_one ~traced ~replay = function
  | `Job j ->
    let r = recorder traced in
    let secs, res = timed (fun () -> Span.with_ r "job" (fun () -> Work.run_job r j)) in
    (match res with
     | Ok run ->
       let errors = Work.check j run in
       Work.account j run;
       let s = Metal_core.System.stats run.Work.sys in
       { secs; cycles = s.cycles; instrs = s.instructions; errors }
     | Error e -> { secs; cycles = 0; instrs = 0; errors = [ j.Work.label ^ ": " ^ e ] })
  | `Campaign c ->
    let r = recorder traced in
    let secs, res =
      timed (fun () ->
          Span.with_ r "job" (fun () ->
              if replay then Work.replay r c else Work.run_campaign r c))
    in
    (match res with
     | Ok cp ->
       Work.tally cp.Metal_inject.Inject.records;
       let cycles = Work.campaign_cycles cp in
       if replay then Work.count "inject.sim_cycles" cycles;
       { secs; cycles; instrs = 0; errors = Work.check_campaign c cp }
     | Error e -> { secs; cycles = 0; instrs = 0; errors = [ c.Work.workload.label ^ ": " ^ e ] })

let items = function
  | Jobs js -> List.map (fun j -> `Job j) js
  | Campaigns cs -> List.map (fun c -> `Campaign c) cs

let pass ?(traced = false) ?(replay = false) pool =
  List.map (run_one ~traced ~replay) (items pool)

let generate name seed =
  match name with
  | "guest_batch" -> Jobs (Work.guest_batch ~seed)
  | "metal_mix" -> Jobs (Work.metal_mix ~seed)
  | "observed_runs" -> Jobs (Work.observed_runs ~seed)
  | "fault_campaign" -> Campaigns (Work.fault_campaign ~seed)
  | w -> invalid_arg ("unknown workload " ^ w)

(* Input generation, expected outputs and warm-up.  The warm-up pass
   runs every job once with its checks, which parses the exports of
   observed jobs; campaigns get their fuel and their CPI from a
   fault-free run and their expected verdicts from [run_campaign].
   Returns the pool, the simulated CPI (deterministic) and one message
   per failing job. *)
let setup name seed =
  let pool = generate name seed in
  let cycles = ref 0 and instrs = ref 0 in
  let errors =
    match pool with
    | Jobs _ ->
      List.filter_map
        (fun s ->
           cycles := !cycles + s.cycles;
           instrs := !instrs + s.instrs;
           if s.errors = [] then None else Some (String.concat "; " s.errors))
        (pass pool)
    | Campaigns cs ->
      List.concat_map
        (fun c ->
           match
             cycles := !cycles + Work.calibrate c;
             instrs := !instrs + c.Work.oracle_instructions;
             Work.run_campaign Span.off c
           with
           | cp ->
             c.Work.expected <- Some cp;
             []
           | exception Failure e -> [ c.Work.workload.label ^ ": " ^ e ])
        cs
  in
  ignore (Work.take_counts ());
  (pool, float_of_int !cycles /. float_of_int (max 1 !instrs), errors)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let print_result ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (if Float.is_integer value && Float.abs value < 1e15 then
                 Printf.sprintf "%.0f" value
               else Printf.sprintf "%.9g" value)
              unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed body

let report_errors errors =
  List.iteri (fun i e -> if i < 20 then prerr_endline ("check failed: " ^ e)) errors

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics                                       *)

let end_to_end name seed seconds =
  (* At least three set-ups, and more while they take under 3 s in
     all, up to 25: the median of several is steadier. *)
  let rec setups acc spent =
    if List.length acc >= 25 || (List.length acc >= 3 && spent >= 3.0) then acc
    else
      let secs, res = timed (fun () -> setup name seed) in
      match res with
      | Ok (pool, cpi, errs) -> setups ((secs, pool, cpi, errs) :: acc) (spent +. secs)
      | Error e -> failwith ("setup: " ^ e)
  in
  let setups = setups [] 0.0 in
  let setup_s = median (List.map (fun (s, _, _, _) -> s) setups) in
  let _, pool, cpi, setup_errors = List.hd setups in
  let t_start = Span.now () in
  let passes = ref [] in
  (* Whole passes keep the job mix fixed; at least 100 samples leave
     10 beyond p90. *)
  let samples () = List.fold_left (fun a p -> a + List.length p) 0 !passes in
  while Span.now () -. t_start < seconds || samples () < 100 do
    passes := pass pool :: !passes
  done;
  ignore (Work.take_counts ());
  let samples = List.concat !passes in
  let times_ms = List.map (fun s -> 1000.0 *. s.secs) samples in
  (* p90 is the median over groups of consecutive passes, each group of
     at least 100 jobs so that 10 lie beyond its p90: a burst of host
     contention moves the p90 of the groups it falls in, not the
     median of them.  The last group takes any remainder. *)
  let groups =
    let ms p = List.map (fun s -> 1000.0 *. s.secs) p in
    let rec go acc cur = function
      | [] -> (match acc with last :: rest when cur <> [] -> (cur @ last) :: rest | _ -> acc)
      | p :: ps ->
        let cur = ms p @ cur in
        if List.length cur >= 100 then go (cur :: acc) [] ps else go acc cur ps
    in
    go [] [] (List.rev !passes)
  in
  let mcps =
    List.map
      (fun p ->
         let cycles = List.fold_left (fun a s -> a + s.cycles) 0 p in
         let secs = List.fold_left (fun a s -> a +. s.secs) 0.0 p in
         float_of_int cycles /. secs /. 1e6)
      !passes
  in
  let errors = setup_errors @ List.concat_map (fun s -> s.errors) samples in
  let failed =
    List.length setup_errors + List.length (List.filter (fun s -> s.errors <> []) samples)
  in
  let attempted = List.length samples + List.length setup_errors in
  report_errors errors;
  Printf.printf
    "%s seed %d: %d jobs in %d passes of %d, %d p90 groups of %s jobs, %.1fs\n"
    name seed (List.length samples) (List.length !passes)
    (List.length (List.hd !passes)) (List.length groups)
    (String.concat "/" (List.map (fun g -> string_of_int (List.length g)) groups))
    (Span.now () -. t_start);
  print_result ~attempted ~failed
    [ ("sim_mcps", median mcps, "Mcycles/s");
      ("job_p50_ms", median times_ms, "ms");
      ("job_p90_ms", median (List.map (quantile 0.9) groups), "ms");
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", peak_rss_mb (), "MB");
      ("sim_cpi", cpi, "cycles/instr") ]

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics                                        *)

let spans_path name seed = Printf.sprintf ".bench_out/spans-%s-%d.ndjson" name seed

let write_spans path spans =
  if not (Sys.file_exists ".bench_out") then Sys.mkdir ".bench_out" 0o755;
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (Span.to_ndjson spans))

type round = {
  wall_u : float;  (** untraced pass wall time *)
  counts_u : (string * int) list;
  wall_t : float;  (** traced pass wall time *)
  counts_t : (string * int) list;
  totals : (string, Span.totals) Hashtbl.t;  (** per-layer span totals *)
  checked : sample list;
}

let per_layer name seed seconds =
  let pool, _, setup_errors = setup name seed in
  let replay = match pool with Campaigns _ -> true | Jobs _ -> false in
  let t_start = Span.now () in
  let rounds = ref [] in
  let all_spans = ref [] in
  (* Alternate untraced and traced passes; their wall times give the
     tracing overhead, and their counts must repeat exactly. *)
  while List.length !rounds < 2 || Span.now () -. t_start < seconds do
    let wall_u, untraced = timed (fun () -> pass pool) in
    let counts_u = Work.take_counts () in
    ignore (Span.take ());
    let wall_t, traced = timed (fun () -> pass ~traced:true ~replay pool) in
    let counts_t = Work.take_counts () in
    let spans = Span.take () in
    all_spans := !all_spans @ spans;
    let samples r = match r with Ok s -> s | Error _ -> [] in
    rounds :=
      { wall_u; counts_u; wall_t; counts_t; totals = Span.totals spans;
        checked = samples untraced @ samples traced }
      :: !rounds
  done;
  let rounds = List.rev !rounds in
  let first = List.hd rounds in
  let repeat_errors =
    List.concat_map
      (fun r ->
         (if r.counts_u = first.counts_u then []
          else [ "untraced pass counts differ between passes" ])
         @
         if r.counts_t = first.counts_t then []
         else [ "traced pass counts differ between passes" ])
      rounds
    @
    match pool with
    | Jobs _ when first.counts_u <> first.counts_t -> [ "traced and untraced counts differ" ]
    | _ -> []
  in
  (* Stepper-tier ablation and observer invariance. *)
  let ablation =
    match pool with
    | Jobs js ->
      List.map
        (fun j ->
           let run = Work.run_job Span.off j in
           Work.ablate j run)
        js
    | Campaigns cs ->
      List.map
        (fun c ->
           let run = Work.run_job Span.off c.Work.workload in
           Work.ablate c.Work.workload run)
        cs
  in
  ignore (Work.take_counts ());
  let blocks_over_pre = List.map (fun (a, _, _) -> a) ablation
  and pre_over_slow = List.map (fun (_, b, _) -> b) ablation in
  let ablation_errors = List.concat_map (fun (_, _, e) -> e) ablation in
  (* A held-out seed must pass every check too. *)
  let held_out = seed + 7919 in
  let held_pool, _, held_setup_errors = setup name held_out in
  let held = pass held_pool in
  ignore (Work.take_counts ());
  write_spans (spans_path name seed) !all_spans;
  let samples = List.concat_map (fun r -> r.checked) rounds @ held in
  let check_errors =
    List.concat_map (fun s -> s.errors) samples
    @ setup_errors @ held_setup_errors @ repeat_errors @ ablation_errors
  in
  report_errors check_errors;
  let failed =
    List.length (List.filter (fun s -> s.errors <> []) samples)
    + List.length setup_errors + List.length held_setup_errors
    + (if repeat_errors = [] then 0 else 1)
    + List.length (List.filter (fun (_, _, e) -> e <> []) ablation)
  in
  let attempted =
    List.length samples + List.length ablation + 1 + List.length setup_errors
    + List.length held_setup_errors
  in
  let count k = float_of_int (Option.value (List.assoc_opt k first.counts_t) ~default:0) in
  let per_pass f = median (List.map (fun r -> f r.totals) rounds) in
  let get t k = Hashtbl.find_opt t k in
  let self k = per_pass (fun t -> match get t k with Some x -> x.Span.self_s | None -> 0.0) in
  let incl k = per_pass (fun t -> match get t k with Some x -> x.Span.incl_s | None -> 0.0) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let domains = match pool with Campaigns _ -> Work.domains () | Jobs _ -> 0 in
  let cycles = count "cpu.cycles" in
  let layers =
    [ "asm"; "mverify"; "load"; "observe"; "cpu"; "trace"; "profile"; "telemetry";
      "inject.generate"; "inject.prepare"; "inject.run"; "inject.snapshot";
      "inject.classify"; "inject.case"; "fleet"; "job" ]
  in
  let total_self = List.fold_left (fun a l -> a +. self l) 0.0 layers in
  Printf.printf "%s seed %d: %d rounds, self-time share per layer:" name seed
    (List.length rounds);
  List.iter
    (fun l ->
       let s = self l in
       if s > 0.0 then Printf.printf " %s=%.1f%%" l (100.0 *. s /. total_self))
    layers;
  print_newline ();
  print_result ~attempted ~failed
    [ ("asm.calls", count "asm.calls", "count");
      ("asm.self_s", self "asm", "s");
      ("asm.words", count "asm.words", "count");
      ("mverify.calls", count "mverify.calls", "count");
      ("mverify.self_s", self "mverify", "s");
      ("mverify.entries", count "mverify.entries", "count");
      ("load.calls", count "load.calls", "count");
      ("load.self_s", self "load", "s");
      ("cpu.self_s", self "cpu", "s");
      ("cpu.ns_per_cycle", 1e9 *. ratio (self "cpu") cycles, "ns/cycle");
      ("cpu.cycles", cycles, "count");
      ("cpu.instructions", count "cpu.instructions", "count");
      ("cpu.metal_instructions", count "cpu.metal_instructions", "count");
      ( "cpu.predecode_hit_rate",
        ratio (count "cache.predecode_hits")
          (count "cache.predecode_hits" +. count "cache.predecode_fills"),
        "ratio" );
      ("cpu.block_cycle_share", ratio (count "cache.blockcache_block_cycles") cycles, "ratio");
      ("cpu.chain_hits", count "cache.blockcache_chain_hits", "count");
      ("cpu.bail.probe", count "cache.blockcache_bail_probe", "count");
      ("cpu.bail.metal", count "cache.blockcache_bail_metal", "count");
      ("cpu.bail.mem", count "cache.blockcache_bail_mem", "count");
      ("cpu.bail.irq", count "cache.blockcache_bail_irq", "count");
      ("cpu.bail.unbuildable", count "cache.blockcache_bail_unbuildable", "count");
      ("cpu.bail.window", count "cache.blockcache_bail_window", "count");
      ("cpu.tier.blocks_over_predecode", median blocks_over_pre, "ratio");
      ("cpu.tier.blocks_over_predecode.spread", spread blocks_over_pre, "ratio");
      ("cpu.tier.predecode_over_slow", median pre_over_slow, "ratio");
      ("cpu.tier.predecode_over_slow.spread", spread pre_over_slow, "ratio");
      ("hw.tlb_misses", count "hw.tlb_misses", "count");
      ("hw.hw_walks", count "hw.hw_walks", "count");
      ("hw.walker_stall_cycles", count "hw.walker_stall_cycles", "count");
      ("hw.mem_stall_cycles", count "hw.mem_stall_cycles", "count");
      ("hw.fetch_stall_cycles", count "hw.fetch_stall_cycles", "count");
      ("hw.ecc_corrections", count "hw.ecc_corrections", "count");
      ("trace.events", count "trace.events", "count");
      ("trace.export_s", self "trace", "s");
      ("trace.export_bytes", count "trace.export_bytes", "bytes");
      ("profile.export_s", self "profile", "s");
      ("profile.export_bytes", count "profile.export_bytes", "bytes");
      ("telemetry.export_s", self "telemetry", "s");
      ("telemetry.windows", count "telemetry.windows", "count");
      ("telemetry.alarms", count "telemetry.alarms", "count");
      ("observe.probe_calls", count "observe.probe_calls", "count");
      ("observe.self_s", self "observe", "s");
      ("inject.runs", count "inject.runs", "count");
      ("inject.generate_s", incl "inject.generate", "s");
      ("inject.prepare_s", incl "inject.prepare", "s");
      ("inject.run_s", incl "inject.run", "s");
      ("inject.snapshot_s", incl "inject.snapshot", "s");
      ("inject.classify_s", incl "inject.classify", "s");
      ("inject.sim_cycles", count "inject.sim_cycles", "count");
      ("inject.masked", count "inject.masked", "count");
      ("inject.corrected", count "inject.corrected", "count");
      ("inject.detected", count "inject.detected", "count");
      ("inject.silent", count "inject.silent", "count");
      ("fleet.domains_effective", float_of_int domains, "count");
      ( "fleet.utilization",
        ratio (incl "inject.case") (incl "fleet" *. float_of_int domains),
        "ratio" );
      ("fleet.self_s", self "fleet", "s");
      ("other.self_s", self "job", "s");
      ("error_rate", ratio (float_of_int failed) (float_of_int attempted), "ratio");
      ( "spans.overhead_ratio",
        ratio
          (median (List.map (fun r -> r.wall_t) rounds))
          (median (List.map (fun r -> r.wall_u) rounds)),
        "ratio" );
      ("jobs.per_pass", float_of_int (List.length (items pool)), "count") ]

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 0 = end-to-end metrics, 1 = per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  if !trace = 0 then end_to_end !workload !seed !seconds
  else per_layer !workload !seed !seconds
