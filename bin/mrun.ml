(* metal-run: execute an assembly program on the Metal machine. *)

module Fleet = Metal_fleet.Fleet
module Telemetry = Metal_telemetry.Telemetry

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_os path max_cycles =
  match Metal_kernel.Kernel.boot () with
  | Error e ->
    Printf.eprintf "boot: %s\n" e;
    1
  | Ok k ->
    begin match Metal_kernel.Kernel.spawn k ~source:(read_file path) with
    | Error e ->
      Printf.eprintf "spawn: %s\n" e;
      1
    | Ok _ ->
      let outcome = Metal_kernel.Kernel.run k ~max_cycles in
      let out = Metal_kernel.Kernel.console_output k in
      if out <> "" then Printf.printf "console: %s\n" out;
      List.iter
        (fun p ->
           Printf.printf "pid %d: %s\n" p.Metal_kernel.Process.pid
             (Metal_kernel.Process.state_to_string
                p.Metal_kernel.Process.state))
        k.Metal_kernel.Kernel.procs;
      begin match outcome with
      | Metal_kernel.Kernel.All_done -> 0
      | Metal_kernel.Kernel.Deadlocked ->
        Printf.eprintf "deadlock: every process is blocked in recv\n";
        1
      | Metal_kernel.Kernel.Out_of_cycles ->
        Printf.eprintf "out of cycles\n";
        1
      | Metal_kernel.Kernel.Machine_halted h ->
        Printf.eprintf "machine halted: %s\n"
          (Metal_cpu.Machine.halted_to_string h);
        1
      end
    end

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* Static verification of --mcode before it reaches MRAM (on by
   default; --no-verify is the escape hatch).  Quiet mode prints
   findings to stderr and refuses the install on errors; --verify
   additionally prints the per-entry WCET report to stdout. *)
let verify_mcode ~config ~report img =
  let r = Metal_mverify.Mverify.verify ~config img in
  if report then print_string (Metal_mverify.Mverify.to_string r)
  else
    List.iter
      (fun f ->
         Printf.eprintf "mverify: %s\n"
           (Metal_mverify.Mverify.finding_to_string f))
      r.Metal_mverify.Mverify.findings;
  if Metal_mverify.Mverify.ok r then Ok r
  else
    Error
      (Printf.sprintf
         "mcode verification failed (%d errors%s); --no-verify forces the \
          install"
         (List.length (Metal_mverify.Mverify.errors r))
         (if report then "" else ", listed above"))

(* Per-entry static WCET bounds out of a verification report — what
   the runtime wcet watchdog checks measured latencies against. *)
let wcet_bounds r =
  List.filter_map
    (fun (e : Metal_mverify.Mverify.entry_report) ->
       Option.map (fun w -> (e.Metal_mverify.Mverify.entry, w)) e.wcet)
    r.Metal_mverify.Mverify.entries

(* --telemetry-out FILE picks its format by extension: .csv gets the
   spreadsheet view, anything else newline-delimited JSON. *)
let write_telemetry ~path series =
  let data =
    if Filename.check_suffix path ".csv" then Telemetry.Series.to_csv series
    else Telemetry.Series.to_ndjson series
  in
  write_file path data

let run_bare path mcode_path origin max_cycles palcode ecc no_blocks verify
    report trace regs trace_out metrics_out profile_out telemetry_out
    telemetry_window watch =
  let base = if palcode then Metal_cpu.Config.palcode else Metal_cpu.Config.default in
  let config =
    { base with
      Metal_cpu.Config.trace;
      ecc;
      blockcache = base.Metal_cpu.Config.blockcache && not no_blocks }
  in
  let sys = Metal_core.System.create ~config () in
  let collector =
    if trace_out <> None || metrics_out <> None then
      Some (Metal_trace.Collector.create ())
    else None
  and profiler =
    if profile_out <> None then
      Some
        (Metal_profile.Profile.create
           ~guest_words:(min 65536 (config.Metal_cpu.Config.mem_size / 4))
           ~mram_words:config.Metal_cpu.Config.mram_code_words ())
    else None
  (* Created after mcode verification (the wcet rule needs the static
     bounds from the report), hence the ref. *)
  and telemetry = ref None in
  let install_probes () =
    (* The machine has one probe slot; fan out when several exporters
       are requested so the flags compose instead of last-wins. *)
    let probes =
      List.filter_map Fun.id
        [
          Option.map Metal_trace.Collector.probe collector;
          Option.map Metal_profile.Profile.probe profiler;
          Option.map Telemetry.probe !telemetry;
        ]
    in
    match probes with
    | [] -> ()
    | [ p ] -> Metal_cpu.Machine.set_probe sys.Metal_core.System.machine p
    | ps ->
      Metal_cpu.Machine.set_probe sys.Metal_core.System.machine
        (fun cycle kind a b -> List.iter (fun p -> p cycle kind a b) ps)
  in
  let ( let* ) = Result.bind in
  let result =
    let* mimg, bounds =
      match mcode_path with
      | None -> Ok (None, [])
      | Some p ->
        (match Metal_asm.Asm.assemble (read_file p) with
         | Error e -> Error (Metal_asm.Asm.error_to_string e)
         | Ok mimg ->
           let* bounds =
             if verify then
               Result.map wcet_bounds (verify_mcode ~config ~report mimg)
             else Ok []
           in
           (match
              Metal_cpu.Machine.load_mcode sys.Metal_core.System.machine mimg
            with
            | Ok () -> Ok (Some mimg, bounds)
            | Error e -> Error e))
    in
    if telemetry_out <> None || watch <> [] then
      telemetry :=
        Some
          (Telemetry.create ~window_cycles:telemetry_window ~rules:watch
             ~wcet_bounds:bounds ());
    install_probes ();
    let* img = Metal_core.System.load_program sys ~origin (read_file path) in
    let pc =
      match Metal_asm.Image.find_symbol img "start" with
      | Some a -> a
      | None ->
        (match Metal_asm.Image.bounds img with
         | Some (lo, _) -> lo
         | None -> 0)
    in
    Metal_core.System.start sys ~pc ();
    (match Metal_core.System.run sys ~max_cycles () with
     | Metal_cpu.Machine.Halt_out_of_cycles { budget; _ } ->
       Error
         (Metal_cpu.Pipeline.timeout_diagnostics
            sys.Metal_core.System.machine ~budget)
     | halt -> Ok (halt, img, mimg))
  in
  match result with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok (halt, img, mimg) ->
    Printf.printf "halt: %s\n" (Metal_cpu.Machine.halted_to_string halt);
    let out = Metal_core.System.console_output sys in
    if out <> "" then Printf.printf "console: %s\n" out;
    if regs then begin
      print_endline "registers:";
      for r = 0 to 31 do
        let v = Metal_cpu.Machine.get_reg sys.Metal_core.System.machine r in
        if v <> 0 then
          Printf.printf "  %-5s %s (%d)\n" (Reg.to_string r) (Word.to_hex v)
            (Word.to_signed v)
      done
    end;
    Format.printf "stats: %a@."
      Metal_cpu.Stats.pp sys.Metal_core.System.machine.Metal_cpu.Machine.stats;
    (* Host-side stepper cache counters (predecode + block cache) —
       simulator performance, not architecture, so they live outside
       Stats.  Zero entries are noise; print only what moved. *)
    (match
       List.filter (fun (_, v) -> v <> 0)
         (Metal_cpu.Machine.cache_counters sys.Metal_core.System.machine)
     with
     | [] -> ()
     | live ->
       print_string "caches:";
       List.iter (fun (k, v) -> Printf.printf " %s=%d" k v) live;
       print_newline ());
    if trace then begin
      print_endline "trace (last 40 events):";
      List.iter
        (fun l -> print_endline ("  " ^ l))
        (Metal_cpu.Machine.trace_log sys.Metal_core.System.machine ~max:40)
    end;
    (match collector with
     | None -> ()
     | Some c ->
       (match trace_out with
        | Some f ->
          Metal_trace.Chrome.write ~path:f (Metal_trace.Collector.ring c);
          Printf.printf "trace: %s\n" f
        | None -> ());
       (match metrics_out with
        | Some f ->
          write_file f
            (Metal_trace.Metrics.to_json
               ~caches:
                 (Metal_cpu.Machine.cache_counters
                    sys.Metal_core.System.machine)
               (Metal_trace.Collector.metrics c));
          Printf.printf "metrics: %s\n" f
        | None -> ());
       Format.printf "%a@." Metal_trace.Metrics.pp
         (Metal_trace.Collector.metrics c));
    (match (profiler, profile_out) with
     | Some p, Some f ->
       let symtab =
         Metal_profile.Profile.Symtab.of_images ~guest:img ?mcode:mimg ()
       in
       let r =
         Metal_profile.Profile.report ~symtab
           ~upto:
             sys.Metal_core.System.machine.Metal_cpu.Machine.stats
               .Metal_cpu.Stats.cycles
           p
       in
       write_file f (Metal_profile.Profile.Report.to_json r);
       write_file (f ^ ".folded") (Metal_profile.Profile.Report.to_folded r);
       Printf.printf "profile: %s (flamegraph: %s.folded)\n" f f;
       Format.printf "%a@."
         (fun fmt r -> Metal_profile.Profile.Report.pp fmt r)
         r
     | _ -> ());
    let watchdog_faulted = ref false in
    (match !telemetry with
     | None -> ()
     | Some t ->
       let m = sys.Metal_core.System.machine in
       let stats = m.Metal_cpu.Machine.stats in
       let series =
         Telemetry.Series.annotate (Telemetry.series t)
           ~machine_cycles:stats.Metal_cpu.Stats.cycles
           ~accounted_cycles:
             (Metal_cpu.Stats.accounted_cycles stats
                ~pending_stall:m.Metal_cpu.Machine.stall_cycles)
       in
       (match telemetry_out with
        | Some f ->
          write_telemetry ~path:f series;
          Printf.printf "telemetry: %s\n" f
        | None -> ());
       Format.printf "%a@." Telemetry.Series.pp series;
       let alarms = Telemetry.alarms t in
       List.iter
         (fun a -> print_endline (Telemetry.Watchdog.alarm_to_string a))
         alarms;
       if watch <> [] then begin
         let faults = List.length (Telemetry.fault_alarms alarms) in
         if alarms = [] then
           Printf.printf "watchdog: ok (%d rules)\n" (List.length watch)
         else
           Printf.printf "watchdog: %d alarms (%d fault, %d warn)\n"
             (List.length alarms) faults
             (List.length alarms - faults);
         if faults > 0 then watchdog_faulted := true
       end);
    if !watchdog_faulted then 1 else 0

(* Batch mode: several programs run as fleet jobs across domains.
   One line per program; a failing job never takes down the batch.
   Observability flags are threaded through: [--regs] dumps per-job
   registers, [--trace-out F] writes one Chrome trace per job
   (F.<index>), [--metrics-out F] writes the fleet-merged metrics. *)
let run_batch paths mcode_path origin max_cycles palcode ecc no_blocks verify
    report regs trace_out metrics_out profile_out telemetry_out
    telemetry_window watch jobs =
  let base =
    if palcode then Metal_cpu.Config.palcode else Metal_cpu.Config.default
  in
  let base =
    { base with
      Metal_cpu.Config.ecc;
      blockcache = base.Metal_cpu.Config.blockcache && not no_blocks }
  in
  let mcode = Option.map read_file mcode_path in
  (* Verify the shared mcode once up front, not once per job; the
     report's WCET bounds feed every job's wcet watchdog. *)
  let precheck =
    match mcode with
    | Some src when verify ->
      (match Metal_asm.Asm.assemble src with
       | Error e -> Error (Metal_asm.Asm.error_to_string e)
       | Ok img ->
         Result.map wcet_bounds (verify_mcode ~config:base ~report img))
    | _ -> Ok []
  in
  match precheck with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok bounds ->
  let collect = trace_out <> None || metrics_out <> None in
  let profile = profile_out <> None in
  let telemetry = telemetry_out <> None in
  let batch =
    Array.of_list
      (List.map
         (fun path ->
            Fleet.job ~label:path ~config:base ~fuel:max_cycles ~collect
              ~profile ~telemetry ~telemetry_window ~watch
              ~wcet_bounds:bounds
              (Fleet.Asm { src = read_file path; origin; mcode }))
         paths)
  in
  let domains =
    match jobs with Some j -> j | None -> Fleet.default_domains ()
  in
  let outcomes = Fleet.run ~domains batch in
  let failures = ref 0 in
  let fault_alarms = ref 0 in
  Array.iter
    (fun o ->
       (match o.Fleet.result with
        | Ok ok ->
          Printf.printf "%-32s %-40s %10d cycles %10d instrs\n"
            o.Fleet.job.Fleet.label
            (Metal_cpu.Machine.halted_to_string ok.Fleet.halt)
            ok.Fleet.stats.Metal_cpu.Stats.cycles
            ok.Fleet.stats.Metal_cpu.Stats.instructions;
          if ok.Fleet.console <> "" then
            Printf.printf "%-32s console: %s\n" "" ok.Fleet.console;
          if regs then
            for r = 1 to 31 do
              let v = ok.Fleet.regs.(r) in
              if v <> 0 then
                Printf.printf "%-32s   %-5s %s (%d)\n" "" (Reg.to_string r)
                  (Word.to_hex v) (Word.to_signed v)
            done;
          (match (trace_out, ok.Fleet.events) with
           | Some f, Some ring ->
             let per_job = Printf.sprintf "%s.%d" f o.Fleet.index in
             Metal_trace.Chrome.write ~path:per_job ring;
             Printf.printf "%-32s trace: %s\n" "" per_job
           | _ -> ());
          (match (profile_out, ok.Fleet.profile) with
           | Some f, Some r ->
             let per_job = Printf.sprintf "%s.%d" f o.Fleet.index in
             write_file per_job (Metal_profile.Profile.Report.to_json r);
             Printf.printf "%-32s profile: %s\n" "" per_job
           | _ -> ());
          (match (telemetry_out, ok.Fleet.telemetry) with
           | Some f, Some s ->
             let per_job = Printf.sprintf "%s.%d" f o.Fleet.index in
             write_telemetry ~path:per_job s;
             Printf.printf "%-32s telemetry: %s\n" "" per_job
           | _ -> ());
          List.iter
            (fun a ->
               Printf.printf "%-32s %s\n" ""
                 (Telemetry.Watchdog.alarm_to_string a))
            ok.Fleet.alarms;
          fault_alarms :=
            !fault_alarms
            + List.length (Telemetry.fault_alarms ok.Fleet.alarms)
        | Error e ->
          incr failures;
          Printf.printf "%-32s FAILED: %s\n" o.Fleet.job.Fleet.label
            (Fleet.fail_to_string e)))
    outcomes;
  (match metrics_out with
   | Some f ->
     write_file f (Metal_trace.Metrics.to_json (Fleet.merge_metrics outcomes));
     Printf.printf "metrics: %s\n" f
   | None -> ());
  (match profile_out with
   | Some f ->
     let merged = Fleet.merge_profiles outcomes in
     write_file f (Metal_profile.Profile.Report.to_json merged);
     write_file (f ^ ".folded")
       (Metal_profile.Profile.Report.to_folded merged);
     Printf.printf "profile: %s (merged)\n" f
   | None -> ());
  (match telemetry_out with
   | Some f ->
     write_telemetry ~path:f (Fleet.merge_telemetry outcomes);
     Printf.printf "telemetry: %s (merged)\n" f
   | None -> ());
  if watch <> [] then begin
    if !fault_alarms = 0 then
      Printf.printf "watchdog: ok (%d rules)\n" (List.length watch)
    else Printf.printf "watchdog: %d fault alarms\n" !fault_alarms
  end;
  Printf.printf "%d/%d ok (%d domains)\n"
    (Array.length outcomes - !failures)
    (Array.length outcomes) domains;
  if !failures = 0 && !fault_alarms = 0 then 0 else 1

(* Fault-injection campaigns: each program becomes a campaign workload
   (oracle run + [runs] seeded injected runs on the fleet), with a
   human verdict summary per program and optional verdict JSON. *)
let run_inject paths mcode_path origin max_cycles palcode ecc no_blocks verify
    report spec_str inject_out jobs =
  match Metal_inject.Inject.spec_of_string spec_str with
  | Error e ->
    Printf.eprintf "metal-run: --inject %s\n" e;
    1
  | Ok spec ->
    let base =
      if palcode then Metal_cpu.Config.palcode else Metal_cpu.Config.default
    in
    let base =
      { base with
        Metal_cpu.Config.ecc;
        blockcache = base.Metal_cpu.Config.blockcache && not no_blocks }
    in
    let mcode = Option.map read_file mcode_path in
    (* Verify the shared mcode once up front, not once per run. *)
    let precheck =
      match mcode with
      | Some src when verify ->
        (match Metal_asm.Asm.assemble src with
         | Error e -> Error (Metal_asm.Asm.error_to_string e)
         | Ok img ->
           Result.map (fun _ -> ()) (verify_mcode ~config:base ~report img))
      | _ -> Ok ()
    in
    (match precheck with
     | Error e ->
       Printf.eprintf "error: %s\n" e;
       1
     | Ok () ->
       let prepare src sys =
         (match mcode with
          | None -> ()
          | Some msrc ->
            (match Metal_core.System.load_mcode sys msrc with
             | Ok () -> ()
             | Error e -> failwith e));
         match Metal_core.System.load_program sys ~origin src with
         | Error e -> failwith e
         | Ok img ->
           let pc =
             match Metal_asm.Image.find_symbol img "start" with
             | Some a -> a
             | None ->
               (match Metal_asm.Image.bounds img with
                | Some (lo, _) -> lo
                | None -> 0)
           in
           Metal_core.System.start sys ~pc ()
       in
       let domains = jobs in
       let failures = ref 0 in
       List.iteri
         (fun i path ->
            let w =
              Metal_inject.Inject.workload ~config:base ~fuel:max_cycles
                ~label:path
                (prepare (read_file path))
            in
            match Metal_inject.Inject.run_campaign ?domains ~spec w with
            | Error e ->
              incr failures;
              Printf.printf "%s: FAILED: %s\n" path e
            | Ok c ->
              Format.printf "%a" Metal_inject.Inject.pp c;
              Format.print_flush ();
              (match inject_out with
               | None -> ()
               | Some f ->
                 let f =
                   if List.length paths = 1 then f
                   else Printf.sprintf "%s.%d" f i
                 in
                 write_file f (Metal_inject.Inject.to_json c);
                 Printf.printf "verdicts: %s\n" f))
         paths;
       if !failures = 0 then 0 else 1)

let run paths mcode_path origin max_cycles palcode ecc no_blocks report
    no_verify trace regs os jobs trace_out metrics_out profile_out inject
    inject_out telemetry_out telemetry_window watch =
  let verify = not no_verify in
  let watch_rules =
    match watch with
    | None -> Ok []
    | Some s -> Telemetry.Watchdog.rules_of_string s
  in
  match paths with
  | [] ->
    prerr_endline "metal-run: no program given";
    1
  | _ when (match watch_rules with Error _ -> true | Ok _ -> false) ->
    (match watch_rules with
     | Error e -> Printf.eprintf "metal-run: --watch %s\n" e
     | Ok _ -> ());
    1
  | _ when max_cycles <= 0 ->
    Printf.eprintf
      "metal-run: --max-cycles %d: the cycle budget must be a positive \
       count\n"
      max_cycles;
    1
  | _ when telemetry_window <= 0 ->
    Printf.eprintf
      "metal-run: --telemetry-window %d: the window size must be a \
       positive cycle count\n"
      telemetry_window;
    1
  | _
    when (match watch_rules with
          | Ok rules -> Telemetry.Watchdog.needs_wcet rules
          | Error _ -> false)
         && (mcode_path = None || no_verify) ->
    prerr_endline
      "metal-run: --watch wcet checks measured mroutine latencies \
       against the static verifier's per-entry bounds, so it needs \
       --mcode with verification on (drop --no-verify)";
    1
  | _ when (match jobs with Some j -> j <= 0 | None -> false) ->
    Printf.eprintf
      "metal-run: --jobs %d: the domain count must be positive (omit \
       --jobs to let the fleet pick one domain per core; requests above \
       the core count are clamped)\n"
      (Option.get jobs);
    1
  | _ when report && no_verify ->
    prerr_endline "metal-run: --verify and --no-verify are contradictory";
    1
  | _ when ecc && os ->
    prerr_endline
      "metal-run: --ecc configures the bare machine's MRAM/m-register \
       SECDED layer; the mini-kernel owns its own machine config, so it \
       does not combine with --os";
    1
  | _ when os && mcode_path <> None ->
    prerr_endline "metal-run: --os installs its own mcode (drop --mcode)";
    1
  | _ when inject <> None && os ->
    prerr_endline
      "metal-run: --inject drives the bare machine (campaigns need the \
       fault-free oracle); it does not combine with --os";
    1
  | _
    when inject <> None
         && (trace || regs || trace_out <> None || metrics_out <> None
             || profile_out <> None || telemetry_out <> None
             || watch <> None) ->
    prerr_endline
      "metal-run: --inject owns the probe and the run loop; it does not \
       combine with --trace/--regs/--trace-out/--metrics-out/--profile-out/\
       --telemetry-out/--watch (use --inject-out FILE for the verdict JSON)";
    1
  | _ when inject = None && inject_out <> None ->
    prerr_endline "metal-run: --inject-out requires --inject";
    1
  | _
    when os
         && (trace || regs || trace_out <> None || metrics_out <> None
             || profile_out <> None || telemetry_out <> None
             || watch <> None) ->
    prerr_endline
      "metal-run: --os does not support --trace/--regs/--trace-out/\
       --metrics-out/--profile-out/--telemetry-out/--watch (the kernel \
       owns the machine)";
    1
  | paths when inject <> None ->
    run_inject paths mcode_path origin max_cycles palcode ecc no_blocks verify
      report (Option.get inject) inject_out jobs
  | [ path ] when jobs = None ->
    if os then run_os path max_cycles
    else
      run_bare path mcode_path origin max_cycles palcode ecc no_blocks verify
        report trace regs trace_out metrics_out profile_out telemetry_out
        telemetry_window
        (Result.value ~default:[] watch_rules)
  | paths ->
    if os then begin
      prerr_endline "metal-run: --os does not combine with batch mode";
      1
    end
    else if trace then begin
      prerr_endline
        "metal-run: --trace is single-program only; use --trace-out FILE \
         in batch mode (one Chrome trace per job, FILE.<index>)";
      1
    end
    else
      run_batch paths mcode_path origin max_cycles palcode ecc no_blocks
        verify report regs trace_out metrics_out profile_out telemetry_out
        telemetry_window
        (Result.value ~default:[] watch_rules)
        jobs

open Cmdliner

let paths =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE"
         ~doc:"Program(s) to run (assembly source).  With several \
               files, or with $(b,--jobs), the programs run as a batch \
               on the parallel simulation fleet.")

let mcode =
  Arg.(value & opt (some file) None & info [ "mcode" ] ~docv:"FILE"
         ~doc:"mroutine source to load into MRAM first.")

let origin =
  Arg.(value & opt int 0 & info [ "origin" ] ~docv:"ADDR"
         ~doc:"Load/assembly origin.")

let max_cycles =
  Arg.(value & opt int 10_000_000 & info [ "max-cycles" ] ~docv:"N"
         ~doc:"Cycle budget ($(docv) must be positive).")

let palcode =
  Arg.(value & flag & info [ "palcode" ]
         ~doc:"Run in the PALcode-like configuration (trap-style \
               transitions, mroutines in main memory).")

let ecc =
  Arg.(value & flag & info [ "ecc" ]
         ~doc:"Arm the SECDED ECC layer on the MRAM data segment and \
               the Metal register file: single-bit upsets are \
               corrected at consumption (emitting an ecc_correct \
               event; MRAM data loads pay one extra check cycle), \
               double-bit upsets raise an ecc-uncorrectable Metal \
               fault.  Off by default; without faults an ECC run is \
               architecturally identical to a plain one.")

let no_blocks =
  Arg.(value & flag & info [ "no-blocks" ]
         ~doc:"Disable the basic-block translation cache and run the \
               per-cycle fast stepper instead.  The block stepper is \
               bit-identical in results (it only changes simulator \
               throughput), so this is an escape hatch for debugging \
               the simulator itself and for timing comparisons.")

let verify_report =
  Arg.(value & flag & info [ "verify" ]
         ~doc:"Print the mcode verifier's full report (per-entry WCET \
               bounds, interrupt-latency bound) for $(b,--mcode).  \
               Verification itself is always on unless \
               $(b,--no-verify): the report flag only controls the \
               output.")

let no_verify =
  Arg.(value & flag & info [ "no-verify" ]
         ~doc:"Skip static verification of $(b,--mcode) (CFG safety \
               checks and WCET bounds; on by default, and an mcode \
               image with verification errors refuses to install).")

let trace =
  Arg.(value & flag & info [ "trace" ] ~doc:"Record and print a \
                                             retirement trace.")

let regs =
  Arg.(value & flag & info [ "regs" ] ~doc:"Dump non-zero registers.")

let os =
  Arg.(value & flag & info [ "os" ]
         ~doc:"Run the program as a user process on the Metal \
               mini-kernel (syscalls via menter 0) instead of on the \
               bare machine.")

let jobs =
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Batch the given programs over $(docv) simulation \
               domains on the fleet runner ($(docv) must be positive; \
               omitted = single-program mode for one file, else one \
               domain per core; requests above the core count are \
               clamped).  Per-program results are independent of \
               $(docv).")

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace_event JSON of the run to $(docv) \
               (load it in chrome://tracing or Perfetto).  In batch \
               mode each job writes $(docv).<index>.")

let metrics_out =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
         ~doc:"Write flat metrics JSON (mode split, event counts, \
               stall attribution, per-mroutine latencies) to $(docv).  \
               In batch mode the per-job metrics are merged.")

let profile_out =
  Arg.(value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE"
         ~doc:"Write a cycle-exact profile JSON (per-PC histograms, \
               call-graph stacks, symbolized) to $(docv) and a \
               folded-stack flamegraph to $(docv).folded.  In batch \
               mode each job writes $(docv).<index> and $(docv) gets \
               the fleet-merged profile.  Composes with \
               $(b,--trace-out)/$(b,--metrics-out).")

let inject =
  Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"SPEC"
         ~doc:"Run a deterministic fault-injection campaign instead of a \
               plain run: a fault-free oracle plus seeded injected runs \
               of the program, each classified masked / detected / \
               silent-corruption against the oracle.  $(docv) is \
               comma-separated $(b,seed:N), $(b,runs:N), \
               $(b,classes:NAME+NAME), $(b,integrity), \
               $(b,no-integrity), $(b,user-only) over the defaults \
               (seed 1, 16 runs, every class, integrity on).  Verdicts \
               are reproducible from the spec alone, independent of \
               $(b,--jobs).")

let inject_out =
  Arg.(value & opt (some string) None & info [ "inject-out" ] ~docv:"FILE"
         ~doc:"Write the campaign verdict JSON (schema metal-inject-v1) \
               to $(docv); with several programs each campaign writes \
               $(docv).<index>.  Requires $(b,--inject).")

let telemetry_out =
  Arg.(value & opt (some string) None & info [ "telemetry-out" ] ~docv:"FILE"
         ~doc:"Write the windowed telemetry time-series (schema \
               metal-telemetry-v1: per-window IPC, stall shares, mode \
               residency, mroutine latencies, ECC corrections) to \
               $(docv) — newline-delimited JSON, or CSV when $(docv) \
               ends in .csv.  In batch mode each job writes \
               $(docv).<index> and $(docv) gets the fleet-merged \
               series.  Composes with the other exporters.")

let telemetry_window =
  Arg.(value & opt int Metal_telemetry.Telemetry.default_window
       & info [ "telemetry-window" ] ~docv:"N"
           ~doc:"Telemetry window size in pipeline cycles (default \
                 1024).")

let watch =
  Arg.(value & opt (some string) None & info [ "watch" ] ~docv:"SPEC"
         ~doc:"Arm runtime invariant watchdogs over the telemetry \
               windows: comma-separated rules among $(b,wcet) (every \
               measured mroutine latency must stay within the static \
               verifier's per-entry bound; needs $(b,--mcode)), \
               $(b,ipc_floor:R), $(b,stall_share:CAUSE>P), \
               $(b,ecc_storm:N), $(b,mode_residency:MODE>P); any rule \
               takes an optional $(b,:warn)/$(b,:fault) suffix (wcet \
               defaults to fault, the rest to warn).  Fault alarms \
               make the run exit non-zero.")

let cmd =
  Cmd.v
    (Cmd.info "metal-run" ~doc:"Run a program on the Metal processor")
    Term.(const run $ paths $ mcode $ origin $ max_cycles $ palcode $ ecc
          $ no_blocks $ verify_report $ no_verify $ trace $ regs $ os $ jobs
          $ trace_out $ metrics_out $ profile_out $ inject $ inject_out
          $ telemetry_out $ telemetry_window $ watch)

let () = exit (Cmd.eval' cmd)
