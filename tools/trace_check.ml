(* trace-check: CI validator for observability artifacts.

   [trace_check chrome FILE]
     FILE must be a Chrome trace_event JSON document: a top-level
     object with a [traceEvents] array in which every non-metadata
     event carries numeric [tid]/[ts] and timestamps are monotone per
     track (the exporter writes events in recording order, so any
     regression here is a sort bug, not a rendering choice).

   [trace_check metrics FILE]
     FILE must be a [--metrics-out] document (schema
     [metal-metrics-v1]): numeric mode-split counters, event and stall
     count objects, and a well-formed mroutine latency table whose
     per-entry histogram sums match the entry's call count.

   [trace_check profile MERGED FILE...]
     All files are [--profile-out] documents (schema
     [metal-profile-v1]).  Each must be internally consistent:
     [total_cycles = other_cycles + sum of flat cycles], and the
     call-graph rows must account for the same cycles as the flat
     histogram.  When per-job FILEs are given, merging them in
     argument order must reproduce MERGED byte-for-byte — the fleet
     merge is deterministic, so any divergence is a merge bug.

   [trace_check bench BASELINE FRESH [--tolerance PCT]]
     Both files are [bench simperf --json] outputs
     (BENCH_sim_throughput.json schema).  Every workload present in
     BASELINE must also be in FRESH, and FRESH's tracing-disabled
     throughput must not fall more than PCT percent (default 20) below
     the committed baseline.  Each stepper tier's fresh/committed ratio
     is printed; on failure the message says whether every tier fell by
     a similar factor (a slower host, or a regression in code all tiers
     share: memory, bus, decode) or one tier fell alone (a hot-path
     regression in that tier, e.g. the disabled probe — one
     load-and-branch per would-be event — leaking into it).  Speedups
     always pass.

   [trace_check inject FILE]
     FILE is a fault-injection verdict document ([mrun --inject-out],
     schema [metal-inject-v1]) or the bench wrapper
     ([BENCH_inject.json], schema [metal-inject-bench-v1] with a
     [campaigns] array).  Each campaign must have exactly [runs]
     records, summary and per-class verdict counts that recount the
     records, and [events = applied] on every record (each applied
     fault appears exactly once in the probe's event stream).

   [trace_check telemetry MERGED FILE...]
     All files are [--telemetry-out] ndjson documents (schema
     [metal-telemetry-v1]).  Each must be internally consistent: the
     header totals must be the sums (max, for [mroutine_max]) of the
     per-window rows, [total_cycles] must equal the [machine_cycles]
     annotation when one is present (the windows account for every
     pipeline cycle), [machine_cycles] must equal [accounted_cycles]
     when both are present, and re-rendering the parsed series must
     reproduce the file byte-for-byte (the format is canonical).  When
     per-job FILEs are given, merging them in argument order must
     reproduce MERGED exactly — the fleet merge is deterministic. *)

module Json = Metal_trace.Json

let failf fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let parse_file path =
  match Json.parse_file path with
  | Ok j -> j
  | Error e -> failf "%s: %s" path e

let str_field name j = Option.bind (Json.member name j) Json.to_string
let num_field name j = Option.bind (Json.member name j) Json.to_num

let check_chrome path =
  let j = parse_file path in
  let events =
    match Json.member "traceEvents" j with
    | Some a ->
      let l = Json.to_list a in
      if l = [] then failf "%s: traceEvents is not a non-empty array" path;
      l
    | None -> failf "%s: no traceEvents field" path
  in
  let last = Hashtbl.create 8 in
  let timed = ref 0 in
  List.iteri
    (fun i ev ->
       match str_field "ph" ev with
       | None -> failf "%s: event %d has no phase" path i
       | Some "M" -> ()  (* metadata records carry no timestamp *)
       | Some _ ->
         incr timed;
         let tid =
           match num_field "tid" ev with
           | Some t -> int_of_float t
           | None -> failf "%s: event %d has no numeric tid" path i
         and ts =
           match num_field "ts" ev with
           | Some t -> t
           | None -> failf "%s: event %d has no numeric ts" path i
         in
         (match Hashtbl.find_opt last tid with
          | Some prev when ts < prev ->
            failf "%s: event %d: tid %d goes back in time (%.0f after %.0f)"
              path i tid ts prev
          | _ -> ());
         Hashtbl.replace last tid ts)
    events;
  Printf.printf "%s: ok (%d events, %d tracks, timestamps monotone)\n" path
    !timed (Hashtbl.length last)

(* ------------------------------------------------------------------ *)
(* Metrics JSON                                                        *)

let require_schema path tag j =
  match str_field "schema" j with
  | Some s when s = tag -> ()
  | Some s -> failf "%s: schema %S, expected %S" path s tag
  | None -> failf "%s: no schema field" path

let int_field path name j =
  match num_field name j with
  | Some n -> int_of_float n
  | None -> failf "%s: no numeric %s field" path name

let count_object path name j =
  match Json.member name j with
  | Some (Json.Obj kvs) ->
    List.map
      (fun (k, v) ->
         match Json.to_num v with
         | Some n -> (k, int_of_float n)
         | None -> failf "%s: %s.%s is not a number" path name k)
      kvs
  | Some _ -> failf "%s: %s is not an object" path name
  | None -> failf "%s: no %s field" path name

let check_metrics path =
  let j = parse_file path in
  require_schema path "metal-metrics-v1" j;
  List.iter
    (fun f -> ignore (int_field path f j))
    [ "user_cycles"; "metal_cycles"; "user_instructions";
      "metal_instructions"; "ecc_corrections"; "injections";
      "events_recorded"; "events_dropped"; "dropped_entries" ];
  let events = count_object path "events" j in
  (* The dedicated counters are derived from the same stream as the
     per-kind event table; a mismatch means the collector double-books. *)
  let event_count kind =
    match List.assoc_opt kind events with Some n -> n | None -> 0
  in
  List.iter
    (fun (field, kind) ->
       let claimed = int_field path field j in
       if claimed <> event_count kind then
         failf "%s: %s claims %d, events.%s says %d" path field claimed kind
           (event_count kind))
    [ ("ecc_corrections", "ecc_correct"); ("injections", "inject") ];
  ignore (count_object path "stall_cycles" j);
  let mroutines =
    match Json.member "mroutines" j with
    | Some a -> Json.to_list a
    | None -> failf "%s: no mroutines array" path
  in
  List.iter
    (fun m ->
       let entry = int_field path "entry" m in
       let count = int_field path "count" m in
       let lats =
         match Json.member "latencies" m with
         | Some a -> Json.to_list a
         | None -> failf "%s: mroutine %d has no latencies" path entry
       in
       let histogram_total =
         List.fold_left
           (fun acc pair ->
              match List.map Json.to_num (Json.to_list pair) with
              | [ Some _; Some n ] -> acc + int_of_float n
              | _ -> failf "%s: mroutine %d: malformed latency pair" path entry)
           0 lats
       in
       if histogram_total <> count then
         failf "%s: mroutine %d: latency histogram sums to %d, count is %d"
           path entry histogram_total count)
    mroutines;
  (* Optional host-side stepper cache counters (predecode + block
     cache, [Machine.cache_counters]).  They live outside the
     event-derived record, so all we require is shape: an object of
     non-negative integers. *)
  let caches =
    match Json.member "caches" j with
    | None -> []
    | Some _ ->
      let l = count_object path "caches" j in
      List.iter
        (fun (k, v) ->
           if v < 0 then failf "%s: caches.%s is negative (%d)" path k v)
        l;
      l
  in
  Printf.printf "%s: ok (%d event kinds, %d mroutines%s)\n" path
    (List.length events) (List.length mroutines)
    (if caches = [] then ""
     else Printf.sprintf ", %d cache counters" (List.length caches))

(* ------------------------------------------------------------------ *)
(* Profile JSON                                                        *)

module Report = Metal_profile.Profile.Report

let read_raw path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_profile path =
  let j = parse_file path in
  require_schema path "metal-profile-v1" j;
  match Report.of_json j with
  | Ok r -> r
  | Error e -> failf "%s: %s" path e

let check_profile_consistent path (r : Report.t) =
  let flat_cycles =
    List.fold_left (fun acc (f : Report.flat_row) -> acc + f.cycles) 0 r.flat
  and stack_cycles =
    List.fold_left (fun acc (s : Report.stack_row) -> acc + s.cycles) 0
      r.stacks
  in
  if r.total_cycles <> r.other_cycles + flat_cycles then
    failf "%s: total_cycles %d <> other %d + flat %d" path r.total_cycles
      r.other_cycles flat_cycles;
  if stack_cycles <> flat_cycles then
    failf "%s: call-graph accounts for %d cycles, flat histogram for %d"
      path stack_cycles flat_cycles;
  List.iter
    (fun (s : Report.stack_row) ->
       List.iter
         (fun key ->
            if not (List.mem_assoc key r.names) then
              failf "%s: stack key %d has no symbolized name" path key)
         s.stack)
    r.stacks

let check_profile merged parts =
  let m = load_profile merged in
  check_profile_consistent merged m;
  let reports = List.map load_profile parts in
  List.iter2 check_profile_consistent parts reports;
  if parts <> [] then begin
    let remerged =
      List.fold_left Report.merge Report.empty reports
    in
    if Report.to_json remerged <> read_raw merged then
      failf
        "%s: merging %d per-job profiles in index order does not \
         reproduce the merged artifact — fleet merge is non-deterministic"
        merged (List.length parts)
  end;
  Printf.printf
    "%s: ok (%d cycles, %d hot PCs, %d stacks%s)\n" merged m.total_cycles
    (List.length m.flat) (List.length m.stacks)
    (if parts = [] then ""
     else Printf.sprintf ", merge of %d reproduced" (List.length parts))

let workloads j =
  match Json.member "workloads" j with
  | Some a -> Json.to_list a
  | None -> failf "bench JSON has no workloads array"

(* Committed throughput per workload: the block stepper when the
   artifact has it (current schema), else the predecode stepper (the
   pre-block-cache artifacts stay checkable). *)
let workload_ips j =
  match Option.bind (Json.member "blocks_on" j) (num_field "ips") with
  | Some ips -> ips
  | None ->
    (match Option.bind (Json.member "predecode_on" j) (num_field "ips") with
     | Some ips -> ips
     | None -> failf "bench workload has no blocks_on.ips or predecode_on.ips")

(* The stepper tiers a simperf workload records, fastest first. *)
let tiers =
  [ ("blocks", "blocks_on"); ("predecode", "predecode_on"); ("slow", "slow") ]

(* Fresh/committed ips ratio of every tier present in both records. *)
let tier_ratios w w' =
  List.filter_map
    (fun (label, key) ->
       match
         ( Option.bind (Json.member key w) (num_field "ips"),
           Option.bind (Json.member key w') (num_field "ips") )
       with
       | Some base, Some now when base > 0.0 -> Some (label, now /. base)
       | _ -> None)
    tiers

(* Why a workload fell below the gate.  A drop that every tier shares
   (within the gate's own tolerance) comes from something all tiers
   have in common: a slower or busier host than the one that recorded
   the baseline, or a regression in code every tier runs (memory and
   bus accesses, decode, the event-emit check).  A drop one tier takes
   alone is a regression in that tier's hot path. *)
let diagnose_drop ~floor ratios =
  match List.sort (fun (_, a) (_, b) -> compare a b) ratios with
  | [] | [ _ ] ->
    "the disabled probe is leaking into the hot path (no other tier \
     recorded to compare against)"
  | ((lo_tier, lo) :: _) as sorted ->
    let hi_tier, hi = List.nth sorted (List.length sorted - 1) in
    if lo >= hi *. floor then
      Printf.sprintf
        "the drop is uniform across tiers (%.2fx-%.2fx): a slower host or \
         a regression in code all tiers share (memory/bus/decode)"
        lo hi
    else
      Printf.sprintf
        "the drop is not uniform across tiers (%s %.2fx vs %s %.2fx): it \
         points at the %s tier's hot path, e.g. the disabled probe leaking \
         into it"
        lo_tier lo hi_tier hi lo_tier

let check_bench baseline fresh tolerance =
  let base = parse_file baseline and now = parse_file fresh in
  let fresh_by_name =
    List.filter_map
      (fun w -> Option.map (fun n -> (n, w)) (str_field "name" w))
      (workloads now)
  in
  let floor = 1.0 -. (tolerance /. 100.0) in
  let rows =
    List.map
      (fun w ->
         let name =
           match str_field "name" w with
           | Some n -> n
           | None -> failf "%s: workload without a name" baseline
         in
         match List.assoc_opt name fresh_by_name with
         | None -> failf "%s: workload %s missing from %s" baseline name fresh
         | Some w' ->
           let ratio = workload_ips w' /. workload_ips w in
           let ratios = tier_ratios w w' in
           Printf.printf "%-20s %6.2fx of committed throughput (%s)\n" name
             ratio
             (String.concat ", "
                (List.map
                   (fun (t, r) -> Printf.sprintf "%s %.2fx" t r)
                   ratios));
           (name, ratio, ratios))
      (workloads base)
  in
  flush stdout;
  List.iter
    (fun (name, ratio, ratios) ->
       if ratio < floor then
         failf
           "%s: %.1f%% below the committed baseline (tolerance %.0f%%) — %s"
           name
           ((1.0 -. ratio) *. 100.0)
           tolerance (diagnose_drop ~floor ratios))
    rows;
  (* The block stepper exists to beat the per-cycle stepper; a fresh
     run whose blocks-over-predecode geomean dips below 1.0 means the
     block cache lost its reason to exist (bails dominating, or an
     engage-path regression), so that is a hard failure regardless of
     the noise tolerance above. *)
  match num_field "geomean_blocks_speedup" now with
  | None -> ()
  | Some g ->
    Printf.printf "geomean blocks/predecode %.2fx\n" g;
    if g < 1.0 then
      failf
        "%s: blocks-on geomean %.2fx is below predecode-on — the block \
         cache is a net loss on this host"
        fresh g

(* ------------------------------------------------------------------ *)
(* Fault-injection verdict JSON                                        *)

(* One campaign document ([mrun --inject-out] / one element of the
   bench wrapper).  Beyond the schema, the cross-counts must hold: the
   summary and per-class tables must recount the records exactly, and
   every record must have observed exactly as many [inject] events as
   faults it applied — an event without an application (or the
   reverse) means the injector and the probe disagree about what
   happened. *)
let check_inject_campaign path j =
  require_schema path "metal-inject-v1" j;
  let label =
    match str_field "label" j with
    | Some l -> l
    | None -> failf "%s: campaign has no label" path
  in
  (* The ECC fields ("ecc": true, "corrected" counts, per-record
     "ecc_corrected") appear only in campaigns run with the SECDED
     layer armed; a "corrected" verdict in an ECC-off document is a
     schema violation. *)
  let ecc =
    match Json.member "ecc" j with
    | Some (Json.Bool b) -> b
    | Some _ -> failf "%s: %s: ecc field is not a bool" path label
    | None -> false
  in
  let runs = int_field path "runs" j in
  ignore (int_field path "seed" j);
  ignore (int_field path "oracle_cycles" j);
  let records =
    match Json.member "records" j with
    | Some a -> Json.to_list a
    | None -> failf "%s: %s: no records array" path label
  in
  if List.length records <> runs then
    failf "%s: %s: %d records for %d runs" path label (List.length records)
      runs;
  let tally = Hashtbl.create 8 in
  let bump key = Hashtbl.replace tally key (
    (match Hashtbl.find_opt tally key with Some n -> n | None -> 0) + 1)
  in
  List.iteri
    (fun i r ->
       let idx = int_field path "index" r in
       if idx <> i then
         failf "%s: %s: record %d carries index %d" path label i idx;
       let applied = int_field path "applied" r in
       let events = int_field path "events" r in
       if events <> applied then
         failf
           "%s: %s: record %d observed %d inject events for %d applied \
            faults"
           path label i events applied;
       ignore (int_field path "cycles" r);
       let cls =
         match str_field "class" r with
         | Some c -> c
         | None -> failf "%s: %s: record %d has no class" path label i
       in
       let corrections =
         if ecc then int_field path "ecc_corrected" r
         else begin
           (match Json.member "ecc_corrected" r with
            | Some _ ->
              failf "%s: %s: record %d carries ecc_corrected without ecc"
                path label i
            | None -> ());
           0
         end
       in
       match str_field "verdict" r with
       | Some
           (("masked" | "corrected" | "detected" | "silent_corruption") as v)
         ->
         if v = "corrected" && not ecc then
           failf "%s: %s: record %d: corrected verdict without ecc" path
             label i;
         (* The corrected verdict and the correction counter must
            agree: corrected ⇔ converged with repairs consumed. *)
         if v = "corrected" && corrections = 0 then
           failf
             "%s: %s: record %d: corrected verdict with 0 ecc_corrected"
             path label i;
         if v = "masked" && corrections > 0 then
           failf
             "%s: %s: record %d: masked verdict despite %d ecc_corrected"
             path label i corrections;
         bump ("" , v);
         bump (cls, v)
       | Some v -> failf "%s: %s: record %d: unknown verdict %S" path label i v
       | None -> failf "%s: %s: record %d has no verdict" path label i)
    records;
  let recount scope v =
    match Hashtbl.find_opt tally (scope, v) with Some n -> n | None -> 0
  in
  let check_counts scope obj =
    List.iter
      (fun (field, v) ->
         let claimed = int_field path field obj in
         let actual = recount scope v in
         if claimed <> actual then
           failf "%s: %s: %s%s claims %d, records say %d" path label
             (if scope = "" then "summary " else "class " ^ scope ^ " ")
             field claimed actual)
      ([ ("masked", "masked") ]
       @ (if ecc then [ ("corrected", "corrected") ] else [])
       @ [ ("detected", "detected");
           ("silent_corruption", "silent_corruption") ])
  in
  (match Json.member "summary" j with
   | Some s -> check_counts "" s
   | None -> failf "%s: %s: no summary object" path label);
  let per_class =
    match Json.member "per_class" j with
    | Some a -> Json.to_list a
    | None -> failf "%s: %s: no per_class array" path label
  in
  List.iter
    (fun pc ->
       let cls =
         match str_field "class" pc with
         | Some c -> c
         | None -> failf "%s: %s: per_class row without class" path label
       in
       let claimed = int_field path "runs" pc in
       let actual =
         recount cls "masked" + recount cls "corrected"
         + recount cls "detected" + recount cls "silent_corruption"
       in
       if claimed <> actual then
         failf "%s: %s: class %s claims %d runs, records say %d" path label
           cls claimed actual;
       check_counts cls pc)
    per_class;
  (label, runs, recount "" "masked", recount "" "corrected",
   recount "" "detected", recount "" "silent_corruption")

let check_inject path =
  let j = parse_file path in
  let campaigns =
    match Json.member "campaigns" j with
    | Some a ->
      require_schema path "metal-inject-bench-v1" j;
      Json.to_list a
    | None -> [ j ]
  in
  if campaigns = [] then failf "%s: empty campaigns array" path;
  let totals =
    List.map (check_inject_campaign path) campaigns
  in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 totals in
  Printf.printf "%s: ok (%d campaigns, %d runs: %d masked, %d corrected, \
                 %d detected, %d silent)\n"
    path (List.length totals)
    (sum (fun (_, r, _, _, _, _) -> r))
    (sum (fun (_, _, m, _, _, _) -> m))
    (sum (fun (_, _, _, c, _, _) -> c))
    (sum (fun (_, _, _, _, d, _) -> d))
    (sum (fun (_, _, _, _, _, s) -> s))

(* ------------------------------------------------------------------ *)
(* Telemetry ndjson                                                    *)

module Series = Metal_telemetry.Telemetry.Series

(* Parse the file through the library (which enforces schema, window
   contiguity and field shapes), then re-derive every header total from
   the window rows and compare against the header the producer wrote —
   a divergence means the collector's accounting drifted from its own
   windows.  Finally re-render: the format is canonical, so the bytes
   must round-trip. *)
let load_telemetry path =
  let raw = read_raw path in
  let series =
    match Series.of_ndjson raw with
    | Ok s -> s
    | Error e -> failf "%s: %s" path e
  in
  let header =
    match String.index_opt raw '\n' with
    | Some i -> (
      match Json.parse (String.sub raw 0 i) with
      | Ok j -> j
      | Error e -> failf "%s: header: %s" path e)
    | None -> failf "%s: missing window lines" path
  in
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 series.Series.windows in
  let check field total =
    let claimed = int_field path field header in
    if claimed <> total then
      failf "%s: header %s claims %d, windows sum to %d" path field claimed
        total
  in
  check "total_cycles" (Series.total_cycles series);
  check "user_cycles" (sum (fun w -> w.Series.user_cycles));
  check "metal_cycles" (sum (fun w -> w.Series.metal_cycles));
  check "instructions" (Series.total_instructions series);
  check "metal_instructions" (sum (fun w -> w.Series.metal_instructions));
  check "tlb_misses" (sum (fun w -> w.Series.tlb_misses));
  check "flushes" (sum (fun w -> w.Series.flushes));
  check "mode_enters" (sum (fun w -> w.Series.mode_enters));
  check "mroutine_exits" (sum (fun w -> w.Series.mroutine_exits));
  check "mroutine_cycles" (sum (fun w -> w.Series.mroutine_cycles));
  check "ecc_corrections" (sum (fun w -> w.Series.ecc_corrections));
  check "injections" (sum (fun w -> w.Series.injections));
  let max_lat =
    List.fold_left
      (fun acc w -> max acc w.Series.mroutine_max)
      0 series.Series.windows
  in
  let claimed_max = int_field path "mroutine_max" header in
  if claimed_max <> max_lat then
    failf "%s: header mroutine_max claims %d, worst window says %d" path
      claimed_max max_lat;
  let stall_counts = count_object path "stall_cycles" header in
  List.iter
    (fun (cause, claimed) ->
       let total =
         sum (fun w ->
             match List.assoc_opt cause w.Series.stalls with
             | Some n -> n
             | None -> 0)
       in
       if claimed <> total then
         failf "%s: header stall_cycles.%s claims %d, windows sum to %d"
           path cause claimed total)
    stall_counts;
  (* The annotations tie the series back to the machine that produced
     it: a halting run's windows cover every pipeline cycle, and the
     cycle-accounting identity (Stats.accounted_cycles) must hold. *)
  if series.Series.machine_cycles > 0
     && Series.total_cycles series <> series.Series.machine_cycles then
    failf "%s: windows cover %d cycles, machine ran %d" path
      (Series.total_cycles series) series.Series.machine_cycles;
  if series.Series.machine_cycles > 0 && series.Series.accounted_cycles > 0
     && series.Series.machine_cycles <> series.Series.accounted_cycles then
    failf "%s: machine_cycles %d <> accounted_cycles %d" path
      series.Series.machine_cycles series.Series.accounted_cycles;
  if Series.to_ndjson series <> raw then
    failf "%s: re-rendering the parsed series does not reproduce the file \
           — the ndjson writer is not canonical" path;
  series

let check_telemetry merged parts =
  let m = load_telemetry merged in
  let part_series = List.map load_telemetry parts in
  if parts <> [] then begin
    let remerged =
      List.fold_left Series.merge Series.empty part_series
    in
    if Series.to_ndjson remerged <> read_raw merged then
      failf
        "%s: merging %d per-job series in index order does not reproduce \
         the merged artifact — fleet merge is non-deterministic"
        merged (List.length parts)
  end;
  Printf.printf
    "%s: ok (%d windows x %d cycles, %d cycles, header totals recounted%s)\n"
    merged
    (List.length m.Series.windows)
    m.Series.window_cycles (Series.total_cycles m)
    (if parts = [] then ""
     else Printf.sprintf ", merge of %d reproduced" (List.length parts))

let usage () =
  prerr_endline
    "usage: trace_check chrome FILE\n\
    \       trace_check metrics FILE\n\
    \       trace_check profile MERGED [FILE...]\n\
    \       trace_check bench BASELINE FRESH [--tolerance PCT]\n\
    \       trace_check inject FILE\n\
    \       trace_check telemetry MERGED [FILE...]";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "chrome" :: files when files <> [] -> List.iter check_chrome files
  | _ :: "metrics" :: files when files <> [] -> List.iter check_metrics files
  | _ :: "profile" :: merged :: parts -> check_profile merged parts
  | _ :: "bench" :: baseline :: fresh :: rest ->
    let tolerance =
      match rest with
      | [] -> 20.0
      | [ "--tolerance"; pct ] ->
        (try float_of_string pct with Failure _ -> usage ())
      | _ -> usage ()
    in
    check_bench baseline fresh tolerance
  | _ :: "inject" :: files when files <> [] -> List.iter check_inject files
  | _ :: "telemetry" :: merged :: parts -> check_telemetry merged parts
  | _ -> usage ()
