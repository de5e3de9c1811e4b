(* The benchmark's jobs: seeded input generation, the mrun-shaped job
   path (assemble -> mverify -> load -> simulate -> export), fault
   campaigns, and the checks on every output.  Every call into a layer
   is wrapped in a span named after the layer. *)

open Metal_isa
open Metal_cpu
module Asm = Metal_asm.Asm
module Image = Metal_asm.Image
module Mverify = Metal_mverify.Mverify
module System = Metal_core.System
module Collector = Metal_trace.Collector
module Chrome = Metal_trace.Chrome
module Metrics = Metal_trace.Metrics
module Json = Metal_trace.Json
module Profile = Metal_profile.Profile
module Telemetry = Metal_telemetry.Telemetry
module Inject = Metal_inject.Inject
module Fleet = Metal_fleet.Fleet
module Nic = Metal_hw.Devices.Nic
module Layout = Metal_progs.Layout

let fail fmt = Printf.ksprintf failwith fmt
let ok_or_fail = function Ok () -> () | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* Deterministic counters                                              *)

(* Simulated and work counts, summed over a pass.  For one seed every
   pass must produce the same table; fleet workers add to it too. *)
let counts : (string, int) Hashtbl.t = Hashtbl.create 64
let counts_lock = Mutex.create ()

let count k n =
  Mutex.protect counts_lock (fun () ->
      let prev = Option.value (Hashtbl.find_opt counts k) ~default:0 in
      Hashtbl.replace counts k (prev + n))

let take_counts () =
  Mutex.protect counts_lock (fun () ->
      let l = List.sort compare (List.of_seq (Hashtbl.to_seq counts)) in
      Hashtbl.reset counts;
      l)

(* ------------------------------------------------------------------ *)
(* Jobs                                                                *)

type job = {
  label : string;
  config : Config.t;
  nic : Nic.schedule option;
  guest : string;  (** guest assembly *)
  mcode : string option;  (** mroutine assembly, verified before loading *)
  install : Machine.t -> unit;
      (** the workload's install calls: handlers, page tables, data *)
  fuel : int;
  observe : bool;  (** arm collector, profiler and telemetry *)
  check : System.t -> string list;  (** workload checksums; [] = pass *)
  mutable export_digest : string option;
      (** digest of the exports, recorded when they were first
          validated by parsing *)
}

let job ?(config = Config.default) ?nic ?mcode ?(install = ignore)
    ?(fuel = 20_000_000) ?(observe = false) ~label ~check guest =
  { label; config; nic; guest; mcode; install; fuel; observe; check;
    export_digest = None }

type campaign = {
  workload : job;
  spec : Inject.spec;
  mutable cfuel : int;  (** set in setup: a multiple of the oracle run *)
  mutable expected : Inject.campaign option;
      (** [run_campaign]'s result, computed in setup *)
  mutable oracle_instructions : int;
}

(* ------------------------------------------------------------------ *)
(* Seeded generators                                                   *)

let rng seed salt = Random.State.make [| seed; salt |]

(* [n] values stratified over [lo, hi] on a log scale: one draw per
   stratum, so every seed covers the whole range in the same shape. *)
let stratified st n lo hi =
  let llo = log (float_of_int lo) and lhi = log (float_of_int hi) in
  List.init n (fun i ->
      let u = (float_of_int i +. Random.State.float st 1.0) /. float_of_int n in
      int_of_float (exp (llo +. (u *. (lhi -. llo)))))

let wrap32 x = x land 0xFFFF_FFFF

let ebreak_halt = function
  | Some (Machine.Halt_ebreak _) -> []
  | Some h -> [ "halt: " ^ Machine.halted_to_string h ]
  | None -> [ "did not halt within its fuel" ]

let expect_reg sys name want =
  let got = System.reg sys name in
  if got = wrap32 want then []
  else [ Printf.sprintf "%s = 0x%x, expected 0x%x" name got (wrap32 want) ]

(* Random straight-line ALU/load/store/branch body in the shape of the
   differential corpus: 16 live registers, word loads and stores off
   x28, forward branches that skip one instruction. *)
let random_body st n =
  let b = Buffer.create (n * 20) in
  let alu = [| "add"; "sub"; "sll"; "slt"; "sltu"; "xor"; "srl"; "sra"; "or"; "and" |]
  and cond = [| "beq"; "bne"; "blt"; "bge"; "bltu"; "bgeu" |] in
  let r () = Random.State.int st 16 in
  for i = 0 to n - 1 do
    let line =
      if i >= n - 2 then
        Printf.sprintf "%s x%d, x%d, x%d" alu.(Random.State.int st 10) (r ()) (r ()) (r ())
      else
        match Random.State.int st 10 with
        | 0 | 1 | 2 ->
          Printf.sprintf "%s x%d, x%d, x%d" alu.(Random.State.int st 10) (r ()) (r ()) (r ())
        | 3 | 4 ->
          Printf.sprintf "addi x%d, x%d, %d" (r ()) (r ()) (Random.State.int st 4096 - 2048)
        | 5 -> Printf.sprintf "lw x%d, %d(x28)" (r ()) (4 * Random.State.int st 64)
        | 6 -> Printf.sprintf "sw x%d, %d(x28)" (r ()) (4 * Random.State.int st 64)
        | 7 ->
          Printf.sprintf "%s x%d, x%d, . + 8" cond.(Random.State.int st 6) (r ()) (r ())
        | _ -> Printf.sprintf "xori x%d, x%d, %d" (r ()) (r ()) (Random.State.int st 2048)
    in
    Buffer.add_string b "    ";
    Buffer.add_string b line;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

(* Data lives at 256 KiB, above the largest code body (24 KiB). *)
let data_page = 0x40

let loop_program ?(extra = "") ~body ~iters () =
  Printf.sprintf
    "start:\n    lui x28, 0x%x\n    li x29, %d\nbody:\n%s%s    addi x29, x29, -1\n    beqz x29, done\n    j body\ndone:\n    ebreak\n"
    data_page iters body extra

(* The final registers the [Reference] interpreter computes for an
   image: the guest_batch oracle. *)
let reference_regs src =
  let img = Asm.assemble_exn src in
  let r = Reference.create ~mem_size:Config.default.Config.mem_size in
  ok_or_fail (Reference.load_image r img);
  match Reference.run r ~max_instructions:50_000_000 with
  | Reference.Stop_ebreak _ -> Array.init 32 (Reference.get_reg r)
  | Reference.Stop_limit -> failwith "reference: instruction limit"
  | Reference.Stop_fault e -> failwith ("reference: " ^ e)

(* guest_batch: user-mode loops whose body sizes span 32 to 6144
   instructions (below and above the 4096-entry predecode and block
   caches), each retiring about [target] instructions. *)
let guest_batch ~seed =
  let st = rng seed 1 in
  let target = 400_000 in
  List.mapi
    (fun i body_len ->
       let iters = max 2 (min 2000 (target / body_len)) in
       let src = loop_program ~body:(random_body st body_len) ~iters () in
       let want = reference_regs src in
       let check sys =
         let m = sys.System.machine in
         List.concat
           (List.init 32 (fun r ->
                let got = Machine.get_reg m r in
                if got = want.(r) then []
                else
                  [ Printf.sprintf "x%d = 0x%x, reference 0x%x" r got want.(r) ]))
       in
       job ~label:(Printf.sprintf "guest%d/%d" i body_len) ~check src)
    (stratified st 16 32 6144)

(* Figure-2-style menter/mexit ping: entry 1 adds a0 into m10 and
   returns the running sum in a1. *)
let ping_mcode =
  ".mentry 1, ping\n\
   ping:\n\
  \    wmr m11, t0\n\
  \    rmr t0, m10\n\
  \    add t0, t0, a0\n\
  \    wmr m10, t0\n\
  \    mv a1, t0\n\
  \    rmr t0, m11\n\
  \    mexit\n"

let ping_guest n =
  Printf.sprintf
    "start:\n    li s0, %d\n    li a0, 0\n    li s1, 0\nloop:\n    addi a0, a0, 1\n    menter 1\n    add s1, s1, a1\n    addi s0, s0, -1\n    bnez s0, loop\n    ebreak\n"
    n

let ping_job ?config ?observe ~label n =
  let check sys =
    let s1 = ref 0 in
    for k = 1 to n do
      s1 := !s1 + (k * (k + 1) / 2)
    done;
    expect_reg sys "a1" (n * (n + 1) / 2) @ expect_reg sys "s1" !s1
  in
  job ?config ?observe ~label ~mcode:ping_mcode ~check (ping_guest n)

(* Null system calls through the Figure-2 kenter/kexit mroutines. *)
let priv_cfg =
  { Metal_progs.Privilege.syscall_table = 0x2000; nsyscalls = 1;
    kernel_pkeys = 0; user_pkeys = 0; fault_entry = 0x3F00 }

let null_job ?config ?observe ~label n =
  let guest =
    "start:\n"
    ^ String.concat "" (List.init n (fun _ -> "    li a0, 0\n    menter 0\n"))
    ^ "    ebreak\n.org 0x2000\n    .word sys_null\n.org 0x3000\nsys_null:\n    menter 1\n.org 0x3F00\n    ebreak\n"
  in
  let check sys =
    let menters = (System.stats sys).Stats.menters in
    if menters = 2 * n then []
    else [ Printf.sprintf "menters = %d, expected %d" menters (2 * n) ]
  in
  job ?config ?observe ~label ~mcode:(Metal_progs.Privilege.mcode priv_cfg)
    ~check guest

(* E6: strided loads over [pages] pages of paged memory, TLB misses
   refilled by the mcode walker or the hardware walker.  s5 sums the
   loaded words, which setup seeds.  The stride is 5 pages, so a page
   count that is not a multiple of 5 makes the loop touch every page:
   the working set is [pages]. *)
let walker_job ?config ~label ~st ~pages ~accesses ~hw () =
  let pages = if pages mod 5 = 0 then pages + 1 else pages in
  let limit = pages * 4096 in
  let guest =
    Printf.sprintf
      "start:\n    li s0, 0x400000\n    li s1, %d\n    li s2, 0\n    li s3, 0x5000\n    li s4, %d\n    li s5, 0\nloop:\n    add t0, s0, s2\n    lw t1, 0(t0)\n    add s5, s5, t1\n    add s2, s2, s3\n    bltu s2, s4, nowrap\n    sub s2, s2, s4\nnowrap:\n    addi s1, s1, -1\n    bnez s1, loop\n    ebreak\n"
      accesses limit
  in
  let data = Hashtbl.create 256 in
  let sum = ref 0 and off = ref 0 in
  for _ = 1 to accesses do
    if not (Hashtbl.mem data !off) then
      Hashtbl.replace data !off (Random.State.bits st);
    sum := !sum + Hashtbl.find data !off;
    off := !off + 0x5000;
    if !off >= limit then off := !off - limit
  done;
  let install m =
    List.iter
      (fun cause -> Machine.install_handler m cause ~entry:Layout.pf_handler)
      [ Cause.Page_fault_fetch; Cause.Page_fault_load; Cause.Page_fault_store ];
    let alloc = Metal_kernel.Frame_alloc.create ~base:0x280000 ~limit:0x400000 in
    let mem = Metal_hw.Bus.memory m.Machine.bus in
    let pt = Metal_kernel.Page_table.create ~mem ~alloc in
    let map vaddr paddr =
      ok_or_fail
        (Metal_kernel.Page_table.map pt ~vaddr ~paddr
           Metal_kernel.Page_table.rwx)
    in
    for i = 0 to 7 do
      map (i * 4096) (i * 4096)
    done;
    for i = 0 to pages - 1 do
      map (0x400000 + (i * 4096)) (0x80000 + (i * 4096))
    done;
    Hashtbl.iter (fun off v -> Machine.write_word m (0x80000 + off) v) data;
    let root = Metal_kernel.Page_table.root pt in
    Metal_progs.Pagetable.set_root m root;
    Machine.ctrl_write m Csr.pt_root root;
    if hw then Machine.ctrl_write m Csr.hw_walker 1;
    Machine.ctrl_write m Csr.paging 1
  in
  job ?config ~label
    ~mcode:(Metal_progs.Pagetable.mcode { Metal_progs.Pagetable.os_fault_entry = 0 })
    ~install
    ~check:(fun sys -> expect_reg sys "s5" !sum)
    guest

(* E8: NIC packets delivered as user-level interrupts; the handler
   drains the queue and counts packets in s1. *)
let uintr_job ~label ~packets ~period =
  let nic_base = System.nic_base in
  let guest =
    Printf.sprintf
      "start:\n    la a0, handler\n    menter %d\n    li t0, 1\n    li t1, %d\n    sw t0, 0x10(t1)\n    li s3, %d\nwork:\n    addi s0, s0, 1\n    bne s1, s3, work\n    ebreak\nhandler:\n    li t0, %d\ndrain:\n    lw t2, 0(t0)\n    beqz t2, hdone\n    sw zero, 0xc(t0)\n    addi s1, s1, 1\n    j drain\nhdone:\n    menter %d\n"
      Layout.uintr_setup nic_base packets nic_base Layout.uintr_ret
  in
  let install m =
    Machine.install_interrupt_handler m ~irq:Metal_progs.Uintr.irq
      ~entry:Layout.uintr_deliver;
    let enabled = Machine.ctrl_read m Csr.int_enable in
    Machine.ctrl_write m Csr.int_enable
      (enabled lor (1 lsl Metal_progs.Uintr.irq))
  in
  job ~label ~nic:(Nic.Periodic { start = 100; period; count = packets })
    ~mcode:(Metal_progs.Uintr.mcode ()) ~install
    ~check:(fun sys -> expect_reg sys "s1" packets)
    guest

(* metal_mix: walker sweeps (working set below and above the 32-entry
   TLB, mcode and hardware walkers), ping loops and uintr NIC runs.
   Three walkers fit the TLB and three do not, so every seed has the
   same number of TLB-thrashing jobs. *)
let metal_mix ~seed =
  let st = rng seed 2 in
  let fits = stratified st 3 8 28 in
  let thrashes = stratified st 3 40 160 in
  let walkers =
    List.mapi
      (fun i pages ->
         walker_job ~label:(Printf.sprintf "walker%d/%d" i pages) ~st ~pages
           ~accesses:2000 ~hw:(i mod 2 = 1) ())
      (fits @ thrashes)
  in
  let pings =
    List.mapi
      (fun i n -> ping_job ~label:(Printf.sprintf "ping%d/%d" i n) n)
      (stratified st 6 400 4000)
  in
  let nics =
    List.mapi
      (fun i period ->
         uintr_job ~label:(Printf.sprintf "uintr%d/%d" i period)
           ~packets:60 ~period)
      (stratified st 6 200 800)
  in
  List.concat (List.map2 (fun (a, b) c -> [ a; b; c ]) (List.combine walkers pings) nics)

(* observed_runs: short jobs with mcode and every exporter armed. *)
let observed_runs ~seed =
  let st = rng seed 3 in
  let n = 8 in
  let pings =
    List.mapi
      (fun i k -> ping_job ~observe:true ~label:(Printf.sprintf "oping%d/%d" i k) k)
      (stratified st n 100 400)
  in
  let nulls =
    List.mapi
      (fun i k -> null_job ~observe:true ~label:(Printf.sprintf "onull%d/%d" i k) k)
      (stratified st n 20 80)
  in
  let mixed =
    List.mapi
      (fun i body_len ->
         let iters = max 4 (2000 / body_len) in
         let src =
           loop_program ~body:(random_body st body_len) ~iters
             ~extra:"    menter 1\n" ()
         in
         job ~observe:true ~label:(Printf.sprintf "omix%d/%d" i body_len)
           ~mcode:ping_mcode ~check:(fun _ -> []) src)
      (stratified st n 16 128)
  in
  List.concat (List.map2 (fun (a, b) c -> [ a; b; c ]) (List.combine pings nulls) mixed)

(* fault_campaign: ECC-armed campaigns of the default size over fixed
   ping, null-syscall and walker programs (working set below and above
   the TLB); the seed draws the fault plans and the walker's data. *)
let fault_campaign ~seed =
  let st = rng seed 4 in
  let config = { Config.default with Config.ecc = true } in
  let mk workload =
    { workload; spec = { Inject.default_spec with Inject.seed = Random.State.bits st };
      cfuel = 0; expected = None; oracle_instructions = 0 }
  in
  List.concat
    (List.init 4 (fun i ->
         let ping = mk (ping_job ~config ~label:(Printf.sprintf "cping%d" i) 200) in
         let null = mk (null_job ~config ~label:(Printf.sprintf "cnull%d" i) 40) in
         let walker =
           mk (walker_job ~config ~label:(Printf.sprintf "cwalk%d" i) ~st
                 ~pages:(if i mod 2 = 0 then 16 else 48) ~accesses:200 ~hw:false ())
         in
         [ ping; null; walker ]))

(* ------------------------------------------------------------------ *)
(* The mrun job path                                                   *)

type front = {
  gimg : Image.t;
  mimg : Image.t option;
  bounds : (int * int) list;  (** per-entry static WCET bounds *)
}

let assemble r src =
  let img =
    Span.with_ r "asm" (fun () ->
        match Asm.assemble src with
        | Ok img -> img
        | Error e -> fail "assembly: %s" (Asm.error_to_string e))
  in
  count "asm.calls" 1;
  count "asm.words" (Image.size img / 4);
  img

let verify r config img =
  let rep = Span.with_ r "mverify" (fun () -> Mverify.verify ~config img) in
  count "mverify.calls" 1;
  count "mverify.entries" (List.length rep.Mverify.entries);
  if not (Mverify.ok rep) then
    fail "mverify: %s"
      (String.concat "; " (List.map Mverify.finding_to_string (Mverify.errors rep)));
  List.filter_map
    (fun (e : Mverify.entry_report) -> Option.map (fun w -> (e.entry, w)) e.wcet)
    rep.Mverify.entries

(* Assemble and verify, as mrun does before anything is loaded. *)
let front r j =
  let mimg = Option.map (assemble r) j.mcode in
  let bounds = match mimg with Some img -> verify r j.config img | None -> [] in
  { gimg = assemble r j.guest; mimg; bounds }

let start_pc img =
  match Image.find_symbol img "start" with
  | Some a -> a
  | None -> (match Image.bounds img with Some (lo, _) -> lo | None -> 0)

(* Everything after [System.create]: the body of an inject workload's
   prepare closure. *)
let install_into j f sys =
  let m = sys.System.machine in
  Option.iter (fun img -> ok_or_fail (Machine.load_mcode m img)) f.mimg;
  j.install m;
  ok_or_fail (Machine.load_image m f.gimg);
  System.start sys ~pc:(start_pc f.gimg) ()

let load_calls j = 4 + if j.mcode = None then 0 else 1

let load r ?(config = Fun.id) j f =
  Span.with_ r "load" (fun () ->
      let sys = System.create ~config:(config j.config) ?nic_schedule:j.nic () in
      install_into j f sys;
      sys)

type observers = {
  collector : Collector.t;
  profiler : Profile.t;
  telemetry : Telemetry.t;
  probe_calls : int ref;
}

let watch =
  Telemetry.Watchdog.[ rule Wcet; rule ~severity:Warn (Ipc_floor 0.75) ]

(* One fan-out probe closure feeds every exporter; it counts its own
   calls. *)
let arm r j f m =
  Span.with_ r "observe" (fun () ->
      let collector = Collector.create ()
      and profiler =
        Profile.create
          ~guest_words:(min 65536 (j.config.Config.mem_size / 4))
          ~mram_words:j.config.Config.mram_code_words ()
      and telemetry = Telemetry.create ~rules:watch ~wcet_bounds:f.bounds () in
      let probe_calls = ref 0 in
      let pc = Collector.probe collector
      and pp = Profile.probe profiler
      and pt = Telemetry.probe telemetry in
      Machine.set_probe m (fun cyc k a b ->
          incr probe_calls;
          pc cyc k a b;
          pp cyc k a b;
          pt cyc k a b);
      { collector; profiler; telemetry; probe_calls })

type exports = {
  metrics : Metrics.t;
  metrics_json : string;
  chrome : string;
  profile : Profile.Report.t;
  profile_json : string;
  series : Telemetry.Series.t;
  ndjson : string;
  alarms : Telemetry.Watchdog.alarm list;
}

let export r f sys o =
  let m = sys.System.machine in
  let stats = m.Machine.stats in
  let metrics, metrics_json, chrome =
    Span.with_ r "trace" (fun () ->
        let metrics = Collector.metrics o.collector in
        ( metrics,
          Metrics.to_json ~caches:(Machine.cache_counters m) metrics,
          Chrome.to_string (Collector.ring o.collector) ))
  in
  let profile, profile_json =
    Span.with_ r "profile" (fun () ->
        let symtab = Profile.Symtab.of_images ~guest:f.gimg ?mcode:f.mimg () in
        let rep = Profile.report ~symtab ~upto:stats.Stats.cycles o.profiler in
        (rep, Profile.Report.to_json rep))
  in
  let series, ndjson =
    Span.with_ r "telemetry" (fun () ->
        let s =
          Telemetry.Series.annotate (Telemetry.series o.telemetry)
            ~machine_cycles:stats.Stats.cycles
            ~accounted_cycles:
              (Stats.accounted_cycles stats ~pending_stall:m.Machine.stall_cycles)
        in
        (s, Telemetry.Series.to_ndjson s))
  in
  { metrics; metrics_json; chrome; profile; profile_json; series; ndjson;
    alarms = Telemetry.alarms o.telemetry }

type run = {
  front : front;
  sys : System.t;
  halt : Machine.halt option;
  observed : (observers * exports) option;
}

(* One mrun-shaped job: the part a user waits for, timed by the
   caller.  Checks and accounting come afterwards. *)
let run_job r j =
  let f = front r j in
  let sys = load r j f in
  let m = sys.System.machine in
  let obs = if j.observe then Some (arm r j f m) else None in
  let halt = Span.with_ r "cpu" (fun () -> Pipeline.run m ~max_cycles:j.fuel) in
  let observed = Option.map (fun o -> (o, export r f sys o)) obs in
  { front = f; sys; halt; observed }

let parse_all what s =
  match Json.parse s with
  | Ok _ -> []
  | Error e -> [ Printf.sprintf "%s does not parse: %s" what e ]

let export_digest e =
  Digest.to_hex
    (Digest.string (String.concat "\x00" [ e.metrics_json; e.chrome; e.profile_json; e.ndjson ]))

(* Checks on one job's outputs.  Exports are parsed the first time a
   job runs in a process; later runs must reproduce them byte for byte
   (compared by digest). *)
let check j run =
  let stats = System.stats run.sys in
  let exports =
    match run.observed with
    | None -> []
    | Some (_, e) ->
      let cycles = stats.Stats.cycles in
      let totals =
        (if e.profile.Profile.Report.total_cycles = cycles then []
         else [ Printf.sprintf "profile total %d <> cycles %d"
                  e.profile.Profile.Report.total_cycles cycles ])
        @ (if Telemetry.Series.total_cycles e.series = cycles then []
           else [ Printf.sprintf "telemetry total %d <> cycles %d"
                    (Telemetry.Series.total_cycles e.series) cycles ])
        @ List.map Telemetry.Watchdog.alarm_to_string
          (Telemetry.fault_alarms e.alarms)
      in
      let digest = export_digest e in
      let same =
        match j.export_digest with
        | Some d when d = digest -> []
        | Some _ -> [ "exports differ from the validated run" ]
        | None ->
          let parsed =
            parse_all "metrics" e.metrics_json
            @ parse_all "chrome trace" e.chrome
            @ parse_all "profile" e.profile_json
            @ List.concat_map
              (fun l -> if l = "" then [] else parse_all "telemetry line" l)
              (String.split_on_char '\n' e.ndjson)
          in
          if parsed = [] then j.export_digest <- Some digest;
          parsed
      in
      totals @ same
  in
  ebreak_halt run.halt @ j.check run.sys @ exports

let stat_fields (s : Stats.t) =
  [ ("cpu.cycles", s.cycles);
    ("cpu.instructions", s.instructions);
    ("cpu.metal_instructions", s.metal_instructions);
    ("hw.tlb_misses", s.tlb_misses);
    ("hw.hw_walks", s.hw_walks);
    ("hw.walker_stall_cycles", s.walker_stall_cycles);
    ("hw.mem_stall_cycles", s.mem_stall_cycles);
    ("hw.fetch_stall_cycles", s.fetch_stall_cycles) ]

(* Counts of one job, outside its timed region. *)
let account j run =
  let m = run.sys.System.machine in
  count "load.calls" (load_calls j);
  List.iter (fun (k, v) -> count k v) (stat_fields m.Machine.stats);
  List.iter (fun (k, v) -> count ("cache." ^ k) v) (Machine.cache_counters m);
  match run.observed with
  | None -> ()
  | Some (o, e) ->
    count "observe.probe_calls" !(o.probe_calls);
    count "trace.events" e.metrics.Metrics.events_recorded;
    count "trace.export_bytes" (String.length e.metrics_json + String.length e.chrome);
    count "profile.export_bytes" (String.length e.profile_json);
    count "telemetry.windows" (List.length e.series.Telemetry.Series.windows);
    count "telemetry.alarms" (List.length e.alarms);
    count "hw.ecc_corrections" e.metrics.Metrics.ecc_corrections

(* ------------------------------------------------------------------ *)
(* Stepper-tier ablation                                               *)

type tier_run = { tstats : Stats.t; tregs : Word.t array; secs : float }

let tier_run ?config j f =
  let sys = load Span.off ?config j f in
  let m = sys.System.machine in
  let t0 = Span.now () in
  ignore (Pipeline.run m ~max_cycles:j.fuel);
  let secs = Span.now () -. t0 in
  { tstats = Stats.copy m.Machine.stats; tregs = Array.copy m.Machine.regs; secs }

(* Rerun a job unarmed on the block, predecode and slow steppers.
   Stats and registers must agree across tiers and with the job's own
   run (armed or not: observers must not change what is simulated).
   Returns the host-time ratios blocks/predecode and predecode/slow as
   speed-ups, and any disagreement. *)
let ablate j run =
  let blocks = tier_run j run.front in
  let pre = tier_run ~config:(fun c -> { c with Config.blockcache = false }) j run.front in
  let slow =
    tier_run ~config:(fun c -> { c with Config.predecode = false; blockcache = false }) j run.front
  in
  let m = run.sys.System.machine in
  let own = { tstats = m.Machine.stats; tregs = m.Machine.regs; secs = 0.0 } in
  let differs name a b =
    if a.tstats = b.tstats && a.tregs = b.tregs then []
    else [ Printf.sprintf "%s: %s differs" j.label name ]
  in
  let errors =
    differs (if j.observe then "unarmed run (observer invariance)" else "rerun") own blocks
    @ differs "predecode tier" blocks pre
    @ differs "slow tier" blocks slow
  in
  (pre.secs /. blocks.secs, slow.secs /. pre.secs, errors)

(* ------------------------------------------------------------------ *)
(* Fault campaigns                                                     *)

(* One core fewer than the host has, and at least one.  With a domain
   on every core of a shared host, any other process deschedules one
   of them, and OCaml's stop-the-world minor collections make the
   other domains wait for it.  On 2 vCPUs, a busy loop on one core a
   third of the time raised the median campaign time by 90% with 2
   domains and by 8% with 1. *)
let domains () = max 1 (Fleet.effective_domains (Fleet.default_domains ()) - 1)

let inject_workload c f =
  Inject.workload ~config:c.workload.config ~fuel:c.cfuel ~label:c.workload.label
    (install_into c.workload f)

(* The fault-free run, in setup: fixes the campaign fuel at twice the
   oracle's cycles, so a run a fault hangs costs two oracle runs, and
   records the oracle's instruction count. *)
let calibrate c =
  let run = run_job Span.off c.workload in
  (match ebreak_halt run.halt @ c.workload.check run.sys with
   | [] -> ()
   | errs -> fail "%s: %s" c.workload.label (String.concat "; " errs));
  let s = System.stats run.sys in
  c.cfuel <- (2 * s.Stats.cycles) + 1000;
  c.oracle_instructions <- s.Stats.instructions;
  s.Stats.cycles

let campaign_cycles (cp : Inject.campaign) =
  Array.fold_left (fun acc (r : Inject.run_record) -> acc + r.run_cycles) cp.oracle_cycles cp.records

(* One campaign job: assemble, verify, then [run_campaign] on the
   fleet.  Returns the campaign and the simulated cycles. *)
let run_campaign r c =
  let f = front r c.workload in
  Span.with_ r "inject" (fun () ->
      match Inject.run_campaign ~domains:(domains ()) ~spec:c.spec (inject_workload c f) with
      | Ok cp -> cp
      | Error e -> failwith e)

let tally (records : Inject.run_record array) =
  count "inject.runs" (Array.length records);
  Array.iter
    (fun (r : Inject.run_record) ->
       count
         (match r.verdict with
          | Inject.Masked -> "inject.masked"
          | Inject.Corrected _ -> "inject.corrected"
          | Inject.Detected _ -> "inject.detected"
          | Inject.Silent _ -> "inject.silent")
         1)
    records

let same_records (a : Inject.run_record array) (b : Inject.run_record array) =
  Array.length a = Array.length b
  && Array.for_all2
    (fun (x : Inject.run_record) (y : Inject.run_record) ->
       x.injection = y.injection && x.applied = y.applied && x.verdict = y.verdict
       && x.run_cycles = y.run_cycles && x.ecc_corrected = y.ecc_corrected)
    a b

let check_campaign c (cp : Inject.campaign) =
  match c.expected with
  | None -> []
  | Some e ->
    (if cp.oracle_halt = e.oracle_halt && cp.oracle_cycles = e.oracle_cycles then []
     else [ c.workload.label ^ ": oracle differs from setup" ])
    @ (if same_records cp.records e.records then []
       else [ c.workload.label ^ ": verdicts differ from setup" ])

(* The traced replay of a campaign: the same runs [run_campaign]
   makes, built from the public steps (generate -> prepare ->
   run_plan -> Snapshot.take -> classify) so each gets its own span.
   Runs fan out over the fleet; each worker records into its own
   recorder under the fleet span. *)
let replay r c =
  let f = front r c.workload in
  let config = c.workload.config and spec = c.spec and fuel = c.cfuel in
  let build rr =
    Span.with_ rr "inject.prepare" (fun () ->
        Span.with_ rr "load" (fun () ->
            let sys = System.create ~config () in
            install_into c.workload f sys;
            sys))
  in
  let osys = build r in
  let om = osys.System.machine in
  let oracle_halt =
    match Span.with_ r "inject.run" (fun () -> Inject.run_plan om ~fuel ~plan:[]) with
    | Inject.Halted h, _ -> h
    | _ -> fail "%s: fault-free oracle did not halt" c.workload.label
  in
  let oracle =
    Span.with_ r "inject.snapshot" (fun () ->
        Inject.Snapshot.take om ~console:(System.console_output osys)
          ~halt:(Some oracle_halt))
  in
  let oracle_cycles = max 1 oracle.Inject.Snapshot.stats.Stats.cycles in
  let case parent index =
    let rr = Span.recorder ~parent ~on:r.Span.on ~job:r.Span.job () in
    Span.with_ rr "inject.case" (fun () ->
        let plan =
          Span.with_ rr "inject.generate" (fun () ->
              Inject.generate
                (Inject.Prng.create ~seed:spec.Inject.seed ~stream:index)
                ~config ~classes:spec.Inject.classes ~window:(1, oracle_cycles)
                ~user_only:spec.Inject.user_only)
        in
        let sys = build rr in
        let m = sys.System.machine in
        let col = Collector.create ~capacity:1024 () in
        Machine.set_probe m (Collector.probe col);
        let stop, applied =
          Span.with_ rr "inject.run" (fun () ->
              Inject.run_plan ~integrity:spec.Inject.integrity m ~fuel ~plan)
        in
        let halt = match stop with Inject.Halted h -> Some h | _ -> None in
        let snap =
          Span.with_ rr "inject.snapshot" (fun () ->
              Inject.Snapshot.take m ~console:(System.console_output sys) ~halt)
        in
        let ev = (Collector.metrics col).Metrics.event_counts in
        let n k = Option.value (List.assoc_opt k ev) ~default:0 in
        let verdict =
          Span.with_ rr "inject.classify" (fun () ->
              Inject.classify ~corrections:(n "ecc_correct") ~oracle ~stop ~snap ())
        in
        ( { Inject.index; injection = List.hd plan; applied; events = n "inject";
            ecc_corrected = n "ecc_correct"; verdict;
            run_cycles = snap.Inject.Snapshot.stats.Stats.cycles },
          snap.Inject.Snapshot.stats ))
  in
  let results =
    Span.with_ r "fleet" (fun () ->
        let parent = Span.current r in
        Fleet.map ~domains:(domains ()) (case parent) (Array.init spec.Inject.runs Fun.id))
  in
  let runs =
    Array.map (function Ok x -> x | Error e -> fail "%s: replay crashed: %s" c.workload.label e) results
  in
  count "load.calls" ((1 + Array.length runs) * load_calls c.workload);
  List.iter (fun (k, v) -> if String.sub k 0 3 = "hw." then count k v)
    (stat_fields oracle.Inject.Snapshot.stats);
  Array.iter
    (fun (rc, st) ->
       count "hw.ecc_corrections" rc.Inject.ecc_corrected;
       List.iter (fun (k, v) -> if String.sub k 0 3 = "hw." then count k v) (stat_fields st))
    runs;
  { Inject.label = c.workload.label; spec; ecc = config.Config.ecc;
    oracle_cycles; oracle_halt; records = Array.map fst runs }
