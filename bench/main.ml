(* Benchmark harness: regenerates every table and figure of the paper
   plus the quantitative claims its text makes.  See DESIGN.md for the
   experiment index (E1..E12) and EXPERIMENTS.md for paper-vs-measured.

   Run all sections:   dune exec bench/main.exe
   Run some sections:  dune exec bench/main.exe -- table2 stm *)

open Metal_cpu
open Metal_progs
open Util

(* ------------------------------------------------------------------ *)
(* E1: Table 1 — the Metal instructions                                *)

let table1 () =
  section "E1. Table 1: New Metal instructions";
  let rows =
    [ ("menter <entry>", Instr.Metal (Instr.Menter { entry = 5 }),
       "enter Metal mode, run mroutine <entry>; m31 <- return address");
      ("mexit", Instr.Metal Instr.Mexit,
       "exit Metal mode, resume at the address in m31");
      ("rmr rd, mN", Instr.Metal (Instr.Rmr { rd = Reg.t0; mr = 31 }),
       "read Metal register");
      ("wmr mN, rs", Instr.Metal (Instr.Wmr { mr = 0; rs1 = Reg.t0 }),
       "write Metal register");
      ("mld rd, off(rs)",
       Instr.Metal (Instr.Mld { rd = Reg.t0; rs1 = Reg.t1; offset = 8 }),
       "load from the MRAM data segment");
      ("mst rs2, off(rs)",
       Instr.Metal (Instr.Mst { rs2 = Reg.t0; rs1 = Reg.t1; offset = 8 }),
       "store to the MRAM data segment") ]
  in
  Printf.printf "%-18s %-10s %s\n" "instruction" "encoding" "description";
  List.iter
    (fun (name, instr, descr) ->
       Printf.printf "%-18s %08x   %s\n" name (Encode.encode_exn instr) descr)
    rows;
  print_endline
    "\nArchitectural features exposed to Metal mode only (Section 2.3):";
  let features =
    [ ("physld/physst", "direct physical memory access (paging bypass)");
      ("tlbw/tlbflush/tlbprobe", "TLB modification (ASIDs, page keys)");
      ("gprr/gprw", "indexed GPR file access (execution contexts)");
      ("iceptset/iceptclr", "instruction interception control");
      ("mcsrr/mcsrw", "machine control registers (incl. interrupt and \
                       exception delivery)") ]
  in
  List.iter (fun (n, d) -> Printf.printf "  %-24s %s\n" n d) features

(* ------------------------------------------------------------------ *)
(* E2: Table 2 — hardware resources                                    *)

let table2 () =
  section "E2. Table 2: Hardware resources for adding Metal";
  let t = Metal_synth.Report.table2 () in
  print_string (Metal_synth.Report.to_string t);
  Printf.printf
    "\npaper:             %10d %10d      16.1%%   (wires)\n\
     paper:             %10d %10d      14.3%%   (cells)\n"
    170264 197705 180546 206384;
  print_endline "\nWhere the Metal area goes:";
  print_string (Metal_synth.Report.breakdown ())

(* ------------------------------------------------------------------ *)
(* E3: Figure 1 — boot/menter/mexit workflow                           *)

let figure1 () =
  section "E3. Figure 1: Metal workflow (boot -> menter -> mroutine -> mexit)";
  let config = { Config.default with Config.trace = true } in
  let m = machine ~config () in
  load_mcode m
    ".mentry 7, scale\n# custom instruction: a0 <- a0 * 10\nscale:\n\
     slli t0, a0, 3\nslli t1, a0, 1\nadd a0, t0, t1\nmexit\n";
  ignore (load m "li a0, 4\nmenter 7\nmv s0, a0\nebreak\n");
  Machine.set_pc m 0;
  run_to_ebreak m;
  Printf.printf
    "boot: mroutine 'scale' loaded at MRAM entry 7\n\
     run : a0 = 4; menter 7 -> a0 = %d; %d cycles total\n\n"
    (reg m Reg.s0) (cycles m);
  print_endline "retirement trace (M = executed from MRAM in Metal mode):";
  List.iter (fun l -> print_endline ("  " ^ l)) (Machine.trace_log m ~max:16)

(* ------------------------------------------------------------------ *)
(* E4: Figure 2 — kenter/kexit and system-call cost                    *)

let null_kernel =
  {|.org 0x2000
syscall_table:
    .word sys_null
.org 0x3000
sys_null:
    menter 1
.org 0x3F00
fault_stub:
    ebreak
|}

let priv_cfg =
  { Privilege.syscall_table = 0x2000; nsyscalls = 1; kernel_pkeys = 0;
    user_pkeys = 0; fault_entry = 0x3F00 }

let syscall_cost config =
  let n = 100 in
  let setup m =
    ignore (load m null_kernel);
    match Privilege.install m priv_cfg with
    | Ok () -> ()
    | Error e -> fail "%s" e
  in
  per_op_cost ~config ~setup ~n
    ~with_op:(repeat_lines n "li a0, 0\nmenter 0\n" ^ "ebreak\n")
    ~without_op:(repeat_lines n "li a0, 0\nnop\n" ^ "ebreak\n")
    ()

let figure2 () =
  section "E4. Figure 2: system-call entry/exit mroutines";
  print_endline "assembled kenter/kexit (address / word / source):";
  print_string (Privilege.figure2_listing ());
  subsection "null system call round trip (user -> kernel -> user)";
  let cases =
    [ ("Metal (fast decode-stage replacement)", Config.default);
      ("Metal with trap-style transitions",
       { Config.default with Config.transition = Config.Trap_flush });
      ("PALcode-style (main-memory mroutines)", Config.palcode) ]
  in
  let costs = fleet_map (fun (_, config) -> syscall_cost config) cases in
  List.iteri
    (fun i (label, _) -> Printf.printf "%-44s %6.1f cycles\n" label costs.(i))
    cases

(* ------------------------------------------------------------------ *)
(* E5: mode-transition cost (Section 2.2 / Section 5)                  *)

let noop_mroutine = ".mentry 0, f\nf: mexit\n"

let transition_cost config =
  let n = 200 in
  per_op_cost ~config ~mcode:noop_mroutine ~n
    ~with_op:(repeat_lines n "menter 0\n" ^ "ebreak\n")
    ~without_op:(repeat_lines n "nop\n" ^ "ebreak\n")
    ()

let transition () =
  section "E5. menter/mexit transition cost (no-op mroutine)";
  let cases =
    [ ("Metal: fast replacement + dedicated MRAM", Config.default);
      ("fast replacement, mroutines in main memory",
       { Config.default with
         Config.mram_backing = Config.Main_memory { fetch_penalty = 3 } });
      ("trap-style transitions + dedicated MRAM",
       { Config.default with Config.transition = Config.Trap_flush });
      ("PALcode: trap-style + main-memory mroutines", Config.palcode) ]
  in
  Printf.printf "%-46s %s\n" "configuration" "cycles/no-op call";
  let costs = fleet_map (fun (_, config) -> transition_cost config) cases in
  List.iteri
    (fun i (label, _) -> Printf.printf "%-46s %8.1f\n" label costs.(i))
    cases;
  print_endline
    "\npaper: Metal achieves \"virtually zero overhead\" (Section 2.2);\n\
     a no-op PALcode call takes ~18 cycles on the Alpha (Section 5).";
  Printf.printf "measured PALcode/Metal ratio: %.1fx\n"
    (transition_cost Config.palcode /. transition_cost Config.default)

(* ------------------------------------------------------------------ *)
(* E6: custom page tables (Section 3.2)                                *)

let pt_workload ~pages ~accesses =
  Printf.sprintf
    {|start:
    li s0, 0x400000
    li s1, %d
    li s2, 0
    li s3, 0x5000
    li s4, %d
    li s5, 0
loop:
    add t0, s0, s2
    lw t1, 0(t0)
    add s5, s5, t1
    add s2, s2, s3
    bltu s2, s4, nowrap
    sub s2, s2, s4
nowrap:
    addi s1, s1, -1
    bnez s1, loop
    ebreak
|}
    accesses (pages * 4096)

type pt_mode = Pt_metal | Pt_hw | Pt_palcode

let pt_run ?(predecode = Config.default.Config.predecode)
    ?(blockcache = Config.default.Config.blockcache) ~pages ~accesses
    mode =
  let config =
    match mode with
    | Pt_palcode -> Config.palcode
    | Pt_metal | Pt_hw -> Config.default
  in
  let config = { config with Config.predecode; blockcache } in
  let m = machine ~config () in
  (match Pagetable.install m { Pagetable.os_fault_entry = 0 } with
   | Ok () -> ()
   | Error e -> fail "%s" e);
  let alloc =
    Metal_kernel.Frame_alloc.create ~base:0x280000 ~limit:0x400000
  in
  let mem = Metal_hw.Bus.memory m.Machine.bus in
  let pt = Metal_kernel.Page_table.create ~mem ~alloc in
  let map ~vaddr ~paddr =
    match
      Metal_kernel.Page_table.map pt ~vaddr ~paddr Metal_kernel.Page_table.rwx
    with
    | Ok () -> ()
    | Error e -> fail "%s" e
  in
  for i = 0 to 7 do
    map ~vaddr:(i * 4096) ~paddr:(i * 4096)
  done;
  for i = 0 to pages - 1 do
    map ~vaddr:(0x400000 + (i * 4096)) ~paddr:(0x80000 + (i * 4096))
  done;
  Pagetable.set_root m (Metal_kernel.Page_table.root pt);
  Machine.ctrl_write m Csr.pt_root (Metal_kernel.Page_table.root pt);
  (match mode with
   | Pt_hw -> Machine.ctrl_write m Csr.hw_walker 1
   | Pt_metal | Pt_palcode -> ());
  Machine.ctrl_write m Csr.paging 1;
  ignore (load m (pt_workload ~pages ~accesses));
  Machine.set_pc m 0;
  run_to_ebreak m;
  m

let pagetable () =
  section "E6. Custom page tables: TLB-miss handling (32-entry TLB)";
  let accesses = 3000 in
  Printf.printf "%11s | %19s | %19s | %19s\n" "working set"
    "Metal walker" "hardware walker" "OS-trap (PALcode)";
  Printf.printf "%11s | %9s %9s | %9s %9s | %9s %9s\n" "(pages)" "cycles"
    "misses" "cycles" "misses" "cycles" "misses";
  let pages_list = [ 16; 24; 32; 48; 64; 96 ] in
  let modes = [ Pt_metal; Pt_hw; Pt_palcode ] in
  (* The whole sweep (pages x walker mode) runs on the fleet; rows are
     printed from the keyed results afterwards. *)
  let sweep =
    fleet_assoc
      (fun (pages, mode) ->
         let m = pt_run ~pages ~accesses mode in
         (cycles m, m.Machine.stats.Stats.tlb_misses))
      (List.concat_map
         (fun pages -> List.map (fun mode -> (pages, mode)) modes)
         pages_list)
  in
  List.iter
    (fun pages ->
       let mc, mm = sweep (pages, Pt_metal) in
       let hc, hm = sweep (pages, Pt_hw) in
       let pc, pm = sweep (pages, Pt_palcode) in
       Printf.printf "%11d | %9d %9d | %9d %9d | %9d %9d\n" pages mc mm hc hm
         pc pm)
    pages_list;
  subsection "single TLB-refill cost";
  (* Touch 40 cold pages once each vs. the same loop over one hot
     page: the difference per extra miss is the refill cost. *)
  let refills =
    fleet_assoc
      (fun (pages, mode) ->
         let m = pt_run ~pages ~accesses:40 mode in
         (cycles m, m.Machine.stats.Stats.tlb_misses))
      (List.concat_map (fun mode -> [ (40, mode); (1, mode) ]) modes)
  in
  let refill mode =
    let cold_cycles, cold_misses = refills (40, mode) in
    let hot_cycles, hot_misses = refills (1, mode) in
    float_of_int (cold_cycles - hot_cycles)
    /. float_of_int (max 1 (cold_misses - hot_misses))
  in
  Printf.printf "%-34s %6.1f cycles/refill\n" "Metal mroutine walker"
    (refill Pt_metal);
  Printf.printf "%-34s %6.1f cycles/refill\n" "hardware walker" (refill Pt_hw);
  Printf.printf "%-34s %6.1f cycles/refill\n" "OS-trap walker (PALcode)"
    (refill Pt_palcode);
  print_endline
    "\npaper: MRAM proximity \"greatly closes the performance gap between\n\
     hardware and software managed TLBs\" (Section 3.2)."

(* ------------------------------------------------------------------ *)
(* E7: transactional memory (Section 3.3)                              *)

(* A library STM: comparable bookkeeping to the interception handlers,
   but invoked by calls compiled into the program. *)
let stmlib_mcode =
  {|.org 0x1C00
.equ LIB_ACTIVE, 0x780
.equ LIB_RCOUNT, 0x784
.equ LIB_RSET, 0x790

.mentry 60, stmlib_read
.mentry 61, stmlib_write
.mentry 62, stmlib_begin
.mentry 63, stmlib_end

stmlib_begin:
    li t0, 1
    mst t0, LIB_ACTIVE(zero)
    mst zero, LIB_RCOUNT(zero)
    mexit

stmlib_end:
    mst zero, LIB_ACTIVE(zero)
    mexit

# a0 = address -> a0 = value.  The instrumentation is compiled in, so
# the active check runs even outside transactions.
stmlib_read:
    mld t0, LIB_ACTIVE(zero)
    beqz t0, lib_read_raw
    mld t1, LIB_RCOUNT(zero)
    andi t2, t1, 7
    slli t2, t2, 3
    addi t2, t2, LIB_RSET
    physld t3, 0(a0)
    mst a0, 0(t2)
    mst t3, 4(t2)
    addi t1, t1, 1
    mst t1, LIB_RCOUNT(zero)
    mv a0, t3
    mexit
lib_read_raw:
    physld a0, 0(a0)
    mexit

# a0 = address, a1 = value.
stmlib_write:
    mld t0, LIB_ACTIVE(zero)
    beqz t0, lib_write_raw
    mld t1, LIB_RCOUNT(zero)
    addi t1, t1, 1
    mst t1, LIB_RCOUNT(zero)
lib_write_raw:
    physst a1, 0(a0)
    mexit
|}

let array_base = 0x8000
let array_len = 64

let plain_pass_body =
  Printf.sprintf
    {|    li t3, %d
    li t4, %d
pass_loopN:
    lw t5, 0(t3)
    add s5, s5, t5
    addi t3, t3, 4
    addi t4, t4, -1
    bnez t4, pass_loopN
|}
    array_base array_len

let lib_pass_body =
  Printf.sprintf
    {|    li s8, %d
    li s9, %d
lib_loopN:
    mv a0, s8
    menter 60
    add s5, s5, a0
    addi s8, s8, 4
    addi s9, s9, -1
    bnez s9, lib_loopN
|}
    array_base array_len

let numbered body i =
  replace_all ~needle:"N" ~by:(string_of_int i) body

let stm () =
  section "E7. Transactional memory by interception";
  (* Phase experiment: one transactional pass + N plain passes.
     Interception STM leaves the plain passes untouched; a library STM
     pays its compiled-in instrumentation everywhere. *)
  let plain_passes = 10 in
  let metal_prog =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "start:\n    la a0, retry\nretry:\n";
    Buffer.add_string buf (Printf.sprintf "    menter %d\n" Layout.tstart);
    Buffer.add_string buf (numbered plain_pass_body 0);
    Buffer.add_string buf (Printf.sprintf "    menter %d\n" Layout.tcommit);
    for i = 1 to plain_passes do
      Buffer.add_string buf (numbered plain_pass_body i)
    done;
    Buffer.add_string buf "    ebreak\n";
    Buffer.contents buf
  in
  let lib_prog =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "start:\n    menter 62\n";
    Buffer.add_string buf (numbered lib_pass_body 0);
    Buffer.add_string buf "    menter 63\n";
    for i = 1 to plain_passes do
      Buffer.add_string buf (numbered lib_pass_body i)
    done;
    Buffer.add_string buf "    ebreak\n";
    Buffer.contents buf
  in
  let raw_prog =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "start:\n";
    for i = 0 to plain_passes do
      Buffer.add_string buf (numbered plain_pass_body i)
    done;
    Buffer.add_string buf "    ebreak\n";
    Buffer.contents buf
  in
  let setup m =
    for i = 0 to array_len - 1 do
      Machine.write_word m (array_base + (4 * i)) (i + 1)
    done
  in
  let metal_m = exec ~mcode:(Stm.mcode ()) ~setup metal_prog in
  let lib_m = exec ~mcode:stmlib_mcode ~setup lib_prog in
  let raw_m = exec ~setup raw_prog in
  let per_access total =
    float_of_int total /. float_of_int (array_len * (plain_passes + 1))
  in
  Printf.printf
    "workload: 1 transactional pass + %d plain passes over %d words\n\n"
    plain_passes array_len;
  Printf.printf "%-42s %9s %13s\n" "" "cycles" "cycles/access";
  Printf.printf "%-42s %9d %13.1f\n" "no STM (upper bound)" (cycles raw_m)
    (per_access (cycles raw_m));
  Printf.printf "%-42s %9d %13.1f\n" "Metal STM (runtime interception)"
    (cycles metal_m)
    (per_access (cycles metal_m));
  Printf.printf "%-42s %9d %13.1f\n" "library STM (compiled-in calls)"
    (cycles lib_m)
    (per_access (cycles lib_m));
  (* The structural claim, isolated: the marginal cost of one *plain*
     (non-transactional) pass under each regime, measured as the slope
     between 10 and 4 plain passes. *)
  let plain_pass_cost build mcode =
    let prog n =
      let buf = Buffer.create 1024 in
      build buf n;
      Buffer.contents buf
    in
    let hi = exec ?mcode ~setup (prog 10) in
    let lo = exec ?mcode ~setup (prog 4) in
    float_of_int (cycles hi - cycles lo) /. float_of_int (6 * array_len)
  in
  let metal_build buf n =
    Buffer.add_string buf "start:\n    la a0, retry\nretry:\n";
    Buffer.add_string buf (Printf.sprintf "    menter %d\n" Layout.tstart);
    Buffer.add_string buf (numbered plain_pass_body 0);
    Buffer.add_string buf (Printf.sprintf "    menter %d\n" Layout.tcommit);
    for i = 1 to n do
      Buffer.add_string buf (numbered plain_pass_body i)
    done;
    Buffer.add_string buf "    ebreak\n"
  in
  let lib_build buf n =
    Buffer.add_string buf "start:\n    menter 62\n";
    Buffer.add_string buf (numbered lib_pass_body 0);
    Buffer.add_string buf "    menter 63\n";
    for i = 1 to n do
      Buffer.add_string buf (numbered lib_pass_body i)
    done;
    Buffer.add_string buf "    ebreak\n"
  in
  Printf.printf
    "\nmarginal cost of a NON-transactional access (the paper's point):\n";
  Printf.printf "  Metal STM   %5.1f cycles/access (interception is off)\n"
    (plain_pass_cost metal_build (Some (Stm.mcode ())));
  Printf.printf "  library STM %5.1f cycles/access (calls are compiled in)\n"
    (plain_pass_cost lib_build (Some stmlib_mcode));
  let c = Stm.counters metal_m in
  Printf.printf "\nMetal STM counters: %d commits, %d aborts, %d tx reads\n"
    c.Stm.commits c.Stm.aborts c.Stm.reads;
  subsection "conflict injection (DMA agent standing in for a second core)";
  Printf.printf "%-26s %9s %9s\n" "conflict period (cycles)" "commits" "aborts";
  List.iter
    (fun period ->
       let m = machine () in
       (match Stm.install m with Ok () -> () | Error e -> fail "%s" e);
       setup m;
       if period > 0 then begin
         let mem = Metal_hw.Bus.memory m.Machine.bus in
         let writes =
           List.init 30 (fun i -> ((i + 1) * period, array_base, 1000 + i))
         in
         let dma = Metal_hw.Devices.Dma.create ~mem ~writes in
         Metal_hw.Bus.attach m.Machine.bus (Metal_hw.Devices.Dma.device dma)
       end;
       ignore
         (load m
            (Printf.sprintf
               {|start:
    li s0, 20
txn:
    la a0, txn_retry
txn_retry:
    menter %d
    li t3, %d
    lw t4, 0(t3)
    addi t4, t4, 1
    sw t4, 4(t3)
    menter %d
    beqz a0, txn_retry
    addi s0, s0, -1
    bnez s0, txn
    ebreak
|}
               Layout.tstart array_base Layout.tcommit));
       Machine.set_pc m 0;
       run_to_ebreak m;
       let c = Stm.counters m in
       Printf.printf "%-26s %9d %9d\n"
         (if period = 0 then "none" else string_of_int period)
         c.Stm.commits c.Stm.aborts)
    [ 0; 2000; 800; 300 ];
  print_endline
    "\npaper: \"neither compilers nor developers need to replace loads and\n\
     stores with calls into an STM library\" — the plain phases run at raw\n\
     speed under interception STM and still pay the library tax under\n\
     compiled-in instrumentation (Section 3.3)."

(* ------------------------------------------------------------------ *)
(* E8: user-level interrupts (Section 3.4)                             *)

let nic_base = Metal_hw.Bus.mmio_base + 0x100
let uintr_packets = 25

let polling_prog ~packets =
  Printf.sprintf
    {|start:
    li s2, %d
    li s3, %d
work:
    addi s0, s0, 1
    lw t0, 0(s2)
    beqz t0, work
    sw zero, 0xc(s2)
    addi s1, s1, 1
    bne s1, s3, work
    ebreak
|}
    nic_base packets

let uintr_prog ?(packets = uintr_packets) ~kernel_mediated () =
  let handler_target = if kernel_mediated then "kstub" else "handler" in
  Printf.sprintf
    {|start:
    la a0, %s
    menter %d
    li t0, 1
    li t1, %d
    sw t0, 0x10(t1)
    li s3, %d
work:
    addi s0, s0, 1
    bne s1, s3, work
    ebreak

# kernel mediation: dispatch bookkeeping before and after the user
# handler (privilege checks, signal-frame setup, ...).
kstub:
    li t0, 0x7000
    sw s0, 0(t0)
    lw t1, 0(t0)
    sw s1, 4(t0)
    lw t1, 4(t0)
    nop
    nop
    nop
    nop
    nop
    nop
    jal t1, handler_body
    nop
    nop
    nop
    nop
    menter %d

handler:
    jal t1, handler_body
    menter %d

handler_body:
    li t0, %d
drain:
    lw t2, 0(t0)
    beqz t2, hdone
    sw zero, 0xc(t0)
    addi s1, s1, 1
    j drain
hdone:
    jr t1
|}
    handler_target Layout.uintr_setup nic_base packets Layout.uintr_ret
    Layout.uintr_ret nic_base

let uintr_run ?(predecode = Config.default.Config.predecode)
    ?(blockcache = Config.default.Config.blockcache)
    ?(packets = uintr_packets) ~period mode =
  let schedule =
    Metal_hw.Devices.Nic.Periodic { start = 100; period; count = packets }
  in
  let config = { Config.default with Config.predecode; blockcache } in
  let sys = Metal_core.System.create ~config ~nic_schedule:schedule () in
  let m = sys.Metal_core.System.machine in
  let prog =
    match mode with
    | `Polling -> polling_prog ~packets
    | `Uintr ->
      (match Uintr.install m with Ok () -> () | Error e -> fail "%s" e);
      uintr_prog ~packets ~kernel_mediated:false ()
    | `Kernel ->
      (match Uintr.install m with Ok () -> () | Error e -> fail "%s" e);
      uintr_prog ~packets ~kernel_mediated:true ()
  in
  (match Metal_core.System.run_program sys ~max_cycles:10_000_000 prog with
   | Ok _ -> ()
   | Error e -> fail "%s" e);
  let nic = Option.get sys.Metal_core.System.nic in
  let lats = Metal_hw.Devices.Nic.latencies nic in
  let mean =
    if lats = [] then 0.0
    else
      float_of_int (List.fold_left ( + ) 0 lats)
      /. float_of_int (List.length lats)
  in
  (m, mean)

let uintr () =
  section "E8. User-level interrupts: packet handling (DPDK scenario)";
  Printf.printf "%d packets per run; work = loop iterations completed\n\n"
    uintr_packets;
  Printf.printf "%8s | %21s | %21s | %21s\n" "packet" "polling"
    "user-level intr" "kernel-mediated";
  Printf.printf "%8s | %10s %10s | %10s %10s | %10s %10s\n" "period" "work"
    "latency" "work" "latency" "work" "latency";
  let periods = [ 250; 500; 1000; 2000 ] in
  let sweep =
    fleet_assoc
      (fun (period, mode) ->
         let m, lat = uintr_run ~period mode in
         (reg m Reg.s0, lat))
      (List.concat_map
         (fun period ->
            List.map (fun mode -> (period, mode)) [ `Polling; `Uintr; `Kernel ])
         periods)
  in
  List.iter
    (fun period ->
       let pw, pl = sweep (period, `Polling) in
       let uw, ul = sweep (period, `Uintr) in
       let kw, kl = sweep (period, `Kernel) in
       Printf.printf "%8d | %10d %10.1f | %10d %10.1f | %10d %10.1f\n" period
         pw pl uw ul kw kl)
    periods;
  print_endline
    "\npaper: with user-level interrupts, applications \"only need to be\n\
     notified via interrupts when data is available\" (Section 3.4);\n\
     delivery without the kernel detour also beats mediated delivery."

(* ------------------------------------------------------------------ *)
(* E9: in-process isolation call cost (Section 3.1)                    *)

let isolation () =
  section "E9. In-process isolation: protected-call cost";
  let n = 100 in
  let plain =
    per_op_cost ~n
      ~with_op:("start:\n" ^ repeat_lines n "call f\n" ^ "ebreak\nf: ret\n")
      ~without_op:("start:\n" ^ repeat_lines n "nop\n" ^ "ebreak\nf: ret\n")
      ()
  in
  let gate =
    let setup m =
      match
        Isolation.install m
          { Isolation.gate_target = 0x800; open_perms = 0; closed_perms = 0 }
      with
      | Ok () -> ()
      | Error e -> fail "%s" e
    in
    per_op_cost ~setup ~n
      ~with_op:
        (Printf.sprintf "start:\n%sebreak\n.org 0x800\ntrusted:\nmenter %d\n"
           (repeat_lines n (Printf.sprintf "menter %d\n" Layout.dom_enter))
           Layout.dom_exit)
      ~without_op:
        (Printf.sprintf "start:\n%sebreak\n.org 0x800\ntrusted:\nmenter %d\n"
           (repeat_lines n "nop\n") Layout.dom_exit)
      ()
  in
  let syscall = syscall_cost Config.default in
  Printf.printf "%-44s %6.1f cycles\n" "plain function call + return" plain;
  Printf.printf "%-44s %6.1f cycles\n" "Metal domain gate (dom_enter/dom_exit)"
    gate;
  Printf.printf "%-44s %6.1f cycles\n" "process-based isolation (null syscall)"
    syscall;
  print_endline
    "\npaper: Metal \"enables developers to safely encapsulate the\n\
     transition code without CFI\" (Section 3.1) — the gate costs a few\n\
     cycles more than a call, far less than a kernel round trip."

(* ------------------------------------------------------------------ *)
(* E10: design ablation (Section 2.2)                                  *)

let ablation () =
  section "E10. Ablation: what the MRAM and fast transitions buy";
  let configs =
    [ ("fast + dedicated MRAM (Metal)", Config.default);
      ("fast + main-memory penalty 1",
       { Config.default with
         Config.mram_backing = Config.Main_memory { fetch_penalty = 1 } });
      ("fast + main-memory penalty 3",
       { Config.default with
         Config.mram_backing = Config.Main_memory { fetch_penalty = 3 } });
      ("trap + dedicated MRAM",
       { Config.default with Config.transition = Config.Trap_flush });
      ("trap + main-memory penalty 3 (PALcode)", Config.palcode) ]
  in
  Printf.printf "%-42s %14s %14s\n" "configuration" "no-op call" "null syscall";
  let costs =
    fleet_map
      (fun (_, config) -> (transition_cost config, syscall_cost config))
      configs
  in
  List.iteri
    (fun i (label, _) ->
       let t, s = costs.(i) in
       Printf.printf "%-42s %14.1f %14.1f\n" label t s)
    configs;
  print_endline
    "\nBoth design points of Section 2.2 matter: decode-stage replacement\n\
     removes the flush cost, MRAM collocation removes the fetch cost, and\n\
     only together do they reach microcode-level overhead."

(* ------------------------------------------------------------------ *)
(* E11: nested Metal (Section 3.5)                                     *)

let nested () =
  section "E11. Nested Metal: layered store interception";
  let n = 100 in
  let store_block = "li t3, 0x8000\nli t4, 7\n" ^ repeat_lines n "sw t4, 0(t3)\n" in
  let nop_block = "li t3, 0x8000\nli t4, 7\n" ^ repeat_lines n "nop\n" in
  let raw =
    per_op_cost ~n ~with_op:(store_block ^ "ebreak\n")
      ~without_op:(nop_block ^ "ebreak\n") ()
  in
  let one_layer_mcode =
    {|.org 0x1C00
.mentry 60, direct_store
direct_store:
    wmr m16, t0
    wmr m17, t1
    rmr t0, m28
    rmr t1, m27
    physst t1, 0(t0)
    rmr t0, m31
    addi t0, t0, 4
    wmr m31, t0
    rmr t0, m16
    rmr t1, m17
    mexit
|}
  in
  let arm entry m =
    Machine.ctrl_write m (Csr.icept_handler (Icept.code Icept.Store_class))
      (entry + 1);
    Machine.ctrl_write m Csr.icept_enable 1
  in
  let one =
    per_op_cost ~mcode:one_layer_mcode ~setup:(arm 60) ~n
      ~with_op:(store_block ^ "ebreak\n") ~without_op:(nop_block ^ "ebreak\n")
      ()
  in
  let two =
    let setup m =
      (match Nested.install m ~remap_offset:0 with
       | Ok () -> ()
       | Error e -> fail "%s" e);
      arm Layout.nest_store m
    in
    per_op_cost ~setup ~n ~with_op:(store_block ^ "ebreak\n")
      ~without_op:(nop_block ^ "ebreak\n") ()
  in
  Printf.printf "%-42s %6.1f cycles/store\n" "no interception" raw;
  Printf.printf "%-42s %6.1f cycles/store\n" "one layer (direct handler)" one;
  Printf.printf "%-42s %6.1f cycles/store\n"
    "two layers (app intercepts, VMM applies)" two;
  print_endline
    "\npaper: \"the intercept propagates downward through layers that\n\
     intercept the same instruction\" (Section 3.5) — each layer adds a\n\
     bounded, composable cost."

(* ------------------------------------------------------------------ *)
(* E12: control-flow protection (Section 3.5)                          *)

let cfi () =
  section "E12. Shadow-stack control-flow protection";
  let calls = 60 in
  let body enable =
    Printf.sprintf
      {|start:
    li sp, 0x8000
%s
    li s1, %d
loop:
    li a0, 5
    call work
    addi s1, s1, -1
    bnez s1, loop
%s
    ebreak

work:
    addi sp, sp, -4
    sw ra, 0(sp)
    call leaf
    call leaf
    lw ra, 0(sp)
    addi sp, sp, 4
    ret

leaf:
    addi a0, a0, 1
    ret
|}
      (if enable then Printf.sprintf "    menter %d" Layout.ss_enable else "")
      calls
      (if enable then Printf.sprintf "    menter %d" Layout.ss_disable else "")
  in
  let with_ss =
    let m = machine () in
    (match Shadowstack.install m with Ok () -> () | Error e -> fail "%s" e);
    ignore (load m (body true));
    Machine.set_pc m 0;
    run_to_ebreak m;
    m
  in
  let without = exec (body false) in
  let pairs = calls * 3 in
  Printf.printf "workload: %d call/return pairs\n\n" pairs;
  Printf.printf "%-28s %9d cycles\n" "unprotected" (cycles without);
  Printf.printf "%-28s %9d cycles\n" "with shadow stack" (cycles with_ss);
  Printf.printf "overhead: %.1f cycles per call/return pair\n"
    (float_of_int (cycles with_ss - cycles without) /. float_of_int pairs);
  let c = Shadowstack.counters with_ss in
  Printf.printf
    "violations: %d (the corruption test in the suite halts the machine)\n"
    c.Shadowstack.violations

(* ------------------------------------------------------------------ *)
(* E13: page keys accelerate batch permission changes (Section 2.3)    *)

let pkeys () =
  section "E13. Page keys: batch permission changes";
  (* Revoke write access to N pages: with page keys, one mcsrw; the
     classical way rewrites N PTEs and flushes the TLB. *)
  let mcode =
    {|.mentry 0, by_pkey
# revoke writes under key 1 with a single register write
by_pkey:
    li t0, 0x8
    mcsrw pkey_perms, t0
    mexit

.mentry 1, by_ptes
# a0 = page-table L2 base, a1 = number of PTEs: clear each W bit
by_ptes:
    mv t0, a0
    li t1, 0
pte_loop:
    physld t2, 0(t0)
    li t3, 0xFFFFFFFB
    and t2, t2, t3
    physst t2, 0(t0)
    addi t0, t0, 4
    addi t1, t1, 1
    bne t1, a1, pte_loop
    li t4, -1
    tlbflush t4
    mexit
|}
  in
  Printf.printf "%8s %18s %18s\n" "pages" "page keys (cy)" "PTE rewrite (cy)";
  List.iter
    (fun pages ->
       let run entry extra_setup prog =
         let m = machine () in
         load_mcode m mcode;
         extra_setup m;
         ignore (load m prog);
         Machine.set_pc m 0;
         run_to_ebreak m;
         ignore entry;
         cycles m
       in
       (* Build an L2 table's worth of PTEs to rewrite. *)
       let setup m =
         for i = 0 to pages - 1 do
           Machine.write_word m (0x40000 + (4 * i))
             (((0x80 + i) lsl 12) lor 0x7)
         done
       in
       let pkey_cy =
         run 0 setup "menter 0\nebreak\n"
         - run 0 setup "nop\nebreak\n"
       in
       let pte_cy =
         run 1 setup
           (Printf.sprintf "li a0, 0x40000\nli a1, %d\nmenter 1\nebreak\n"
              pages)
         - run 1 setup "li a0, 0x40000\nnop\nnop\nebreak\n"
       in
       Printf.printf "%8d %18d %18d\n" pages pkey_cy pte_cy)
    [ 8; 32; 128; 512 ];
  print_endline
    "\npaper: page keys \"provide an extra level of indirection for page\n\
     permissions to accelerate batch permission changes\" (Section 2.3) —\n\
     constant-time revocation vs. cost linear in the mapping count."

(* ------------------------------------------------------------------ *)
(* E14: MRAM and cache side channels (Section 4)                       *)

let sidechannel () =
  section "E14. Side channels: MRAM bypasses the instruction cache";
  (* A classic prime+probe attack on the I-cache: the attacker warms
     the cache with its probe code, the victim mroutine executes a
     secret-dependent path, and the attacker measures how much slower
     its probe re-runs.  With MRAM collocated and uncached (the Metal
     design), the victim leaves no footprint; with main-memory-resident
     routines (the PALcode model), the execution path is visible. *)
  let icache =
    Some { Metal_hw.Cache.lines = 16; line_bytes = 16; miss_penalty = 10 }
  in
  let probe_src =
    "probe:\n"
    ^ String.concat "" (List.init 60 (fun _ -> "addi t1, t1, 1\n"))
    ^ "ebreak\n"
  in
  let victim_mcode =
    ".mentry 0, victim\nvictim:\nbeqz a0, vshort\n"
    ^ String.concat "" (List.init 30 (fun _ -> "addi t2, t2, 1\n"))
    ^ "vshort:\nmexit\n"
  in
  let leakage ~backing ~secret =
    let config =
      { Config.default with Config.icache; Config.mram_backing = backing }
    in
    let m = machine ~config () in
    load_mcode m victim_mcode;
    ignore (load m ~origin:0x100 probe_src);
    ignore (load m ~origin:0x400 "trigger:\nmenter 0\nebreak\n");
    let phase pc =
      let before = cycles m in
      Machine.set_pc m pc;
      m.Machine.halted <- None;
      run_to_ebreak m;
      cycles m - before
    in
    ignore (phase 0x100);            (* prime *)
    let warm = phase 0x100 in        (* warm baseline *)
    Machine.set_reg m Reg.a0 secret;
    ignore (phase 0x400);            (* victim runs with the secret *)
    let probed = phase 0x100 in
    probed - warm
  in
  Printf.printf "%-38s %14s %14s %10s\n" "configuration" "leak(secret=0)"
    "leak(secret=1)" "signal";
  List.iter
    (fun (label, backing) ->
       let l0 = leakage ~backing ~secret:0 in
       let l1 = leakage ~backing ~secret:1 in
       Printf.printf "%-38s %11d cy %11d cy %7d cy\n" label l0 l1
         (abs (l1 - l0)))
    [ ("Metal (dedicated, uncached MRAM)", Config.Dedicated);
      ("PALcode (main-memory mroutines)",
       Config.Main_memory { fetch_penalty = 10 }) ];
  print_endline
    "\npaper: \"Metal does not cache MReg. or MRAM\" (Section 4) — with the\n\
     dedicated MRAM the attacker cannot distinguish the secret (signal 0);\n\
     main-memory-resident vertical microcode leaks its execution path."

(* ------------------------------------------------------------------ *)
(* Simulator throughput: simulated instructions per host second        *)

(* Three long workloads, each run through the three steppers: the slow
   option-latch oracle (predecode off), the predecode fast path, and
   the block-translation cache on top of it.  The slow position is the
   ablation/correctness oracle — the decode-every-fetch hot loop — and
   the two ratios are the speedups each layer buys.  With --json the
   results (plus the merged block-cache counters of the blocks-on
   runs) land in BENCH_sim_throughput.json. *)

let retired m = m.Machine.stats.Stats.instructions

type sim_mode = M_slow | M_pre | M_blocks

let sim_mode_flags = function
  | M_slow -> (false, false)
  | M_pre -> (true, false)
  | M_blocks -> (true, true)

(* Pointwise sum of two [Blockcache.stats_fields] lists (canonical
   order, so the empty list acts as the identity). *)
let merge_fields a b =
  if a = [] then b else List.map2 (fun (k, v) (_, v') -> (k, v + v')) a b

let bc_fields m = Blockcache.stats_fields m.Machine.blockcache

(* E6-shaped workload: the mcode TLB-miss walker sweep (paging on,
   Metal-mode fetches, physld-heavy mroutines). *)
let simperf_walker ~mode () =
  let predecode, blockcache = sim_mode_flags mode in
  List.fold_left
    (fun (acc, st) pages ->
       let m = pt_run ~predecode ~blockcache ~pages ~accesses:6000 Pt_metal in
       (acc + retired m, merge_fields st (bc_fields m)))
    (0, [])
    [ 16; 32; 64; 96 ]

(* E8-shaped workload: the NIC packet sweep under user-level
   interrupts (device ticks, interrupt delivery, handler drains). *)
let simperf_nic ~mode () =
  let predecode, blockcache = sim_mode_flags mode in
  List.fold_left
    (fun (acc, st) period ->
       let m, _ =
         uintr_run ~predecode ~blockcache ~packets:400 ~period `Uintr
       in
       (acc + retired m, merge_fields st (bc_fields m)))
    (0, [])
    [ 250; 500; 1000; 2000 ]

(* Differential-style random programs: straight-line ALU/memory/branch
   bodies (the test_differential generator's shape) wrapped in a
   counted loop so each program refetches its body thousands of
   times. *)
let simperf_random_programs =
  lazy
    (let seed = ref 0x2545F491 in
     let rand bound =
       seed := !seed lxor (!seed lsl 13);
       seed := !seed lxor (!seed lsr 17);
       seed := !seed lxor (!seed lsl 5);
       (!seed land max_int) mod bound
     in
     let data_base = 0x1000 in
     let base_reg = 28 and counter_reg = 29 in
     let gen_body n =
       let reg () = rand 16 in
       let alu =
         [| Instr.Add; Instr.Sub; Instr.Sll; Instr.Slt; Instr.Sltu;
            Instr.Xor; Instr.Srl; Instr.Sra; Instr.Or; Instr.And |]
       in
       let cond =
         [| Instr.Beq; Instr.Bne; Instr.Blt; Instr.Bge; Instr.Bltu;
            Instr.Bgeu |]
       in
       List.init n (fun i ->
           if i >= n - 2 then
             (* Keep the last two slots fall-through so a skip never
                jumps past the loop back-edge. *)
             Instr.Op { op = alu.(rand 10); rd = reg (); rs1 = reg ();
                        rs2 = reg () }
           else
             match rand 10 with
             | 0 | 1 | 2 ->
               Instr.Op { op = alu.(rand 10); rd = reg (); rs1 = reg ();
                          rs2 = reg () }
             | 3 | 4 ->
               Instr.Op_imm { op = Instr.Add; rd = reg (); rs1 = reg ();
                              imm = rand 4096 - 2048 }
             | 5 ->
               Instr.Load { width = Instr.Word; unsigned = false;
                            rd = reg (); rs1 = base_reg;
                            offset = 4 * rand 64 }
             | 6 ->
               Instr.Store { width = Instr.Word; rs2 = reg ();
                             rs1 = base_reg; offset = 4 * rand 64 }
             | 7 ->
               Instr.Branch { cond = cond.(rand 6); rs1 = reg ();
                              rs2 = reg (); offset = 8 }
             | _ ->
               Instr.Op_imm { op = Instr.Xor; rd = reg (); rs1 = reg ();
                              imm = rand 2048 })
     in
     let image_of instrs =
       let b = Metal_asm.Image.Builder.create () in
       List.iteri
         (fun i instr ->
            match
              Metal_asm.Image.Builder.emit_word b ~addr:(4 * i)
                (Encode.encode_exn instr)
            with
            | Ok () -> ()
            | Error e -> fail "%s" e)
         instrs;
       Metal_asm.Image.Builder.finish b
     in
     List.init 24 (fun _ ->
         let body_len = 30 + rand 30 in
         let body = gen_body body_len in
         let iters = 2000 in
         let prologue =
           [ Instr.Lui { rd = base_reg; imm = data_base lsr 12 };
             Instr.Op_imm { op = Instr.Add; rd = counter_reg; rs1 = 0;
                            imm = iters } ]
         in
         let back_offset = -4 * (body_len + 1) in
         let epilogue =
           [ Instr.Op_imm { op = Instr.Add; rd = counter_reg;
                            rs1 = counter_reg; imm = -1 };
             Instr.Branch { cond = Instr.Bne; rs1 = counter_reg; rs2 = 0;
                            offset = back_offset };
             Instr.Ebreak ]
         in
         image_of (prologue @ body @ epilogue)))

let simperf_random ~mode () =
  let predecode, blockcache = sim_mode_flags mode in
  let config = { Config.default with Config.predecode; blockcache } in
  List.fold_left
    (fun (acc, st) img ->
       let m = machine ~config () in
       (match Machine.load_image m img with
        | Ok () -> ()
        | Error e -> fail "%s" e);
       Machine.set_pc m 0;
       run_to_ebreak m;
       (acc + retired m, merge_fields st (bc_fields m)))
    (0, [])
    (Lazy.force simperf_random_programs)

let time_once f =
  (* Drain pending collection work so GC pauses from the previous
     round's garbage don't land inside the timed region. *)
  Gc.minor ();
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The workloads are deterministic, so the minimum over several rounds
   is the least noise-contaminated estimate; interleaving the three
   configurations keeps slow host-load drift from biasing the ratios.
   Returns the per-mode (instructions, best seconds) plus the
   block-cache counters of one blocks-on round. *)
let timed_sweep run =
  let rounds = 9 in
  let n = Array.make 3 0 and t = Array.make 3 infinity in
  let stats = ref [] in
  for _ = 1 to rounds do
    List.iteri
      (fun i mode ->
         let (count, st), secs = time_once (run ~mode) in
         n.(i) <- count;
         if secs < t.(i) then t.(i) <- secs;
         if mode = M_blocks then stats := st)
      [ M_blocks; M_pre; M_slow ]
  done;
  (n, t, !stats)

(* Allocation gate: replaying a hot, chained block must not allocate —
   the compiled loop runs on integers and pre-built slot records.  A
   counted tight loop (~1.4M cycles of chained block replay) is run
   once to warm the host, then again on a fresh machine under a
   minor-heap watch.  The budget of 0.05 words/cycle amortizes the
   one-time block build and engage-time bookkeeping (window
   descriptors, chain patches) while failing on any per-cycle boxing
   that sneaks into [compiled_cycle].  The same loop then runs with the
   block cache off under the same budget: [step_fast] promises an
   allocation-free steady state too, and this holds it to that.  Only
   the blocks-on figure goes into the JSON; the predecode figure is
   printed. *)
let simperf_alloc_gate () =
  let prog =
    {|
    li s0, 0
    li s1, 200000
loop:
    addi s0, s0, 1
    addi t0, s0, 7
    xor t1, t0, s0
    slt t2, t1, s1
    bne s0, s1, loop
    ebreak
|}
  in
  let gate ~blockcache ~what ~loop =
    let config = { Config.default with Config.blockcache } in
    let m = machine ~config () in
    ignore (load m prog);
    Machine.set_pc m 0;
    run_to_ebreak m;
    let m2 = machine ~config () in
    ignore (load m2 prog);
    Machine.set_pc m2 0;
    let w0 = Gc.minor_words () in
    run_to_ebreak m2;
    let dw = Gc.minor_words () -. w0 in
    let cycles = m2.Machine.stats.Stats.cycles in
    let per_cycle = dw /. float_of_int cycles in
    Printf.printf
      "allocation gate (%s): %.0f minor words / %d cycles = %.4f words per \
       cycle\n"
      what dw cycles per_cycle;
    if per_cycle > 0.05 then
      fail
        "%s allocates %.4f minor words per cycle (budget 0.05) — boxing \
         leaked into %s"
        what per_cycle loop;
    per_cycle
  in
  let blocks =
    gate ~blockcache:true ~what:"block replay" ~loop:"the compiled loop"
  in
  ignore (gate ~blockcache:false ~what:"predecode stepper" ~loop:"step_fast");
  blocks

let simperf_json = ref false

let simperf () =
  section "E15. Simulator throughput (simulated instructions / host second)";
  let workloads =
    [ ("e6_walker_sweep", simperf_walker);
      ("e8_nic_sweep", simperf_nic);
      ("random_programs", simperf_random) ]
  in
  (* Touch every code path once so timing excludes cold-start work. *)
  List.iter
    (fun mode ->
       let predecode, blockcache = sim_mode_flags mode in
       ignore (pt_run ~predecode ~blockcache ~pages:4 ~accesses:50 Pt_metal))
    [ M_blocks; M_pre; M_slow ];
  Printf.printf "%-18s %12s %9s %9s %9s %8s %8s\n" "workload" "sim instrs"
    "blocks" "predec" "slow" "blk/pre" "pre/slow";
  let results =
    List.map
      (fun (name, run) ->
         let n, t, stats = timed_sweep run in
         if n.(0) <> n.(1) || n.(1) <> n.(2) then
           fail
             "%s: instruction counts diverge across steppers \
              (blocks %d, predecode %d, slow %d)"
             name n.(0) n.(1) n.(2);
         let ips i = float_of_int n.(i) /. t.(i) in
         let blk_pre = ips 0 /. ips 1 and pre_slow = ips 1 /. ips 2 in
         Printf.printf "%-18s %12d %9.2f %9.2f %9.2f %7.2fx %7.2fx\n" name
           n.(0) (ips 0 /. 1e6) (ips 1 /. 1e6) (ips 2 /. 1e6) blk_pre
           pre_slow;
         if Sys.getenv_opt "SIMPERF_STATS" <> None then begin
           Printf.printf "  %s:" name;
           List.iter
             (fun (k, v) -> if v > 0 then Printf.printf " %s=%d" k v)
             stats;
           print_newline ()
         end;
         (name, n.(0), t, (ips 0, ips 1, ips 2), blk_pre, pre_slow, stats))
      workloads
  in
  let geomean f =
    exp
      (List.fold_left (fun a r -> a +. log (f r)) 0.0 results
       /. float_of_int (List.length results))
  in
  let geo_blk = geomean (fun (_, _, _, _, s, _, _) -> s) in
  let geo_pre = geomean (fun (_, _, _, _, _, s, _) -> s) in
  Printf.printf
    "\ngeometric-mean speedup: block cache over predecode %.2fx, \
     predecode over slow %.2fx\n"
    geo_blk geo_pre;
  let stats =
    List.fold_left
      (fun acc (_, _, _, _, _, _, st) -> merge_fields acc st)
      [] results
  in
  Printf.printf "block cache:";
  List.iter (fun (k, v) -> if v > 0 then Printf.printf " %s=%d" k v) stats;
  print_newline ();
  let alloc_per_cycle = simperf_alloc_gate () in
  if !simperf_json then begin
    let oc = open_out "BENCH_sim_throughput.json" in
    Printf.fprintf oc "{\n  \"benchmark\": \"sim_throughput\",\n";
    Printf.fprintf oc "  \"unit\": \"simulated instructions per host second\",\n";
    Printf.fprintf oc "  \"workloads\": [\n";
    List.iteri
      (fun i (name, n, t, (ips_b, ips_p, ips_s), blk_pre, pre_slow, _) ->
         Printf.fprintf oc
           "    {\"name\": %S, \"instructions\": %d,\n\
           \     \"blocks_on\": {\"seconds\": %.6f, \"ips\": %.0f},\n\
           \     \"predecode_on\": {\"seconds\": %.6f, \"ips\": %.0f},\n\
           \     \"slow\": {\"seconds\": %.6f, \"ips\": %.0f},\n\
           \     \"speedup_blocks\": %.3f, \"speedup_predecode\": %.3f}%s\n"
           name n t.(0) ips_b t.(1) ips_p t.(2) ips_s blk_pre pre_slow
           (if i = List.length results - 1 then "" else ","))
      results;
    Printf.fprintf oc "  ],\n  \"blockcache\": {";
    List.iteri
      (fun i (k, v) ->
         Printf.fprintf oc "%s\"%s\": %d" (if i > 0 then ", " else "") k v)
      stats;
    Printf.fprintf oc "},\n";
    Printf.fprintf oc "  \"replay_minor_words_per_cycle\": %.4f,\n"
      alloc_per_cycle;
    Printf.fprintf oc
      "  \"geomean_blocks_speedup\": %.3f,\n\
      \  \"geomean_predecode_speedup\": %.3f\n}\n"
      geo_blk geo_pre;
    close_out oc;
    print_endline "wrote BENCH_sim_throughput.json"
  end

(* ------------------------------------------------------------------ *)
(* E16: fleet throughput — batch simulation across domain counts       *)

(* The batch runner from lib/fleet executing the three simperf
   workload families as one mixed 32-job batch, swept over domain
   counts.  Per-job results must be bit-identical at every domain
   count (the work-stealing schedule may differ; the simulations may
   not) — the sweep aborts if they are not.  Aggregate throughput is
   simulated instructions per host second across the whole batch. *)

type fleet_work =
  | W_walker of int  (* E6 page-table walker, pages *)
  | W_nic of int  (* E8 user-interrupt NIC, packet period *)
  | W_random of int  (* random-program corpus index *)

let fleet_work_label = function
  | W_walker pages -> Printf.sprintf "e6_walker_p%d" pages
  | W_nic period -> Printf.sprintf "e8_nic_t%d" period
  | W_random i -> Printf.sprintf "random_%02d" i

let fleet_json = ref false

let fleet () =
  section "E16. Fleet throughput (work-stealing batch runner on domains)";
  let images = Array.of_list (Lazy.force simperf_random_programs) in
  let works =
    List.map (fun p -> W_walker p) [ 16; 32; 64; 96 ]
    @ List.map (fun p -> W_nic p) [ 250; 500; 1000; 2000 ]
    @ List.init (Array.length images) (fun i -> W_random i)
  in
  let run_work w =
    let snapshot m = (retired m, Stats.copy m.Machine.stats) in
    match w with
    | W_walker pages -> snapshot (pt_run ~pages ~accesses:3000 Pt_metal)
    | W_nic period -> snapshot (fst (uintr_run ~packets:200 ~period `Uintr))
    | W_random i ->
      let m = machine () in
      (match Machine.load_image m images.(i) with
       | Ok () -> ()
       | Error e -> fail "%s" e);
      Machine.set_pc m 0;
      run_to_ebreak m;
      snapshot m
  in
  (* Warm every code path once so the sweep times steady-state work. *)
  ignore (run_work (W_walker 4));
  ignore (run_work (W_nic 2000));
  let domain_counts = [ 1; 2; 4; 8 ] in
  let rounds = 2 in
  let baseline = ref [||] in
  Printf.printf "%d jobs (E6 walker / E8 NIC / random programs); host cores: %d\n\n"
    (List.length works)
    (Domain.recommended_domain_count ());
  Printf.printf "%8s %9s %10s %12s %10s %11s\n" "domains" "effective"
    "seconds" "sim instrs" "Minstr/s" "speedup";
  let rows =
    List.map
      (fun domains ->
         let best_t = ref infinity and results = ref [||] in
         for _ = 1 to rounds do
           let r, t = time_once (fun () -> fleet_map ~domains run_work works) in
           results := r;
           if t < !best_t then best_t := t
         done;
         if domains = 1 then baseline := !results
         else begin
           (* bit-identical per-job results regardless of domain count *)
           Array.iteri
             (fun i (n, stats) ->
                let n0, stats0 = !baseline.(i) in
                if n <> n0 || stats <> stats0 then
                  fail
                    "fleet: job %s diverges at %d domains\n  1 domain: %s\n  %d domains: %s"
                    (fleet_work_label (List.nth works i))
                    domains
                    (Stats.to_string stats0)
                    domains (Stats.to_string stats))
             !results
         end;
         let instrs = Array.fold_left (fun a (n, _) -> a + n) 0 !results in
         let ips = float_of_int instrs /. !best_t in
         (domains, Fleet.effective_domains domains, !best_t, instrs, ips))
      domain_counts
  in
  let _, _, _, _, ips1 = List.hd rows in
  List.iter
    (fun (domains, effective, t, instrs, ips) ->
       Printf.printf "%8d %9d %10.3f %12d %10.2f %10.2fx\n" domains
         effective t instrs (ips /. 1e6) (ips /. ips1))
    rows;
  print_endline
    "\nper-job Stats are bit-identical across all domain counts (verified\n\
     above; the determinism property in test_fleet enforces the same for\n\
     randomized batches).  Speedup tracks the host's core count: with a\n\
     single-core host the sweep degenerates to scheduling overhead.";
  if !fleet_json then begin
    let oc = open_out "BENCH_fleet_throughput.json" in
    Printf.fprintf oc "{\n  \"benchmark\": \"fleet_throughput\",\n";
    Printf.fprintf oc
      "  \"unit\": \"aggregate simulated instructions per host second\",\n";
    Printf.fprintf oc "  \"host_cores\": %d,\n"
      (Domain.recommended_domain_count ());
    Printf.fprintf oc "  \"jobs\": %d,\n" (List.length works);
    Printf.fprintf oc
      "  \"workloads\": [\"e6_walker_sweep\", \"e8_nic_sweep\", \
       \"random_programs\"],\n";
    Printf.fprintf oc "  \"deterministic_across_domain_counts\": true,\n";
    Printf.fprintf oc "  \"domain_sweep\": [\n";
    List.iteri
      (fun i (domains, effective, t, instrs, ips) ->
         Printf.fprintf oc
           "    {\"domains_requested\": %d, \"domains_effective\": %d, \
            \"seconds\": %.6f, \"instructions\": %d, \"ips\": %.0f, \
            \"speedup_vs_1\": %.3f}%s\n"
           domains effective t instrs ips (ips /. ips1)
           (if i = List.length rows - 1 then "" else ","))
      rows;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    print_endline "wrote BENCH_fleet_throughput.json"
  end

(* ------------------------------------------------------------------ *)
(* E17: observability — tracing overhead and trace-derived attribution *)

(* Two claims to quantify: (a) the disabled probe is free enough that
   the simperf numbers stand (one load-and-branch per would-be event);
   (b) the event stream alone reconstructs the Figure-2 transition
   costs — per-mroutine menter→mexit latency measured from the trace,
   not from Stats. *)

let trace_obs () =
  section "E17. Observability: tracing overhead and cycle attribution";
  let images = Lazy.force simperf_random_programs in
  let run_corpus ~collect () =
    List.fold_left
      (fun acc img ->
         let m = machine () in
         (match Machine.load_image m img with
          | Ok () -> ()
          | Error e -> fail "%s" e);
         Machine.set_pc m 0;
         if collect then begin
           let c = Metal_trace.Collector.create ~capacity:8192 () in
           Machine.set_probe m (Metal_trace.Collector.probe c)
         end;
         run_to_ebreak m;
         acc + retired m)
      0 images
  in
  ignore (run_corpus ~collect:false ());
  let rounds = 3 in
  let t_off = ref infinity and t_on = ref infinity and n = ref 0 in
  for _ = 1 to rounds do
    let r, t = time_once (run_corpus ~collect:false) in
    n := r;
    if t < !t_off then t_off := t;
    let _, t = time_once (run_corpus ~collect:true) in
    if t < !t_on then t_on := t
  done;
  Printf.printf
    "random corpus (%d sim instrs):\n\
    \  probe disabled   %.3f s (%.2f Minstr/s)\n\
    \  collector armed  %.3f s (%.2f Minstr/s)\n\
    \  collection overhead: %.1f%%\n\n"
    !n !t_off
    (float_of_int !n /. !t_off /. 1e6)
    !t_on
    (float_of_int !n /. !t_on /. 1e6)
    ((!t_on /. !t_off -. 1.0) *. 100.0);
  (* Figure-2 view from the event stream: a ping workload crossing
     into a 4-instruction mroutine, under fast decode-replacement
     transitions and under trap-style flushes. *)
  let ping config =
    let m = machine ~config () in
    load_mcode m
      ".mentry 1, ping\n\
       ping:\n\
       wmr m11, t0\n\
       rmr t0, m10\n\
       addi t0, t0, 1\n\
       wmr m10, t0\n\
       rmr t0, m11\n\
       mexit\n";
    ignore
      (load m
         "start:\n\
          li s0, 200\n\
          loop:\n\
          menter 1\n\
          addi s0, s0, -1\n\
          bne s0, zero, loop\n\
          ebreak\n");
    let c = Metal_trace.Collector.create () in
    Machine.set_probe m (Metal_trace.Collector.probe c);
    Machine.set_pc m 0;
    run_to_ebreak m;
    Metal_trace.Collector.metrics c
  in
  let report name config =
    let mx = ping config in
    List.iter
      (fun r ->
         Printf.printf
           "%-24s entry %d: %4d crossings, %5.2f cycles/crossing \
            (min %d, max %d)\n"
           name r.Metal_trace.Metrics.entry r.Metal_trace.Metrics.count
           (float_of_int r.Metal_trace.Metrics.total_cycles
            /. float_of_int (max 1 r.Metal_trace.Metrics.count))
           r.Metal_trace.Metrics.min_cycles r.Metal_trace.Metrics.max_cycles)
      mx.Metal_trace.Metrics.mroutines
  in
  print_endline "transition cost measured from the event stream alone:";
  report "fast replacement" Config.default;
  report "trap-style flush"
    { Config.default with Config.transition = Config.Trap_flush };
  report "palcode (mem mroutines)" Config.palcode;
  print_endline
    "\nthe per-mroutine latency table above is derived purely from\n\
     mode_enter/mode_exit events (Metal_trace.Collector), and matches\n\
     the Stats-derived Figure 2 costs in the transition section."

(* ------------------------------------------------------------------ *)
(* E18: cycle-exact profiler — hot-spot attribution on the Figure-2
   workloads                                                           *)

(* Three claims: (a) the flat profile accounts for every simulated
   cycle (total = Stats.accounted_cycles — the harness FAILS loudly on
   any divergence, same policy as the stall-accounting property);
   (b) the hot-spot ranking is a property of the program, not of the
   simulator — both steppers produce the identical report; (c) the
   fleet-merged profile is byte-identical for 1 domain and N. *)

module Profile = Metal_profile.Profile

let profile_json = ref false

let profile_bench () =
  section "E18. Cycle-exact profiler: hot spots of the Figure-2 workloads";
  let mcode_src =
    ".mentry 1, ping\n\
     ping:\n\
     wmr m11, t0\n\
     rmr t0, m10\n\
     addi t0, t0, 1\n\
     wmr m10, t0\n\
     rmr t0, m11\n\
     mexit\n"
  and guest_src =
    "start:\n\
     li s0, 200\n\
     loop:\n\
     menter 1\n\
     addi s0, s0, -1\n\
     bne s0, zero, loop\n\
     ebreak\n"
  in
  let mimg =
    match Metal_asm.Asm.assemble mcode_src with
    | Ok img -> img
    | Error e -> fail "mcode assembly: %s" (Metal_asm.Asm.error_to_string e)
  in
  (* One profiled run: returns the symbolized report and the machine's
     own cycle accounting for the cross-check. *)
  let profiled config =
    let m = machine ~config () in
    (match Machine.load_mcode m mimg with
     | Ok () -> ()
     | Error e -> fail "mcode load: %s" e);
    let img = load m guest_src in
    let p =
      Profile.create
        ~guest_words:(min 65536 (config.Config.mem_size / 4))
        ~mram_words:config.Config.mram_code_words ()
    in
    Machine.set_probe m (Profile.probe p);
    Machine.set_pc m 0;
    run_to_ebreak m;
    let s = m.Machine.stats in
    let accounted =
      Stats.accounted_cycles s ~pending_stall:m.Machine.stall_cycles
    in
    let symtab = Profile.Symtab.of_images ~guest:img ~mcode:mimg () in
    (Profile.report ~symtab ~upto:s.Stats.cycles p, accounted)
  in
  let configs =
    [ ("fast replacement", Config.default);
      ("trap-style flush",
       { Config.default with Config.transition = Config.Trap_flush });
      ("palcode (mem mroutines)", Config.palcode) ]
  in
  let results =
    List.map
      (fun (name, config) ->
         let r, accounted = profiled config in
         if r.Profile.Report.total_cycles <> accounted then
           fail
             "%s: profile accounts for %d cycles, Stats.accounted_cycles \
              says %d — the profiler lost or double-charged cycles"
             name r.Profile.Report.total_cycles accounted;
         (* (b): the ranking must survive swapping the stepper *)
         let slow, _ =
           profiled { config with Config.predecode = false }
         in
         if not (Profile.Report.equal r slow) then
           fail "%s: fast and slow steppers produce different profiles" name;
         (name, config, r))
      configs
  in
  List.iter
    (fun (name, _, r) ->
       Printf.printf "--- %s (%d cycles, every one attributed) ---\n" name
         r.Profile.Report.total_cycles;
       Format.printf "%a@." (Profile.Report.pp ~top:5) r)
    results;
  (* (c): fleet merge determinism on a batch of the same workload *)
  let jobs =
    Array.init 8 (fun _ ->
        Metal_fleet.Fleet.job ~profile:true
          (Metal_fleet.Fleet.Asm
             { src = guest_src; origin = 0; mcode = Some mcode_src }))
  in
  let merged domains =
    Profile.Report.to_json
      (Metal_fleet.Fleet.merge_profiles
         (Metal_fleet.Fleet.run ~domains jobs))
  in
  let n_domains = max 2 (Metal_fleet.Fleet.default_domains ()) in
  let j1 = merged 1 and jn = merged n_domains in
  if j1 <> jn then
    fail "fleet-merged profile differs between 1 domain and %d" n_domains;
  Printf.printf
    "fleet merge: 8 profiled jobs, merged report byte-identical on 1 vs %d \
     domains\n"
    n_domains;
  if !profile_json then begin
    let oc = open_out "BENCH_profile.json" in
    Printf.fprintf oc "{\n  \"benchmark\": \"profile\",\n";
    Printf.fprintf oc "  \"workloads\": [\n";
    List.iteri
      (fun i (name, _, (r : Profile.Report.t)) ->
         let hottest =
           match
             List.sort
               (fun (a : Profile.Report.flat_row) (b : Profile.Report.flat_row) ->
                  compare (b.cycles, a.pc) (a.cycles, b.pc))
               r.Profile.Report.flat
           with
           | h :: _ -> h
           | [] -> fail "%s: empty flat profile" name
         in
         Printf.fprintf oc
           "    {\"name\": %S, \"total_cycles\": %d, \"other_cycles\": %d,\n\
           \     \"hottest\": {\"seg\": %d, \"pc\": %d, \"name\": %S, \
            \"cycles\": %d}}%s\n"
           name r.Profile.Report.total_cycles r.Profile.Report.other_cycles
           hottest.seg hottest.pc hottest.name hottest.cycles
           (if i = List.length results - 1 then "" else ","))
      results;
    Printf.fprintf oc "  ],\n  \"fleet_merge_deterministic\": true\n}\n";
    close_out oc;
    print_endline "wrote BENCH_profile.json"
  end

(* ------------------------------------------------------------------ *)
(* E19: static WCET bounds vs measured mroutine latency                *)

(* The mverify WCET pass claims: for every invocation of an mroutine
   entry, measured mode_enter→mode_exit latency ≤ the static bound.
   This section runs the Figure-2 null-syscall workload (kenter +
   kexit round trips) under the three Figure-2 configurations, on both
   steppers, measures per-entry worst latencies from the event stream
   (Metal_trace.Metrics), and hard-fails on any bound violation or
   stepper disagreement.  The table reports tightness =
   measured / bound. *)

module Mverify = Metal_mverify.Mverify

let verify_bench () =
  section "E19. Static WCET bounds vs measured mroutine latency (Figure 2)";
  let mcode_src = Privilege.mcode priv_cfg in
  let mimg =
    match Metal_asm.Asm.assemble mcode_src with
    | Ok img -> img
    | Error e -> fail "mcode assembly: %s" (Metal_asm.Asm.error_to_string e)
  in
  let n = 100 in
  let guest = repeat_lines n "li a0, 0\nmenter 0\n" ^ "ebreak\n" in
  let measured config =
    let m = machine ~config () in
    ignore (load m null_kernel);
    (match Privilege.install m priv_cfg with
     | Ok () -> ()
     | Error e -> fail "%s" e);
    let c = Metal_trace.Collector.create () in
    Machine.set_probe m (Metal_trace.Collector.probe c);
    ignore (load m guest);
    Machine.set_pc m 0;
    run_to_ebreak m;
    List.map
      (fun r ->
         ( r.Metal_trace.Metrics.entry,
           (r.Metal_trace.Metrics.count, r.Metal_trace.Metrics.max_cycles) ))
      (Metal_trace.Collector.metrics c).Metal_trace.Metrics.mroutines
  in
  let cases =
    [ ("Metal (fast decode-stage replacement)", Config.default);
      ("Metal with trap-style transitions",
       { Config.default with Config.transition = Config.Trap_flush });
      ("PALcode-style (main-memory mroutines)", Config.palcode) ]
  in
  Printf.printf "%-40s %-16s %9s %7s %10s\n" "configuration" "entry"
    "measured" "bound" "tightness";
  List.iter
    (fun (label, config) ->
       let report = Mverify.verify ~config mimg in
       if not (Mverify.ok report) then
         fail "%s: privilege mcode fails verification:\n%s" label
           (String.concat "\n"
              (List.map Mverify.finding_to_string (Mverify.errors report)));
       let fast = measured config
       and slow = measured { config with Config.predecode = false } in
       if fast <> slow then
         fail "%s: fast and slow steppers disagree on measured latencies"
           label;
       if fast = [] then fail "%s: no mroutine invocations measured" label;
       List.iter
         (fun (entry, (count, max_cycles)) ->
            let bound =
              match Mverify.wcet report ~entry with
              | Some b -> b
              | None -> fail "%s: no WCET bound for entry %d" label entry
            in
            if max_cycles > bound then
              fail
                "%s: entry %d measured %d cycles > static bound %d — the \
                 WCET model is unsound"
                label entry max_cycles bound;
            let name =
              List.find_map
                (fun (e : Mverify.entry_report) ->
                   if e.Mverify.entry = entry then e.Mverify.name else None)
                report.Mverify.entries
            in
            Printf.printf "%-40s %2d %-13s %6d x%-3d %6d %9.2f\n" label entry
              (match name with Some s -> s | None -> "")
              max_cycles count bound
              (float_of_int max_cycles /. float_of_int bound))
         fast)
    cases;
  print_endline
    "\nevery measured mode_enter->mode_exit span stayed within its static\n\
     bound on both steppers; the largest per-entry bound is the documented\n\
     interrupt-latency bound while the image is installed."

(* ------------------------------------------------------------------ *)
(* E20: fault-injection campaigns — verdict rates and detection gates  *)

(* lib/inject's robustness semantics on the Figure-2 workloads: a
   survey campaign over every fault class reports the masked /
   corrected / detected / silent-corruption rates — once with ECC off
   (the ablation showing mram-data/mreg upsets corrupting silently)
   and once with the SECDED layer armed — then the hard gates run:

   - curated zero-silent campaigns (MRAM code flips with user-mode
     triggers and the integrity re-check armed; spurious/dropped
     interrupts against a workload with no handlers) where every
     possible outcome is Masked or Detected by construction — any
     Silent_corruption fails the bench;
   - ECC zero-silent campaigns: mram-data/mreg single-bit flips with
     the SECDED layer armed must never corrupt silently, and at least
     one run per campaign must classify Corrected (the layer fired);
   - verdict determinism: every survey campaign re-run on 1 fleet
     domain must be byte-identical to the max-domain run.

   With --json the campaigns are written to BENCH_inject.json (schema
   metal-inject-bench-v1, one metal-inject-v1 document per campaign)
   for trace_check inject and the ci.sh diff against the committed
   artifact. *)

module Inject = Metal_inject.Inject

let inject_json = ref false

let inject_bench () =
  section "E20. Fault-injection campaigns: robustness verdicts (lib/inject)";
  let ping_mcode =
    ".mentry 1, ping\n\
     ping:\n\
     wmr m11, t0\n\
     rmr t0, m10\n\
     addi t0, t0, 1\n\
     wmr m10, t0\n\
     rmr t0, m11\n\
     mexit\n"
  and ping_guest =
    "start:\n\
     li s0, 200\n\
     loop:\n\
     menter 1\n\
     addi s0, s0, -1\n\
     bne s0, zero, loop\n\
     ebreak\n"
  in
  let prepare_ping sys =
    let m = sys.Metal_core.System.machine in
    load_mcode m ping_mcode;
    ignore (load m ping_guest);
    Machine.set_pc m 0
  and prepare_null sys =
    let m = sys.Metal_core.System.machine in
    ignore (load m null_kernel);
    (match Privilege.install m priv_cfg with
     | Ok () -> ()
     | Error e -> fail "%s" e);
    ignore (load m (repeat_lines 40 "li a0, 0\nmenter 0\n" ^ "ebreak\n"));
    Machine.set_pc m 0
  in
  let ping = Inject.workload ~label:"ping_loop" ~fuel:2_000_000 prepare_ping
  and null =
    Inject.workload ~label:"null_syscall" ~fuel:2_000_000 prepare_null
  in
  (* The same workloads with the SECDED layer armed: single-bit MRAM
     data / m-register upsets are corrected at consumption instead of
     corrupting silently. *)
  let ecc_config = { Config.default with Config.ecc = true } in
  let ping_ecc =
    Inject.workload ~config:ecc_config ~label:"ping_loop+ecc"
      ~fuel:2_000_000 prepare_ping
  and null_ecc =
    Inject.workload ~config:ecc_config ~label:"null_syscall+ecc"
      ~fuel:2_000_000 prepare_null
  in
  let campaign ?domains ~spec w =
    match Inject.run_campaign ?domains ~spec w with
    | Ok c -> c
    | Error e -> fail "campaign %s: %s" w.Inject.label e
  in
  (* Survey: every fault class, verdict-rate table per workload — once
     without ECC (the ablation showing which classes corrupt silently)
     and once with the SECDED layer armed. *)
  let print_survey (c : Inject.campaign) =
    Printf.printf "\n%s: %d runs, oracle %d cycles\n" c.Inject.label
      c.Inject.spec.Inject.runs c.Inject.oracle_cycles;
    Printf.printf "%-14s %5s %7s%s %9s %7s\n" "class" "runs" "masked"
      (if c.Inject.ecc then "  corrected" else "")
      "detected" "silent";
    let count cls p =
      Array.fold_left
        (fun acc (r : Inject.run_record) ->
           if
             (cls = None
              || cls = Some (Inject.fault_class r.Inject.injection.Inject.fault))
             && p r.Inject.verdict
           then acc + 1
           else acc)
        0 c.Inject.records
    in
    let row label cls =
      Printf.printf "%-14s %5d %7d%s %9d %7d\n" label
        (count cls (fun _ -> true))
        (count cls (function Inject.Masked -> true | _ -> false))
        (if c.Inject.ecc then
           Printf.sprintf " %10d"
             (count cls (function Inject.Corrected _ -> true | _ -> false))
         else "")
        (count cls (function Inject.Detected _ -> true | _ -> false))
        (count cls (function Inject.Silent _ -> true | _ -> false))
    in
    List.iter
      (fun cls -> row (Inject.class_to_string cls) (Some cls))
      c.Inject.spec.Inject.classes;
    row "total" None
  in
  let survey_spec = { Inject.default_spec with Inject.runs = 64 } in
  let surveys =
    List.map (fun w -> campaign ~spec:survey_spec w) [ ping; null ]
  in
  List.iter print_survey surveys;
  let ecc_surveys =
    List.map (fun w -> campaign ~spec:survey_spec w) [ ping_ecc; null_ecc ]
  in
  List.iter print_survey ecc_surveys;
  (* Gate 1: curated zero-silent campaigns.  MRAM code flips from
     user-mode boundaries with integrity armed are detected at the
     next menter or never fetched again (masked); spurious/dropped
     interrupts against ping (no handlers installed, interrupts
     disabled) cannot change architectural state.  Any silent verdict
     here is a detection hole. *)
  let curated =
    [ ( "mram-code+integrity",
        { Inject.seed = 101; Inject.runs = 48;
          Inject.classes = [ Inject.Mram_code_flip ];
          Inject.integrity = true; Inject.user_only = true } );
      ( "irq-without-handlers",
        { Inject.seed = 102; Inject.runs = 32;
          Inject.classes = [ Inject.Irq_spurious; Inject.Irq_drop ];
          Inject.integrity = true; Inject.user_only = false } ) ]
  in
  let curated_campaigns =
    List.map
      (fun (name, spec) ->
         let c = campaign ~spec ping in
         let _, _, detected, silent = Inject.summary c in
         if silent > 0 then
           fail
             "curated campaign %s: %d silent corruptions — a fault class \
              that must be masked-or-detected slipped through"
             name silent;
         Printf.printf "curated %-22s %2d runs: 0 silent (%d detected)\n"
           name c.Inject.spec.Inject.runs detected;
         c)
      curated
  in
  (* Gate 1b: with the SECDED layer armed, the two classes that leak
     silently through the ECC-off survey (MRAM data words and Metal
     registers are unchecked state) must show zero silent corruptions:
     every single-bit upset is either never consumed (masked under the
     corrected read view) or repaired at its consumption point
     (corrected).  A silent verdict here means a read path bypassed
     the decoder. *)
  let ecc_spec =
    { Inject.seed = 103; Inject.runs = 48;
      Inject.classes = [ Inject.Mram_data_flip; Inject.Mreg_flip ];
      Inject.integrity = false; Inject.user_only = false }
  in
  let ecc_curated =
    List.map
      (fun w ->
         let c = campaign ~spec:ecc_spec w in
         let _, corrected, detected, silent = Inject.summary c in
         if silent > 0 then
           fail
             "ecc campaign %s: %d silent corruptions — a single-bit \
              mram-data/mreg upset slipped past the SECDED layer"
             c.Inject.label silent;
         Printf.printf
           "ecc     %-22s %2d runs: 0 silent (%d corrected, %d detected)\n"
           c.Inject.label c.Inject.spec.Inject.runs corrected detected;
         c)
      [ ping_ecc; null_ecc ]
  in
  (* Sanity: at least one run across the ECC campaigns must classify
     Corrected — zero everywhere would mean the layer never fired and
     the zero-silent gate proved nothing.  (Per-campaign this is too
     strict: null_syscall's mroutines rewrite their m-registers on
     every menter, so most upsets are overwritten before any read.) *)
  let total_corrected =
    List.fold_left
      (fun acc c -> let _, co, _, _ = Inject.summary c in acc + co)
      0 ecc_curated
  in
  if total_corrected = 0 then
    fail
      "ecc campaigns: no corrected runs anywhere — the SECDED layer \
       never fired, the zero-silent gate is vacuous";
  (* Gate 2: verdicts are a pure function of the spec — byte-identical
     across fleet domain counts. *)
  let n_domains = max 2 (Metal_fleet.Fleet.default_domains ()) in
  List.iter
    (fun w ->
       let j1 = Inject.to_json (campaign ~domains:1 ~spec:survey_spec w)
       and jn =
         Inject.to_json (campaign ~domains:n_domains ~spec:survey_spec w)
       in
       if j1 <> jn then
         fail "%s: verdicts differ between 1 domain and %d" w.Inject.label
           n_domains)
    [ ping; null; ping_ecc; null_ecc ];
  Printf.printf
    "determinism: survey verdicts byte-identical on 1 vs %d domains\n"
    n_domains;
  if !inject_json then begin
    let oc = open_out "BENCH_inject.json" in
    Printf.fprintf oc
      "{\n  \"schema\": \"metal-inject-bench-v1\",\n  \"campaigns\": [\n";
    let all = surveys @ curated_campaigns @ ecc_surveys @ ecc_curated in
    List.iteri
      (fun i c ->
         let doc = String.trim (Inject.to_json c) in
         Printf.fprintf oc "%s%s\n" doc
           (if i = List.length all - 1 then "" else ","))
      all;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    print_endline "wrote BENCH_inject.json"
  end

(* ------------------------------------------------------------------ *)
(* E21: windowed telemetry — collection overhead, watchdog alarms and
   the runtime-vs-static WCET cross-check                              *)

(* Four claims: (a) the telemetry collector is a pure observer — the
   architectural Stats of a run are bit-identical with and without the
   probe armed (cycle overhead 0), and the wall-clock cost of windowing
   the stream is small; (b) the windows account for every pipeline
   cycle: series totals equal Stats on both steppers; (c) the runtime
   wcet watchdog, fed the static bounds from Mverify, confirms every
   measured menter→mexit latency within its bound (wcet_violations=0);
   (d) degradation trips the alarms deterministically — injected mreg
   upsets under ECC raise ecc_storm, a memory-bound phase under
   mem_latency raises ipc_floor in the later windows only, and the
   fleet-merged series and alarm lists are byte-identical across
   domain counts. *)

module Telemetry = Metal_telemetry.Telemetry

let telemetry_json = ref false

let telemetry_bench () =
  section
    "E21. Windowed telemetry: overhead, watchdogs, runtime WCET cross-check";
  let images = Lazy.force simperf_random_programs in
  let run_corpus ~probe () =
    List.fold_left
      (fun acc img ->
         let m = machine () in
         (match Machine.load_image m img with
          | Ok () -> ()
          | Error e -> fail "%s" e);
         Machine.set_pc m 0;
         (match probe with
          | `None -> ()
          | `Telemetry ->
            let t = Telemetry.create () in
            Machine.set_probe m (Telemetry.probe t)
          | `Both ->
            let t = Telemetry.create () in
            let c = Metal_trace.Collector.create ~capacity:8192 () in
            let pt = Telemetry.probe t
            and pc = Metal_trace.Collector.probe c in
            Machine.set_probe m (fun cy k a b ->
                pc cy k a b;
                pt cy k a b));
         run_to_ebreak m;
         acc + retired m)
      0 images
  in
  ignore (run_corpus ~probe:`None ());
  let rounds = 3 in
  let n = ref 0 in
  let t_off = ref infinity and t_tel = ref infinity and t_both = ref infinity in
  for _ = 1 to rounds do
    let r, t = time_once (run_corpus ~probe:`None) in
    n := r;
    if t < !t_off then t_off := t;
    let _, t = time_once (run_corpus ~probe:`Telemetry) in
    if t < !t_tel then t_tel := t;
    let _, t = time_once (run_corpus ~probe:`Both) in
    if t < !t_both then t_both := t
  done;
  let pct t = (t /. !t_off -. 1.0) *. 100.0 in
  Printf.printf
    "random corpus (%d sim instrs):\n\
    \  probe disabled       %.3f s (%.2f Minstr/s)\n\
    \  telemetry armed      %.3f s (%+.1f%%)\n\
    \  telemetry+collector  %.3f s (%+.1f%%)\n"
    !n !t_off
    (float_of_int !n /. !t_off /. 1e6)
    !t_tel (pct !t_tel) !t_both (pct !t_both);
  (* Observer invariance: the architectural run is bit-identical with
     the probe armed — Stats (cycles included) must not move at all. *)
  let stats_of probe =
    let m = machine () in
    (match Machine.load_image m (List.hd images) with
     | Ok () -> ()
     | Error e -> fail "%s" e);
    Machine.set_pc m 0;
    (match probe with
     | `None -> ()
     | `Telemetry ->
       let t = Telemetry.create () in
       Machine.set_probe m (Telemetry.probe t));
    run_to_ebreak m;
    m.Machine.stats
  in
  if stats_of `None <> stats_of `Telemetry then
    fail "telemetry probe perturbed the architectural Stats of the run";
  print_endline
    "observer invariance: Stats bit-identical with telemetry armed \
     (cycle overhead 0)";
  (* (b)+(c): the windowed Figure-2 ping view with the wcet watchdog
     fed the static bounds, on both steppers. *)
  subsection "windowed Figure-2 ping + runtime wcet watchdog";
  let ping_mcode =
    ".mentry 1, ping\n\
     ping:\n\
     wmr m11, t0\n\
     rmr t0, m10\n\
     addi t0, t0, 1\n\
     wmr m10, t0\n\
     rmr t0, m11\n\
     mexit\n"
  and ping_guest =
    "start:\n\
     li s0, 200\n\
     loop:\n\
     menter 1\n\
     addi s0, s0, -1\n\
     bne s0, zero, loop\n\
     ebreak\n"
  in
  let ping_img =
    match Metal_asm.Asm.assemble ping_mcode with
    | Ok img -> img
    | Error e -> fail "mcode assembly: %s" (Metal_asm.Asm.error_to_string e)
  in
  let vreport = Mverify.verify ~config:Config.default ping_img in
  if not (Mverify.ok vreport) then
    fail "ping mcode fails static verification";
  let bounds =
    List.filter_map
      (fun (e : Mverify.entry_report) ->
         Option.map (fun w -> (e.Mverify.entry, w)) e.Mverify.wcet)
      vreport.Mverify.entries
  in
  let wcet_rules =
    match Telemetry.Watchdog.rules_of_string "wcet" with
    | Ok r -> r
    | Error e -> fail "wcet spec: %s" e
  in
  let ping_run ~predecode =
    let config = { Config.default with Config.predecode } in
    let m = machine ~config () in
    load_mcode m ping_mcode;
    ignore (load m ping_guest);
    let t =
      Telemetry.create ~window_cycles:256 ~rules:wcet_rules
        ~wcet_bounds:bounds ()
    in
    Machine.set_probe m (Telemetry.probe t);
    Machine.set_pc m 0;
    run_to_ebreak m;
    let stats = m.Machine.stats in
    let series =
      Telemetry.Series.annotate (Telemetry.series t)
        ~machine_cycles:stats.Stats.cycles
        ~accounted_cycles:
          (Stats.accounted_cycles stats ~pending_stall:m.Machine.stall_cycles)
    in
    (series, Telemetry.alarms t, stats)
  in
  let series, alarms, stats = ping_run ~predecode:true in
  let series_slow, alarms_slow, _ = ping_run ~predecode:false in
  if not (Telemetry.Series.equal series series_slow) then
    fail "fast and slow steppers produce different telemetry series";
  if alarms <> alarms_slow then
    fail "fast and slow steppers produce different watchdog alarms";
  if Telemetry.Series.total_cycles series <> stats.Stats.cycles then
    fail "telemetry windows cover %d cycles, the machine ran %d"
      (Telemetry.Series.total_cycles series)
      stats.Stats.cycles;
  if Telemetry.Series.total_instructions series <> stats.Stats.instructions
  then
    fail "telemetry windows count %d instructions, the machine retired %d"
      (Telemetry.Series.total_instructions series)
      stats.Stats.instructions;
  Format.printf "%a@." Telemetry.Series.pp series;
  print_endline
    "window sums equal Stats totals on both steppers (every cycle accounted)";
  let entry_bound =
    match bounds with
    | [ (entry, b) ] -> (entry, b)
    | _ -> fail "expected exactly one ping entry bound"
  in
  let measured_max =
    List.fold_left
      (fun acc (w : Telemetry.Series.window) -> max acc w.mroutine_max)
      0 series.Telemetry.Series.windows
  in
  if alarms <> [] then
    fail "runtime wcet watchdog fired %d alarms:\n%s" (List.length alarms)
      (String.concat "\n"
         (List.map Telemetry.Watchdog.alarm_to_string alarms));
  Printf.printf
    "wcet_violations=%d (entry %d: measured max %d <= static bound %d, \
     both steppers)\n"
    0 (fst entry_bound) measured_max (snd entry_bound);
  (* (d1): injected mreg upsets under ECC trip the ecc_storm rule, and
     the scenario is a pure function of the plan — replaying it yields
     the identical series and alarm list. *)
  subsection "degradation alarms: ecc_storm under injected mreg upsets";
  let storm_rules =
    match Telemetry.Watchdog.rules_of_string "ecc_storm:2" with
    | Ok r -> r
    | Error e -> fail "ecc_storm spec: %s" e
  in
  let storm_run () =
    let m = machine ~config:{ Config.default with Config.ecc = true } () in
    load_mcode m ping_mcode;
    ignore (load m ping_guest);
    let t = Telemetry.create ~window_cycles:128 ~rules:storm_rules () in
    Machine.set_probe m (Telemetry.probe t);
    Machine.set_pc m 0;
    let plan =
      List.map
        (fun c ->
           { Inject.trigger = Inject.At_cycle c;
             Inject.fault = Inject.Mreg { m = 10; bit = c mod 8 } })
        [ 100; 110; 120; 130; 140; 150 ]
    in
    let stop, applied = Inject.run_plan m ~fuel:2_000_000 ~plan in
    (match stop with
     | Inject.Halted (Machine.Halt_ebreak _) -> ()
     | _ -> fail "ecc_storm workload did not reach its ebreak");
    if applied <> List.length plan then
      fail "ecc_storm plan applied %d of %d injections" applied
        (List.length plan);
    (Telemetry.series t, Telemetry.alarms t)
  in
  let storm_series, storm_alarms = storm_run () in
  let storm_series', storm_alarms' = storm_run () in
  if
    (not (Telemetry.Series.equal storm_series storm_series'))
    || storm_alarms <> storm_alarms'
  then fail "ecc_storm scenario is not deterministic across replays";
  if storm_alarms = [] then
    fail "injected mreg upsets raised no ecc_storm alarms";
  List.iter
    (fun (a : Telemetry.Watchdog.alarm) ->
       if a.Telemetry.Watchdog.rule <> "ecc_storm:2" then
         fail "unexpected alarm %s in the ecc_storm scenario"
           a.Telemetry.Watchdog.rule)
    storm_alarms;
  List.iter
    (fun a ->
       print_endline ("  " ^ Telemetry.Watchdog.alarm_to_string a))
    storm_alarms;
  let storm_first =
    List.fold_left
      (fun acc (a : Telemetry.Watchdog.alarm) ->
         min acc a.Telemetry.Watchdog.window)
      max_int storm_alarms
  in
  let storm_corrections =
    List.fold_left
      (fun acc (w : Telemetry.Series.window) -> acc + w.ecc_corrections)
      0 storm_series.Telemetry.Series.windows
  in
  (* (d2): a memory-bound phase under mem_latency drags the IPC below
     the floor in the later windows only, through the fleet — merged
     series and per-job alarms byte-identical across domain counts. *)
  subsection "degradation alarms: ipc_floor on a two-phase program (fleet)";
  let two_phase =
    "start:\n\
     li s0, 300\n\
     li s1, 0x1000\n\
     alu:\n\
     addi t0, t0, 1\n\
     xor t1, t0, t1\n\
     addi s0, s0, -1\n\
     bne s0, zero, alu\n\
     li s0, 300\n\
     mem:\n\
     lw t2, 0(s1)\n\
     lw t3, 4(s1)\n\
     addi s0, s0, -1\n\
     bne s0, zero, mem\n\
     ebreak\n"
  in
  let floor_rules =
    match Telemetry.Watchdog.rules_of_string "ipc_floor:0.5" with
    | Ok r -> r
    | Error e -> fail "ipc_floor spec: %s" e
  in
  let jobs =
    Array.init 4 (fun i ->
        Metal_fleet.Fleet.job
          ~label:(Printf.sprintf "two_phase_%d" i)
          ~config:{ Config.default with Config.mem_latency = 8 }
          ~telemetry:true ~telemetry_window:256 ~watch:floor_rules
          (Metal_fleet.Fleet.Asm
             { src = two_phase; origin = 0; mcode = None }))
  in
  let o1 = Metal_fleet.Fleet.run ~domains:1 jobs in
  let n_domains = max 2 (Metal_fleet.Fleet.default_domains ()) in
  let on = Metal_fleet.Fleet.run ~domains:n_domains jobs in
  (match Metal_fleet.Fleet.identical o1 on with
   | Ok () -> ()
   | Error e ->
     fail "fleet telemetry diverges between 1 and %d domains: %s" n_domains e);
  let merged1 =
    Telemetry.Series.to_ndjson (Metal_fleet.Fleet.merge_telemetry o1)
  and mergedn =
    Telemetry.Series.to_ndjson (Metal_fleet.Fleet.merge_telemetry on)
  in
  if merged1 <> mergedn then
    fail "merged telemetry ndjson differs between 1 and %d domains"
      n_domains;
  Printf.printf
    "determinism: merged series + alarms byte-identical on 1 vs %d domains\n"
    n_domains;
  let floor_alarms =
    match o1.(0).Metal_fleet.Fleet.result with
    | Ok ok -> ok.Metal_fleet.Fleet.alarms
    | Error e ->
      fail "two-phase job failed: %s" (Metal_fleet.Fleet.fail_to_string e)
  in
  if floor_alarms = [] then
    fail "memory-bound phase raised no ipc_floor alarms";
  List.iter
    (fun (a : Telemetry.Watchdog.alarm) ->
       if a.Telemetry.Watchdog.rule <> "ipc_floor:0.5" then
         fail "unexpected alarm %s in the ipc_floor scenario"
           a.Telemetry.Watchdog.rule)
    floor_alarms;
  let floor_first =
    List.fold_left
      (fun acc (a : Telemetry.Watchdog.alarm) ->
         min acc a.Telemetry.Watchdog.window)
      max_int floor_alarms
  in
  if floor_first = 0 then
    fail "ipc_floor fired in the first window — the ALU phase should be \
          above the floor";
  Printf.printf
    "ipc_floor:0.5 fired %d times from window %d on (ALU-phase windows \
     0..%d clean)\n"
    (List.length floor_alarms)
    floor_first (floor_first - 1);
  if !telemetry_json then begin
    (* Every value below is cycle-derived and deterministic — ci.sh
       byte-diffs this artifact; wall-clock numbers stay on stdout. *)
    let oc = open_out "BENCH_telemetry.json" in
    Printf.fprintf oc "{\n  \"schema\": \"metal-telemetry-bench-v1\",\n";
    Printf.fprintf oc
      "  \"ping\": {\"window_cycles\": %d, \"windows\": %d, \
       \"total_cycles\": %d, \"instructions\": %d, \"mroutine_exits\": %d, \
       \"mroutine_max\": %d},\n"
      series.Telemetry.Series.window_cycles
      (List.length series.Telemetry.Series.windows)
      (Telemetry.Series.total_cycles series)
      (Telemetry.Series.total_instructions series)
      (List.fold_left
         (fun acc (w : Telemetry.Series.window) -> acc + w.mroutine_exits)
         0 series.Telemetry.Series.windows)
      measured_max;
    Printf.fprintf oc
      "  \"wcet\": {\"entry\": %d, \"static_bound\": %d, \
       \"measured_max\": %d, \"violations\": 0, \"steppers_agree\": true},\n"
      (fst entry_bound) (snd entry_bound) measured_max;
    Printf.fprintf oc
      "  \"ecc_storm\": {\"rule\": \"ecc_storm:2\", \"injections\": 6, \
       \"corrections\": %d, \"alarms\": %d, \"first_window\": %d},\n"
      storm_corrections
      (List.length storm_alarms)
      storm_first;
    Printf.fprintf oc
      "  \"ipc_floor\": {\"rule\": \"ipc_floor:0.5\", \"jobs\": %d, \
       \"alarms_per_job\": %d, \"first_window\": %d, \
       \"fleet_merge_identical\": true}\n"
      (Array.length jobs)
      (List.length floor_alarms)
      floor_first;
    Printf.fprintf oc "}\n";
    close_out oc;
    print_endline "wrote BENCH_telemetry.json"
  end

(* ------------------------------------------------------------------ *)
(* Host microbenchmarks (Bechamel)                                     *)

let host () =
  section "Host microbenchmarks (Bechamel: simulator throughput)";
  let open Bechamel in
  let make_machine () =
    let m = machine () in
    ignore
      (load m "loop:\naddi t0, t0, 1\nslli t1, t0, 3\nxor t2, t1, t0\nj loop\n");
    Machine.set_pc m 0;
    m
  in
  let sim_m = make_machine () in
  let step_test =
    Test.make ~name:"pipeline-step"
      (Staged.stage (fun () -> Pipeline.step sim_m))
  in
  let decode_test =
    let w =
      Encode.encode_exn (Instr.Op { op = Instr.Add; rd = 1; rs1 = 2; rs2 = 3 })
    in
    Test.make ~name:"decode" (Staged.stage (fun () -> ignore (Decode.decode w)))
  in
  let asm_test =
    Test.make ~name:"assemble-20-lines"
      (Staged.stage (fun () ->
           ignore (Metal_asm.Asm.assemble (repeat_lines 20 "addi a0, a0, 1\n"))))
  in
  let synth_test =
    Test.make ~name:"table2"
      (Staged.stage (fun () -> ignore (Metal_synth.Report.table2 ())))
  in
  let tests =
    Test.make_grouped ~name:"metal"
      [ step_test; decode_test; asm_test; synth_test ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.3) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
       match Analyze.OLS.estimates ols with
       | Some [ est ] -> Printf.printf "%-28s %12.1f ns/op\n" name est
       | Some _ | None -> Printf.printf "%-28s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)

let sections =
  [ ("table1", table1); ("table2", table2); ("figure1", figure1);
    ("figure2", figure2); ("transition", transition);
    ("pagetable", pagetable); ("stm", stm); ("uintr", uintr);
    ("isolation", isolation); ("ablation", ablation); ("nested", nested);
    ("cfi", cfi); ("pkeys", pkeys); ("sidechannel", sidechannel);
    ("simperf", simperf); ("fleet", fleet); ("trace", trace_obs);
    ("profile", profile_bench); ("verify", verify_bench);
    ("inject", inject_bench); ("telemetry", telemetry_bench);
    ("host", host) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
         if a = "--json" then begin
           simperf_json := true;
           fleet_json := true;
           profile_json := true;
           inject_json := true;
           telemetry_json := true;
           false
         end
         else true)
      args
  in
  let requested =
    match args with
    | _ :: _ as picks -> picks
    | [] -> List.map fst sections
  in
  print_endline
    "Metal: An Open Architecture for Developing Processor Features\n\
     benchmark harness - regenerates the paper's tables, figures and claims";
  List.iter
    (fun name ->
       match List.assoc_opt name sections with
       | Some f -> f ()
       | None ->
         Printf.eprintf "unknown section %S (known: %s)\n" name
           (String.concat ", " (List.map fst sections));
         exit 1)
    requested
