(* Pipeline edge cases: interrupt masking and re-arming, delegation
   corners, Metal-mode legality, interception of control flow,
   interlocks, TLB instructions under pressure, latency configs and
   counter invariants. *)

open Metal_cpu

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let boot ?(config = Config.default) ?mcode src =
  let m = Machine.create ~config:(Tutil.tier_config config) () in
  let img = Metal_asm.Asm.assemble_exn src in
  (match Machine.load_image m img with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (match mcode with
   | None -> ()
   | Some s ->
     let mi = Metal_asm.Asm.assemble_exn s in
     (match Machine.load_mcode m mi with
      | Ok () -> ()
      | Error e -> Alcotest.fail e));
  Machine.set_pc m 0;
  m

let run_to_ebreak ?(max_cycles = 200_000) m =
  match Pipeline.run m ~max_cycles with
  | Some (Machine.Halt_ebreak { pc; _ }) -> pc
  | Some h -> Alcotest.fail (Machine.halted_to_string h)
  | None -> Alcotest.fail "cycle budget exhausted"

let reg m name =
  match Reg.of_string name with
  | Some r -> Machine.get_reg m r
  | None -> Alcotest.fail name

(* ------------------------------------------------------------------ *)
(* Interrupt corners *)

let tick_mcode =
  ".mentry 2, tick\ntick:\naddi s0, s0, 1\nwmr m14, t6\nli t6, 1\n\
   mcsrw int_pending, t6\nrmr t6, m14\nmexit\n"

let spin_200 = "li t0, 200\nl: addi t0, t0, -1\nbnez t0, l\nebreak\n"

let test_interrupt_masked () =
  let m = boot ~mcode:tick_mcode spin_200 in
  Machine.install_interrupt_handler m ~irq:0 ~entry:2;
  (* int_enable left at 0: the pending bit must sit there unserved. *)
  Machine.ctrl_write m Csr.timer_cmp 50;
  ignore (run_to_ebreak m);
  check_int "handler never ran" 0 (reg m "s0");
  check_bool "still pending" true
    (Metal_hw.Intc.pending m.Machine.intc land 1 = 1)

let test_interrupt_without_handler () =
  let m = boot ~mcode:tick_mcode spin_200 in
  (* enabled but no routed handler: not delivered, machine unharmed *)
  Machine.ctrl_write m Csr.int_enable 1;
  Machine.ctrl_write m Csr.timer_cmp 50;
  ignore (run_to_ebreak m);
  check_int "handler never ran" 0 (reg m "s0")

let test_timer_rearm_periodic () =
  (* The handler re-arms the timer; we expect several ticks. *)
  let mcode =
    ".mentry 2, tick\ntick:\naddi s0, s0, 1\nwmr m14, t6\nli t6, 1\n\
     mcsrw int_pending, t6\nmcsrr t6, cycle\naddi t6, t6, 100\n\
     mcsrw timer_cmp, t6\nrmr t6, m14\nmexit\n"
  in
  let m = boot ~mcode "li t0, 1000\nl: addi t0, t0, -1\nbnez t0, l\nebreak\n" in
  Machine.install_interrupt_handler m ~irq:0 ~entry:2;
  Machine.ctrl_write m Csr.int_enable 1;
  Machine.ctrl_write m Csr.timer_cmp 100;
  ignore (run_to_ebreak m);
  check_bool
    (Printf.sprintf "many ticks (%d)" (reg m "s0"))
    true
    (reg m "s0" >= 10)

let test_interrupt_resumes_precisely () =
  (* The loop's final register state must be unaffected by when the
     interrupt hits. *)
  let baseline = boot ~mcode:tick_mcode "li t0, 100\nli s1, 0\n\
                                         l: addi s1, s1, 3\naddi t0, t0, -1\n\
                                         bnez t0, l\nebreak\n" in
  ignore (run_to_ebreak baseline);
  let m = boot ~mcode:tick_mcode "li t0, 100\nli s1, 0\n\
                                  l: addi s1, s1, 3\naddi t0, t0, -1\n\
                                  bnez t0, l\nebreak\n" in
  Machine.install_interrupt_handler m ~irq:0 ~entry:2;
  Machine.ctrl_write m Csr.int_enable 1;
  Machine.ctrl_write m Csr.timer_cmp 77;
  ignore (run_to_ebreak m);
  check_int "loop result identical" (reg baseline "s1") (reg m "s1");
  check_int "interrupt did run" 1 (reg m "s0")

let test_interrupt_priority () =
  (* Two lines pending: the lowest-numbered line is delivered first. *)
  let mcode =
    ".mentry 2, h0\nh0:\nwmr m14, t6\nli t6, 1\nmcsrw int_pending, t6\n\
     rmr t6, m14\nslli s0, s0, 4\nori s0, s0, 1\nmexit\n\
     .mentry 3, h1\nh1:\nwmr m14, t6\nli t6, 2\nmcsrw int_pending, t6\n\
     rmr t6, m14\nslli s0, s0, 4\nori s0, s0, 2\nmexit\n"
  in
  let m = boot ~mcode spin_200 in
  Machine.install_interrupt_handler m ~irq:0 ~entry:2;
  Machine.install_interrupt_handler m ~irq:1 ~entry:3;
  Machine.ctrl_write m Csr.int_enable 3;
  Metal_hw.Intc.raise_irq m.Machine.intc 1;
  Metal_hw.Intc.raise_irq m.Machine.intc 0;
  ignore (run_to_ebreak m);
  (* line 0 first, then line 1: s0 = (0<<4|1)<<4|2 = 0x12 *)
  check_int "delivery order" 0x12 (reg m "s0")

let test_branch_not_taken_is_free () =
  (* Not-taken branches flow through the pipe like ALU ops. *)
  let with_branches =
    "li t0, 1\nli t1, 2\n"
    ^ String.concat "" (List.init 40 (fun _ -> "beq t0, t1, target\n"))
    ^ "target:\nebreak\n"
  in
  let with_nops =
    "li t0, 1\nli t1, 2\n"
    ^ String.concat "" (List.init 40 (fun _ -> "nop\n"))
    ^ "target:\nebreak\n"
  in
  let a = boot with_branches in
  ignore (run_to_ebreak a);
  let b = boot with_nops in
  ignore (run_to_ebreak b);
  check_int "not-taken branch = nop cost" b.Machine.stats.Stats.cycles
    a.Machine.stats.Stats.cycles

(* ------------------------------------------------------------------ *)
(* Delegation corners *)

let test_breakpoint_delegated () =
  let mcode =
    ".mentry 4, bp\nbp:\naddi s2, s2, 1\nrmr t0, m31\naddi t0, t0, 4\n\
     wmr m31, t0\nmexit\n"
  in
  let m = boot ~mcode "ebreak\nli s3, 5\nebreak\n" in
  Machine.install_handler m Cause.Breakpoint ~entry:4;
  (* first ebreak is delegated and skipped; then we remove the handler
     so the second one halts. *)
  let run () =
    match Pipeline.run m ~max_cycles:1000 with
    | Some (Machine.Halt_ebreak _) -> ()
    | Some h -> Alcotest.fail (Machine.halted_to_string h)
    | None -> Alcotest.fail "no halt"
  in
  (* disable delegation after first delivery via a bounded run *)
  let steps = ref 0 in
  while reg m "s2" = 0 && !steps < 100 do
    Pipeline.step m;
    incr steps
  done;
  Machine.ctrl_write m (Csr.exc_handler Cause.Breakpoint) 0;
  run ();
  check_int "handler saw the first ebreak" 1 (reg m "s2");
  check_int "execution continued past it" 5 (reg m "s3")

let test_misaligned_fetch_via_jalr () =
  (* jalr clears bit 0 but bit 1 makes the target misaligned. *)
  let m = boot "li t0, 0x102\njr t0\nebreak\n" in
  match Pipeline.run m ~max_cycles:1000 with
  | Some (Machine.Halt_fault { cause = Cause.Misaligned_fetch; _ }) -> ()
  | Some h -> Alcotest.fail (Machine.halted_to_string h)
  | None -> Alcotest.fail "no halt"

let test_fetch_beyond_memory () =
  let m = boot "li t0, 0x3FFFF0\njr t0\nebreak\n" in
  (* inside RAM but holds zeros -> illegal; beyond RAM -> access fault *)
  let m2 = boot "li t0, 0x10000000\njr t0\nebreak\n" in
  (match Pipeline.run m ~max_cycles:1000 with
   | Some (Machine.Halt_fault { cause = Cause.Illegal_instruction; _ }) -> ()
   | Some h -> Alcotest.fail (Machine.halted_to_string h)
   | None -> Alcotest.fail "no halt");
  match Pipeline.run m2 ~max_cycles:1000 with
  | Some (Machine.Halt_fault { cause = Cause.Access_fault; _ }) -> ()
  | Some h -> Alcotest.fail (Machine.halted_to_string h)
  | None -> Alcotest.fail "no halt"

(* ------------------------------------------------------------------ *)
(* Metal-mode legality and transitions *)

let test_menter_inside_mroutine_fatal () =
  let mcode = ".mentry 0, f\nf:\nmenter 0\nmexit\n" in
  let m = boot ~mcode "menter 0\nebreak\n" in
  match Pipeline.run m ~max_cycles:1000 with
  | Some (Machine.Halt_metal_fault { cause = Cause.Illegal_instruction; _ }) ->
    ()
  | Some h -> Alcotest.fail (Machine.halted_to_string h)
  | None -> Alcotest.fail "no halt"

let test_mexit_in_normal_mode_illegal () =
  let m = boot "mexit\nebreak\n" in
  match Pipeline.run m ~max_cycles:1000 with
  | Some (Machine.Halt_fault { cause = Cause.Illegal_instruction; _ }) -> ()
  | Some h -> Alcotest.fail (Machine.halted_to_string h)
  | None -> Alcotest.fail "no halt"

let test_chained_menters () =
  let mcode =
    ".mentry 0, a\na:\naddi s0, s0, 1\nmexit\n\
     .mentry 1, b\nb:\nslli s0, s0, 1\nmexit\n"
  in
  let m =
    boot ~mcode
      "li s0, 1\nmenter 0\nmenter 1\nmenter 0\nmenter 1\nmenter 0\nebreak\n"
  in
  ignore (run_to_ebreak m);
  (* ((1+1)*2+1)*2+1 = 11 *)
  check_int "chain result" 11 (reg m "s0");
  check_int "five entries" 5 m.Machine.stats.Stats.menters

let test_wmr_mexit_interlock () =
  (* wmr m31 immediately before mexit: the interlock must make the new
     return address visible. *)
  let mcode = ".mentry 0, f\nf:\nli t0, 0x100\nwmr m31, t0\nmexit\n" in
  let m =
    boot ~mcode
      "menter 0\nli s0, 1\nebreak\n.org 0x100\ntarget:\nli s0, 2\nebreak\n"
  in
  ignore (run_to_ebreak m);
  check_int "redirected return" 2 (reg m "s0");
  check_bool "interlock stalled" true
    (m.Machine.stats.Stats.interlock_stalls >= 1)

let test_rmr_after_wmr () =
  let mcode =
    ".mentry 0, f\nf:\nli t0, 0xAB\nwmr m7, t0\nrmr s0, m7\n\
     li t1, 0xCD\nwmr m7, t1\nnop\nnop\nrmr s1, m7\nmexit\n"
  in
  let m = boot ~mcode "menter 0\nebreak\n" in
  ignore (run_to_ebreak m);
  check_int "back-to-back wmr/rmr" 0xAB (reg m "s0");
  check_int "spaced wmr/rmr" 0xCD (reg m "s1")

let test_mroutine_console_mmio () =
  (* mroutines can drive devices through physst. *)
  let mcode =
    ".mentry 0, say\nsay:\nli t0, 0xF0000000\nli t1, 'M'\n\
     physst t1, 0(t0)\nmexit\n"
  in
  let m = boot ~mcode "menter 0\nebreak\n" in
  let console = Metal_hw.Devices.Console.create ~base:0xF0000000 in
  Metal_hw.Bus.attach m.Machine.bus (Metal_hw.Devices.Console.device console);
  ignore (run_to_ebreak m);
  Alcotest.(check string) "console" "M" (Metal_hw.Devices.Console.output console)

let test_mld_out_of_range_fatal () =
  let mcode = ".mentry 0, f\nf:\nli t0, 0x4000\nmld s0, 0(t0)\nmexit\n" in
  let m = boot ~mcode "menter 0\nebreak\n" in
  match Pipeline.run m ~max_cycles:1000 with
  | Some (Machine.Halt_metal_fault { cause = Cause.Access_fault; _ }) -> ()
  | Some h -> Alcotest.fail (Machine.halted_to_string h)
  | None -> Alcotest.fail "no halt"

let test_gprw_x0_ignored () =
  let mcode = ".mentry 0, f\nf:\nli t0, 0\nli t1, 99\ngprw t0, t1\nmexit\n" in
  let m = boot ~mcode "menter 0\nadd s0, zero, zero\nebreak\n" in
  ignore (run_to_ebreak m);
  check_int "x0 unchanged" 0 (reg m "s0")

(* ------------------------------------------------------------------ *)
(* Interception of control flow *)

let icept_arm m cls entry =
  Machine.ctrl_write m (Csr.icept_handler (Icept.code cls)) (entry + 1);
  Machine.ctrl_write m Csr.icept_enable 1

let test_intercept_jal_emulates_jump () =
  (* The handler performs the jump itself (target in m28, link rd in
     m26), adding instrumentation. *)
  let mcode =
    ".mentry 6, onjal\nonjal:\naddi s10, s10, 1\n\
     wmr m16, t0\nwmr m17, t1\n\
     rmr t0, m26\nbeqz t0, nolink\nrmr t1, m31\naddi t1, t1, 4\n\
     gprw t0, t1\nnolink:\nrmr t0, m28\nwmr m31, t0\n\
     rmr t0, m16\nrmr t1, m17\nmexit\n"
  in
  let m =
    boot ~mcode "li s0, 0\ncall f\nli s1, 7\nebreak\nf:\naddi s0, s0, 3\nret\n"
  in
  icept_arm m Icept.Jal_class 6;
  ignore (run_to_ebreak m);
  check_int "call+ret still work" 3 (reg m "s0");
  check_int "fallthrough ran" 7 (reg m "s1");
  check_int "jal intercepted once" 1 (reg m "s10")

let test_intercept_branch () =
  (* Emulate branches: m28 holds the taken-target; the handler decides
     from the recorded instruction whether to take it.  Here it simply
     always takes the branch — turning bne into an unconditional
     jump — to prove the redirect path works. *)
  let mcode =
    ".mentry 6, onbr\nonbr:\naddi s10, s10, 1\nwmr m16, t0\n\
     rmr t0, m28\nwmr m31, t0\nrmr t0, m16\nmexit\n"
  in
  let m =
    boot ~mcode
      "li t0, 1\nli t1, 1\nbne t0, t1, away\nli s0, 1\nebreak\n\
       away:\nli s0, 2\nebreak\n"
  in
  icept_arm m Icept.Branch_class 6;
  ignore (run_to_ebreak m);
  check_int "branch forced taken" 2 (reg m "s0");
  check_int "intercepted" 1 (reg m "s10")

let test_intercept_system_class () =
  (* Emulate ecall entirely in an mroutine: a0 <- a0 * 2 + 1. *)
  (* ebreak shares the system class, so the handler pattern-matches
     the recorded instruction word: ecall is emulated and skipped;
     ebreak un-intercepts the class and retries (the paper's "patch an
     insecure instruction at runtime", in reverse). *)
  let mcode =
    {|.mentry 6, onsys
onsys:
    wmr m16, t0
    wmr m17, t1
    rmr t0, m29
    li t1, 0x00100073
    beq t0, t1, onsys_ebreak
    slli a0, a0, 1
    addi a0, a0, 1
    rmr t0, m31
    addi t0, t0, 4
    wmr m31, t0
    rmr t0, m16
    rmr t1, m17
    mexit
onsys_ebreak:
    li t0, 5
    iceptclr t0
    rmr t0, m16
    rmr t1, m17
    mexit
|}
  in
  let m = boot ~mcode "li a0, 20\necall\nmv s0, a0\nebreak\n" in
  icept_arm m Icept.System_class 6;
  ignore (run_to_ebreak m);
  check_int "ecall emulated" 41 (reg m "s0");
  check_int "no exception taken" 0 m.Machine.stats.Stats.exceptions

(* ------------------------------------------------------------------ *)
(* TLB instructions under pressure *)

let test_tlb_instruction_pressure () =
  (* Fill more entries than the TLB holds via tlbw in a loop; the
     machine's round-robin TLB keeps the most recent N. *)
  let mcode =
    {|.mentry 0, fill
fill:
    # a0 = count; insert identity mappings for pages 0..count-1
    li t0, 0
floop:
    slli t1, t0, 12
    slli t2, t0, 12
    ori t2, t2, 0xE
    tlbw t1, t2
    addi t0, t0, 1
    bne t0, a0, floop
    mexit
|}
  in
  let m = boot ~mcode "li a0, 40\nmenter 0\nebreak\n" in
  ignore (run_to_ebreak m);
  let entries = Metal_hw.Tlb.entries m.Machine.tlb in
  check_int "capacity bounded" (Metal_hw.Tlb.capacity m.Machine.tlb)
    (List.length entries);
  (* The oldest pages were evicted round-robin; the newest survive. *)
  check_bool "newest present" true
    (Metal_hw.Tlb.lookup m.Machine.tlb ~asid:0 ~vpn:39 <> None);
  check_bool "oldest evicted" true
    (Metal_hw.Tlb.lookup m.Machine.tlb ~asid:0 ~vpn:0 = None)

let test_tlbflush_selectivity () =
  let mcode =
    {|.mentry 0, setup
setup:
    li t0, 0x1014          # vpn 1, asid 1
    li t1, 0x100E
    tlbw t0, t1
    li t0, 0x2024          # vpn 2, asid 2
    li t1, 0x200E
    tlbw t0, t1
    li t0, 0x3001          # vpn 3, global
    li t1, 0x300E
    tlbw t0, t1
    li t2, 1
    tlbflush t2            # drop asid 1 only
    mexit
|}
  in
  let m = boot ~mcode "menter 0\nebreak\n" in
  ignore (run_to_ebreak m);
  check_bool "asid1 gone" true
    (Metal_hw.Tlb.lookup m.Machine.tlb ~asid:1 ~vpn:1 = None);
  check_bool "asid2 kept" true
    (Metal_hw.Tlb.lookup m.Machine.tlb ~asid:2 ~vpn:2 <> None);
  check_bool "global kept" true
    (Metal_hw.Tlb.lookup m.Machine.tlb ~asid:7 ~vpn:3 <> None)

(* ------------------------------------------------------------------ *)
(* Latency configuration and counters *)

let test_mem_latency_scales () =
  let prog =
    "li t0, 0x1000\nli t1, 50\nl:\nlw t2, 0(t0)\naddi t1, t1, -1\n\
     bnez t1, l\nebreak\n"
  in
  let fast = boot prog in
  ignore (run_to_ebreak fast);
  let slow =
    boot ~config:{ Config.default with Config.mem_latency = 5 } prog
  in
  ignore (run_to_ebreak slow);
  let delta =
    slow.Machine.stats.Stats.cycles - fast.Machine.stats.Stats.cycles
  in
  (* 50 loads x 5 extra cycles (plus the fetch path is unaffected:
     instruction fetches are not data accesses). *)
  check_int "memory latency charged per access" 250 delta;
  check_int "stall accounting" 250 slow.Machine.stats.Stats.mem_stall_cycles

let test_counter_invariants () =
  let m =
    boot "li t0, 30\nl:\naddi t0, t0, -1\nbnez t0, l\nebreak\n"
  in
  ignore (run_to_ebreak m);
  let s = m.Machine.stats in
  check_bool "instructions <= cycles" true
    (s.Stats.instructions <= s.Stats.cycles);
  check_bool "ipc sane" true
    (float_of_int s.Stats.instructions /. float_of_int s.Stats.cycles > 0.4);
  (* ctrl counters agree with stats *)
  check_int "cycle csr" s.Stats.cycles (Machine.ctrl_read m Csr.cycle);
  check_int "instret csr" s.Stats.instructions
    (Machine.ctrl_read m Csr.instret)

let test_pkey_fetch_unaffected () =
  (* Page keys gate loads/stores, not execution. *)
  let m = Machine.create () in
  (match Metal_progs.Pagetable.install m
           { Metal_progs.Pagetable.os_fault_entry = 0 } with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let alloc = Metal_kernel.Frame_alloc.create ~base:0x100000 ~limit:0x200000 in
  let mem = Metal_hw.Bus.memory m.Machine.bus in
  let pt = Metal_kernel.Page_table.create ~mem ~alloc in
  (* code page with pkey 3, read+write disabled for key 3 *)
  (match Metal_kernel.Page_table.map pt ~vaddr:0 ~paddr:0 ~pkey:3
           Metal_kernel.Page_table.rx with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Metal_progs.Pagetable.set_root m (Metal_kernel.Page_table.root pt);
  let img = Metal_asm.Asm.assemble_exn "li s0, 77\nebreak\n" in
  (match Machine.load_image m img with Ok () -> () | Error e -> Alcotest.fail e);
  Machine.set_pc m 0;
  Machine.ctrl_write m Csr.pkey_perms 0xC0;  (* key 3 rd/wr disabled *)
  Machine.ctrl_write m Csr.paging 1;
  ignore (run_to_ebreak m);
  check_int "executed despite disabled key" 77 (reg m "s0")

(* ------------------------------------------------------------------ *)
(* Translation and alignment faults *)

type fault_check = Reg of string * int | Mem of int * int

type fault_expect =
  | Fault of { metal : bool; cause : Cause.t; pc : int option; info : int;
               vaddr : int }
      (** [pc = None]: the instruction at label [fault] *)
  | Clean of fault_check list

(* Every row runs on a fresh machine with the hardware walker over one
   page table: code identity-mapped at page 0; 0x10000 read-only;
   0x11000 write-only; 0x12000 unmapped (its second-level entry is
   empty); 0x800000 unmapped (no second-level table); 0x13000 under
   page key 1 (read disabled); 0x14000 under key 2 (write disabled). *)
let fault_matrix_rows =
  let fault ?(metal = false) ?pc cause ~info ~vaddr =
    Fault { metal; cause; pc; info; vaddr }
  in
  let keys_mcode = ".mentry 0, f\nf:\nlw a0, 0(t0)\nsw t1, 0(t2)\nmexit\n" in
  let bad_mcode = ".mentry 0, f\nf:\nfault: lw a0, 0(t0)\nmexit\n" in
  [ ("fetch missing X", true, None, "li t0, 0x10000\njr t0\n",
     fault Cause.Page_fault_fetch ~pc:0x10000 ~info:0x10000 ~vaddr:0x10000);
    ("fetch no mapping", true, None, "li t0, 0x12000\njr t0\n",
     fault Cause.Page_fault_fetch ~pc:0x12000 ~info:0x12000 ~vaddr:0x12000);
    ("load missing R", true, None,
     "li t0, 0x11000\nfault: lw a0, 8(t0)\nebreak\n",
     fault Cause.Page_fault_load ~info:0x11008 ~vaddr:0x11008);
    ("load no mapping", true, None,
     "li t0, 0x12000\nfault: lw a0, 4(t0)\nebreak\n",
     fault Cause.Page_fault_load ~info:0x12004 ~vaddr:0x12004);
    ("load no table", true, None,
     "li t0, 0x800000\nfault: lbu a0, 3(t0)\nebreak\n",
     fault Cause.Page_fault_load ~info:0x800003 ~vaddr:0x800003);
    ("store missing W", true, None,
     "li t0, 0x10000\nli t1, 5\nfault: sw t1, 12(t0)\nebreak\n",
     fault Cause.Page_fault_store ~info:0x1000C ~vaddr:0x1000C);
    ("store no mapping", true, None,
     "li t0, 0x12000\nli t1, 5\nfault: sb t1, 1(t0)\nebreak\n",
     fault Cause.Page_fault_store ~info:0x12001 ~vaddr:0x12001);
    ("load read-disabled key", true, None,
     "li t0, 0x13000\nfault: lw a0, 0(t0)\nebreak\n",
     fault Cause.Pkey_violation_load ~info:0x13000 ~vaddr:0x13000);
    ("store write-disabled key", true, None,
     "li t0, 0x14000\nli t1, 5\nfault: sw t1, 4(t0)\nebreak\n",
     fault Cause.Pkey_violation_store ~info:0x14004 ~vaddr:0x14004);
    ("load write-disabled key", true, None,
     "li t0, 0x14000\nlw a0, 0(t0)\nebreak\n", Clean [ Reg ("a0", 4321) ]);
    ("store read-disabled key", true, None,
     "li t0, 0x13000\nli t1, 9\nsw t1, 8(t0)\nebreak\n",
     Clean [ Mem (0x23008, 9) ]);
    ("metal skips keys", true, Some keys_mcode,
     "li t0, 0x13000\nli t2, 0x14000\nli t1, 5\nmenter 0\nebreak\n",
     Clean [ Reg ("a0", 1234); Mem (0x24000, 5) ]);
    ("metal page fault fatal", true, Some bad_mcode,
     "li t0, 0x12000\nmenter 0\nebreak\n",
     fault ~metal:true Cause.Page_fault_load ~info:0x12000 ~vaddr:0x12000);
    ("paging off", false, None,
     "li t0, 0x12000\nlw a0, 0(t0)\nli t0, 0x10000\nli t1, 6\nsw t1, 0(t0)\n\
      ebreak\n",
     Clean [ Reg ("a0", 77); Mem (0x10000, 6) ]);
    ("misaligned load", true, None,
     "li t0, 0x12000\nfault: lw a0, 2(t0)\nebreak\n",
     fault Cause.Misaligned_load ~info:0x12002 ~vaddr:0);
    ("misaligned store", true, None,
     "li t0, 0x12000\nli t1, 5\nfault: sh t1, 1(t0)\nebreak\n",
     fault Cause.Misaligned_store ~info:0x12001 ~vaddr:0);
    ("misaligned fetch", true, None, "li t0, 0x102\njr t0\n",
     fault Cause.Misaligned_fetch ~pc:0x102 ~info:0x102 ~vaddr:0) ]

let run_fault_row ~paging ?mcode src =
  let m = boot ?mcode src in
  let alloc = Metal_kernel.Frame_alloc.create ~base:0x100000 ~limit:0x200000 in
  let mem = Metal_hw.Bus.memory m.Machine.bus in
  let pt = Metal_kernel.Page_table.create ~mem ~alloc in
  let map ?pkey vaddr paddr perms =
    match Metal_kernel.Page_table.map pt ~vaddr ~paddr ?pkey perms with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  in
  map 0 0 Metal_kernel.Page_table.rwx;
  map 0x10000 0x20000 Metal_kernel.Page_table.ro;
  map 0x11000 0x21000
    { Metal_kernel.Page_table.r = false; w = true; x = false };
  map ~pkey:1 0x13000 0x23000 Metal_kernel.Page_table.rw;
  map ~pkey:2 0x14000 0x24000 Metal_kernel.Page_table.rw;
  Machine.write_word m 0x12000 77;
  Machine.write_word m 0x23000 1234;
  Machine.write_word m 0x24000 4321;
  Machine.ctrl_write m Csr.pt_root (Metal_kernel.Page_table.root pt);
  Machine.ctrl_write m Csr.hw_walker 1;
  Machine.ctrl_write m Csr.pkey_perms 0x24;  (* key 1 read, key 2 write *)
  if paging then Machine.ctrl_write m Csr.paging 1;
  (m, Pipeline.run m ~max_cycles:10_000)

let test_translation_fault_matrix () =
  let cause = Alcotest.testable (Fmt.of_to_string Cause.to_string) ( = ) in
  List.iter
    (fun (name, paging, mcode, src, expect) ->
       let m, halt = run_fault_row ~paging ?mcode src in
       let what s = name ^ ": " ^ s in
       match (expect, halt) with
       | ( Fault { metal; cause = c; pc; info; vaddr },
           Some
             ( Machine.Halt_fault { cause = got; pc = gpc; info = ginfo }
             | Machine.Halt_metal_fault { cause = got; pc = gpc; info = ginfo }
             ) ) ->
         let label =
           Metal_asm.Image.find_symbol
             (Metal_asm.Asm.assemble_exn (Option.value ~default:src mcode))
             "fault"
         in
         let pc =
           match (pc, label) with
           | Some pc, _ | None, Some pc -> pc
           | None, None -> Alcotest.fail (what "no fault label")
         in
         check_bool (what "metal fault") metal
           (match halt with
            | Some (Machine.Halt_metal_fault _) -> true
            | _ -> false);
         Alcotest.check cause (what "cause") c got;
         check_int (what "pc") pc gpc;
         check_int (what "info") info ginfo;
         check_int (what "fault_vaddr") vaddr m.Machine.fault_vaddr
       | Clean checks, Some (Machine.Halt_ebreak _) ->
         List.iter
           (function
             | Reg (r, v) -> check_int (what r) v (reg m r)
             | Mem (pa, v) ->
               check_int (what (Printf.sprintf "mem 0x%x" pa)) v
                 (Machine.read_word m pa))
           checks
       | _, Some h -> Alcotest.fail (what (Machine.halted_to_string h))
       | _, None -> Alcotest.fail (what "no halt"))
    fault_matrix_rows

(* ------------------------------------------------------------------ *)
(* Cache timing and MRAM bypass (Section 2 / Section 4) *)

let icache_cfg =
  { Metal_hw.Cache.lines = 16; line_bytes = 16; miss_penalty = 10 }

let test_icache_warm_vs_cold () =
  let config = { Config.default with Config.icache = Some icache_cfg } in
  (* A loop body executes the same lines repeatedly: only the first
     iteration pays miss penalties. *)
  let m =
    boot ~config "li t0, 50\nl:\naddi t1, t1, 1\naddi t0, t0, -1\n\
                  bnez t0, l\nebreak\n"
  in
  ignore (run_to_ebreak m);
  let c = Option.get m.Machine.icache in
  check_bool "misses bounded by footprint" true (Metal_hw.Cache.misses c <= 3);
  check_bool "lots of hits" true (Metal_hw.Cache.hits c > 100)

let test_dedicated_mram_bypasses_icache () =
  (* Running a long mroutine must not touch the instruction cache at
     all: "Accesses to the RAM do not alter processor caches". *)
  let config = { Config.default with Config.icache = Some icache_cfg } in
  let body = String.concat "" (List.init 40 (fun _ -> "addi t1, t1, 1\n")) in
  let m = boot ~config ~mcode:(".mentry 0, f\nf:\n" ^ body ^ "mexit\n")
      "menter 0\nebreak\n" in
  let c = Option.get m.Machine.icache in
  ignore (run_to_ebreak m);
  let resident = Metal_hw.Cache.resident_lines c in
  (* Only the two normal-mode instructions' line(s) are resident. *)
  check_bool
    (Printf.sprintf "mroutine left no cache footprint (%d lines)" resident)
    true (resident <= 2)

let test_main_memory_mroutines_pollute_icache () =
  let config =
    { Config.default with
      Config.icache = Some icache_cfg;
      Config.mram_backing = Config.Main_memory { fetch_penalty = 10 } }
  in
  let body = String.concat "" (List.init 40 (fun _ -> "addi t1, t1, 1\n")) in
  let m = boot ~config ~mcode:(".mentry 0, f\nf:\n" ^ body ^ "mexit\n")
      "menter 0\nebreak\n" in
  let c = Option.get m.Machine.icache in
  ignore (run_to_ebreak m);
  check_bool "PALcode-style routine fills the cache" true
    (Metal_hw.Cache.resident_lines c > 8)

let test_dcache_hit_miss () =
  let config =
    { Config.default with
      Config.dcache =
        Some { Metal_hw.Cache.lines = 8; line_bytes = 16; miss_penalty = 7 } }
  in
  let m =
    boot ~config
      "li t0, 0x1000\nli t1, 20\nl:\nlw t2, 0(t0)\naddi t1, t1, -1\n\
       bnez t1, l\nebreak\n"
  in
  ignore (run_to_ebreak m);
  let c = Option.get m.Machine.dcache in
  check_int "one data miss" 1 (Metal_hw.Cache.misses c);
  check_int "rest hit" 19 (Metal_hw.Cache.hits c);
  check_int "stall accounting" 7 m.Machine.stats.Stats.mem_stall_cycles

(* ------------------------------------------------------------------ *)
(* Edge-case regressions: segment-boundary mexit, interception under a
   load-use stall, and MRAM reconfiguration racing the predecode
   cache. *)

(* [mexit] as the very last instruction of the MRAM code segment.  The
   fetch unit walks sequentially past the routine before the mexit
   redirect resolves; that speculative fetch lands outside the segment
   and must be squashed, not turned into a fetch fault.  Exercised
   under both transition styles and both steppers. *)
let test_mexit_at_mram_segment_end () =
  let code_bytes = Config.default.Config.mram_code_words * 4 in
  let tail_org = code_bytes - 8 in
  let mcode =
    Printf.sprintf ".org %d\n.mentry 1, tail\ntail:\naddi s5, s5, 1\nmexit\n"
      tail_org
  in
  let run ~transition ~predecode =
    let config = { Config.default with Config.transition; predecode } in
    let m = boot ~config ~mcode "menter 1\nmenter 1\nebreak\n" in
    ignore (run_to_ebreak m);
    check_int "routine ran twice" 2 (reg m "s5");
    m.Machine.stats.Stats.cycles
  in
  List.iter
    (fun transition ->
       let fast = run ~transition ~predecode:true in
       let slow = run ~transition ~predecode:false in
       check_int "predecode timing-invariant at segment end" slow fast)
    [ Config.Fast_replacement; Config.Trap_flush ]

(* An intercepted store whose value operand is produced by the load
   directly before it.  Operand capture (m27/m28) happens at decode, so
   the interception interlock must hold the store until the load writes
   back — a stale capture would hand the handler the old register
   value. *)
let test_intercept_during_load_use_stall () =
  let mcode =
    ".mentry 6, onst\nonst:\naddi s10, s10, 1\nwmr m16, t0\nwmr m17, t1\n\
     rmr t0, m28\nrmr t1, m27\nphysst t1, 0(t0)\n\
     rmr t0, m31\naddi t0, t0, 4\nwmr m31, t0\n\
     rmr t0, m16\nrmr t1, m17\nmexit\n"
  in
  let src =
    "li t3, 0x1000\nli t0, 0xBEE\nsw t0, 0(t3)\nlw t1, 0(t3)\n\
     sw t1, 4(t3)\nlw s0, 4(t3)\nebreak\n"
  in
  let run ~predecode =
    let config = { Config.default with Config.predecode } in
    let m = boot ~config ~mcode src in
    icept_arm m Icept.Store_class 6;
    ignore (run_to_ebreak m);
    check_int "loaded value captured, not stale" 0xBEE (reg m "s0");
    check_int "both stores intercepted" 2 (reg m "s10");
    check_bool "interception interlock engaged" true
      (m.Machine.stats.Stats.interlock_stalls >= 1);
    m.Machine.stats.Stats.cycles
  in
  check_int "predecode timing-invariant under interlock"
    (run ~predecode:false) (run ~predecode:true)

(* Host-side MRAM reconfiguration between runs: the predecode cache
   holds Metal-mode entries keyed by the MRAM version, so new code at
   an already-executed offset must be picked up, never served stale.
   Covers both reconfiguration paths ([load_image] overwrite and
   [set_entry] retarget). *)
let test_mram_reconfig_vs_cached_fetch () =
  let resume m =
    m.Machine.halted <- None;
    Machine.set_pc m 0;
    ignore (run_to_ebreak m)
  in
  let overwrite predecode =
    let config = { Config.default with Config.predecode } in
    let m =
      boot ~config ~mcode:".mentry 0, f\nf:\nli s0, 111\nmexit\n"
        "menter 0\nebreak\n"
    in
    ignore (run_to_ebreak m);
    check_int "original routine ran" 111 (reg m "s0");
    let v0 = Metal_hw.Mram.version m.Machine.mram in
    let patch = Metal_asm.Asm.assemble_exn "li s0, 222\nmexit\n" in
    (match Metal_hw.Mram.load_image m.Machine.mram patch with
     | Ok () -> ()
     | Error e -> Alcotest.fail e);
    check_bool "load_image bumps version" true
      (Metal_hw.Mram.version m.Machine.mram > v0);
    resume m;
    reg m "s0"
  in
  check_int "overwritten code executes (fast)" 222 (overwrite true);
  check_int "overwritten code executes (oracle)" 222 (overwrite false);
  (* Additive path: registering a new entry bumps the version too, so
     the already-predecoded entry-0 code must refill (and still run
     right) and the fresh entry must be reachable. *)
  let extend predecode =
    let config = { Config.default with Config.predecode } in
    let m =
      boot ~config ~mcode:".mentry 0, f\nf:\nli s0, 111\nmexit\n"
        "menter 0\nebreak\n"
    in
    ignore (run_to_ebreak m);
    check_int "entry 0 ran" 111 (reg m "s0");
    let v0 = Metal_hw.Mram.version m.Machine.mram in
    let extra =
      Metal_asm.Asm.assemble_exn
        ".org 0x100\n.mentry 1, g\ng:\naddi s0, s0, 1\nmexit\n"
    in
    (match Metal_hw.Mram.load_image m.Machine.mram extra with
     | Ok () -> ()
     | Error e -> Alcotest.fail e);
    check_bool "additive load_image bumps version" true
      (Metal_hw.Mram.version m.Machine.mram > v0);
    let prog2 = Metal_asm.Asm.assemble_exn ~origin:0x200
        "menter 0\nmenter 1\nebreak\n" in
    (match Machine.load_image m prog2 with
     | Ok () -> ()
     | Error e -> Alcotest.fail e);
    m.Machine.halted <- None;
    Machine.set_pc m 0x200;
    ignore (run_to_ebreak m);
    reg m "s0"
  in
  check_int "old entry refills, new entry runs (fast)" 112 (extend true);
  check_int "old entry refills, new entry runs (oracle)" 112 (extend false)

let () =
  Alcotest.run "cpu-edge"
    (List.concat
       [ Tutil.tiered "interrupts"
           [ ("masked", test_interrupt_masked);
             ("no handler", test_interrupt_without_handler);
             ("periodic re-arm", test_timer_rearm_periodic);
             ("precise resume", test_interrupt_resumes_precisely);
             ("priority order", test_interrupt_priority) ];
         Tutil.tiered "delegation"
           [ ("breakpoint", test_breakpoint_delegated);
             ("misaligned jalr", test_misaligned_fetch_via_jalr);
             ("bad fetch", test_fetch_beyond_memory) ];
         Tutil.tiered "metal-mode"
           [ ("nested menter fatal", test_menter_inside_mroutine_fatal);
             ("mexit illegal in normal", test_mexit_in_normal_mode_illegal);
             ("chained menters", test_chained_menters);
             ("wmr/mexit interlock", test_wmr_mexit_interlock);
             ("rmr after wmr", test_rmr_after_wmr);
             ("mmio from metal", test_mroutine_console_mmio);
             ("mld bounds fatal", test_mld_out_of_range_fatal);
             ("gprw x0", test_gprw_x0_ignored) ];
         Tutil.tiered "interception"
           [ ("jal", test_intercept_jal_emulates_jump);
             ("branch", test_intercept_branch);
             ("system", test_intercept_system_class) ];
         Tutil.tiered "tlb"
           [ ("pressure", test_tlb_instruction_pressure);
             ("selective flush", test_tlbflush_selectivity) ];
         [ ( "cache",
             [ Alcotest.test_case "icache warm/cold" `Quick
                 test_icache_warm_vs_cold;
               Alcotest.test_case "dedicated MRAM bypass" `Quick
                 test_dedicated_mram_bypasses_icache;
               Alcotest.test_case "main-memory pollution" `Quick
                 test_main_memory_mroutines_pollute_icache;
               Alcotest.test_case "dcache" `Quick test_dcache_hit_miss ] );
           ( "timing",
             [ Alcotest.test_case "memory latency" `Quick
                 test_mem_latency_scales;
               Alcotest.test_case "not-taken branches" `Quick
                 test_branch_not_taken_is_free;
               Alcotest.test_case "counters" `Quick test_counter_invariants;
               Alcotest.test_case "pkey fetch" `Quick
                 test_pkey_fetch_unaffected ] ) ];
         Tutil.tiered "translation"
           [ ("fault matrix", test_translation_fault_matrix) ];
         Tutil.tiered "edge-regressions"
           [ ("mexit at MRAM segment end", test_mexit_at_mram_segment_end);
             ("intercept during load-use stall",
              test_intercept_during_load_use_stall);
             ("MRAM reconfig vs cached fetch",
              test_mram_reconfig_vs_cached_fetch) ] ])
