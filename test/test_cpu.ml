(* Pipeline tests: functional correctness of the base ISA under
   hazards and forwarding, cycle-accounting sanity, Metal mode
   transitions, exceptions, interrupts and interception. *)

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
   | Some msrc ->
     let mimg = Metal_asm.Asm.assemble_exn msrc in
     begin match Machine.load_mcode m mimg with
     | Ok () -> ()
     | Error e -> Alcotest.fail e
     end);
  let entry =
    match Metal_asm.Image.find_symbol img "start" with
    | Some a -> a
    | None ->
      (match Metal_asm.Image.bounds img with Some (lo, _) -> lo | None -> 0)
  in
  Machine.set_pc m entry;
  m

let run_to_ebreak ?(max_cycles = 100_000) m =
  match Pipeline.run m ~max_cycles with
  | Some (Machine.Halt_ebreak _) -> ()
  | Some h -> Alcotest.fail (Machine.halted_to_string h)
  | None -> Alcotest.fail "cycle budget exhausted"

let reg m r =
  match Reg.of_string r with
  | Some idx -> Machine.get_reg m idx
  | None -> Alcotest.fail ("bad reg " ^ r)

let exec ?config ?mcode src =
  let m = boot ?config ?mcode src in
  run_to_ebreak m;
  m

(* ------------------------------------------------------------------ *)
(* Base ISA functional tests *)

let test_arith () =
  let m = exec "li a0, 5\nli a1, 7\nadd a2, a0, a1\nsub a3, a0, a1\nebreak\n" in
  check_int "add" 12 (reg m "a2");
  check_int "sub wraps" 0xFFFFFFFE (reg m "a3")

let test_logic_shift () =
  let m =
    exec
      "li a0, 0xF0F0\nli a1, 0x0FF0\nand a2, a0, a1\nor a3, a0, a1\n\
       xor a4, a0, a1\nslli a5, a0, 4\nsrli a6, a0, 4\nli t0, -16\n\
       srai a7, t0, 2\nebreak\n"
  in
  check_int "and" 0x0F0 (reg m "a2");
  check_int "or" 0xFFF0 (reg m "a3");
  check_int "xor" 0xFF00 (reg m "a4");
  check_int "slli" 0xF0F00 (reg m "a5");
  check_int "srli" 0xF0F (reg m "a6");
  check_int "srai" (Word.of_int (-4)) (reg m "a7")

let test_slt () =
  let m =
    exec
      "li a0, -1\nli a1, 1\nslt a2, a0, a1\nsltu a3, a0, a1\n\
       slti a4, a0, 0\nsltiu a5, a1, 2\nebreak\n"
  in
  check_int "slt signed" 1 (reg m "a2");
  check_int "sltu unsigned" 0 (reg m "a3");
  check_int "slti" 1 (reg m "a4");
  check_int "sltiu" 1 (reg m "a5")

let test_lui_auipc () =
  let m = exec ".org 0x100\nlui a0, 0x12345\nauipc a1, 1\nebreak\n" in
  check_int "lui" 0x12345000 (reg m "a0");
  check_int "auipc" (0x104 + 0x1000) (reg m "a1")

let test_x0_immutable () =
  let m = exec "li t0, 99\nadd zero, t0, t0\naddi a0, zero, 3\nebreak\n" in
  check_int "x0 stays zero" 3 (reg m "a0")

let test_memory () =
  let m =
    exec
      "li t0, 0x200\nli t1, 0x11223344\nsw t1, 0(t0)\nlw a0, 0(t0)\n\
       lb a1, 3(t0)\nlbu a2, 3(t0)\nlh a3, 0(t0)\nlhu a4, 0(t0)\n\
       sb t1, 8(t0)\nlw a5, 8(t0)\nebreak\n"
  in
  check_int "lw" 0x11223344 (reg m "a0");
  check_int "lb sign" 0x11 (reg m "a1");
  check_int "lbu" 0x11 (reg m "a2");
  check_int "lh" 0x3344 (reg m "a3");
  check_int "lhu" 0x3344 (reg m "a4");
  check_int "sb" 0x44 (reg m "a5")

let test_load_sign_extension () =
  let m =
    exec
      "li t0, 0x200\nli t1, 0x80FF\nsh t1, 0(t0)\nlh a0, 0(t0)\n\
       lhu a1, 0(t0)\nlb a2, 1(t0)\nebreak\n"
  in
  check_int "lh negative" (Word.of_int (-32513)) (reg m "a0");
  check_int "lhu" 0x80FF (reg m "a1");
  check_int "lb negative" (Word.of_int (-128)) (reg m "a2")

let test_branches () =
  let m =
    exec
      "li a0, 0\nli t0, 5\nli t1, 5\nbeq t0, t1, L1\nli a0, 99\n\
       L1: addi a0, a0, 1\nbne t0, t1, L2\naddi a0, a0, 2\n\
       L2: li t2, -1\nbltu t2, t0, L3\naddi a0, a0, 4\n\
       L3: blt t2, t0, L4\nli a0, 99\nL4: ebreak\n"
  in
  (* beq taken (+1), bne not taken (+2), bltu not taken since -1 is
     huge unsigned (+4), blt taken. *)
  check_int "branch semantics" 7 (reg m "a0")

let test_loop_sum () =
  let m =
    exec
      "li a0, 0\nli t0, 10\nloop:\nadd a0, a0, t0\naddi t0, t0, -1\n\
       bnez t0, loop\nebreak\n"
  in
  check_int "sum 1..10" 55 (reg m "a0")

let test_call_ret () =
  let m =
    exec
      "li sp, 0x1000\nli a0, 3\ncall double\ncall double\nebreak\n\
       double:\nadd a0, a0, a0\nret\n"
  in
  check_int "nested calls" 12 (reg m "a0")

let test_jalr_link () =
  let m =
    exec "la t0, target\njalr s0, 0(t0)\nebreak\ntarget:\nauipc s1, 0\njr s0\n"
  in
  check_int "link value" 12 (reg m "s0");
  check_int "landed" 16 (reg m "s1");
  check_int "returned via ra-less ret?" 0 0

(* Forwarding and hazards *)

let test_forwarding_chain () =
  let m =
    exec "li a0, 1\nadd a1, a0, a0\nadd a2, a1, a1\nadd a3, a2, a2\nebreak\n"
  in
  check_int "back-to-back deps" 8 (reg m "a3")

let test_load_use () =
  let m =
    exec
      "li t0, 0x300\nli t1, 41\nsw t1, 0(t0)\nlw a0, 0(t0)\naddi a0, a0, 1\nebreak\n"
  in
  check_int "load-use value" 42 (reg m "a0");
  check_bool "stall recorded" true (m.Machine.stats.Stats.load_use_stalls >= 1)

let test_store_data_forwarding () =
  let m =
    exec
      "li t0, 0x300\nli t1, 7\nadd t2, t1, t1\nsw t2, 0(t0)\nlw a0, 0(t0)\nebreak\n"
  in
  check_int "forwarded store data" 14 (reg m "a0")

(* Cycle accounting sanity: a linear program of N instructions retires
   in about N + pipeline-depth cycles. *)
let test_ipc_linear () =
  let body = String.concat "" (List.init 50 (fun _ -> "addi a0, a0, 1\n")) in
  let m = exec (body ^ "ebreak\n") in
  check_int "linear result" 50 (reg m "a0");
  let c = m.Machine.stats.Stats.cycles in
  check_bool (Printf.sprintf "cycles ~ N (%d)" c) true (c >= 51 && c <= 60)

let test_branch_penalty () =
  (* Each taken branch costs 2 bubbles; compare a taken-branch loop
     with the linear equivalent. *)
  let m =
    exec "li t0, 20\nloop: addi t0, t0, -1\nbnez t0, loop\nebreak\n"
  in
  let c = m.Machine.stats.Stats.cycles in
  (* 20 iterations * (2 instr + 2 flush) + overhead *)
  check_bool (Printf.sprintf "taken branch cost (%d)" c) true
    (c >= 80 && c <= 95)

(* ------------------------------------------------------------------ *)
(* Halts and exceptions *)

let test_unhandled_fault_halts () =
  let m = boot "li t0, 0x10000000\nlw a0, 0(t0)\nebreak\n" in
  (match Pipeline.run m ~max_cycles:1000 with
   | Some (Machine.Halt_fault { cause = Cause.Access_fault; _ }) -> ()
   | Some h -> Alcotest.fail (Machine.halted_to_string h)
   | None -> Alcotest.fail "no halt")

let test_misaligned_load_halts () =
  let m = boot "li t0, 0x201\nlw a0, 0(t0)\nebreak\n" in
  match Pipeline.run m ~max_cycles:1000 with
  | Some (Machine.Halt_fault { cause = Cause.Misaligned_load; info; _ }) ->
    check_int "tval" 0x201 info
  | Some h -> Alcotest.fail (Machine.halted_to_string h)
  | None -> Alcotest.fail "no halt"

let test_illegal_instruction_halts () =
  let m = boot ".word 0xFFFFFFFF\nebreak\n" in
  match Pipeline.run m ~max_cycles:1000 with
  | Some (Machine.Halt_fault { cause = Cause.Illegal_instruction; _ }) -> ()
  | Some h -> Alcotest.fail (Machine.halted_to_string h)
  | None -> Alcotest.fail "no halt"

let test_metal_instr_illegal_in_normal_mode () =
  let m = boot "physld a0, (zero)\nebreak\n" in
  match Pipeline.run m ~max_cycles:1000 with
  | Some (Machine.Halt_fault { cause = Cause.Illegal_instruction; _ }) -> ()
  | Some h -> Alcotest.fail (Machine.halted_to_string h)
  | None -> Alcotest.fail "no halt"

let test_ecall_unhandled () =
  let m = boot "ecall\nebreak\n" in
  match Pipeline.run m ~max_cycles:1000 with
  | Some (Machine.Halt_fault { cause = Cause.Ecall; pc; _ }) ->
    check_int "epc" 0 pc
  | Some h -> Alcotest.fail (Machine.halted_to_string h)
  | None -> Alcotest.fail "no halt"

(* Precision: an older faulting instruction must squash a younger one
   that would otherwise write state. *)
let test_precise_exception () =
  let m =
    boot "li t0, 0x10000000\nli a0, 1\nlw t1, 0(t0)\nli a0, 2\nebreak\n"
  in
  (match Pipeline.run m ~max_cycles:1000 with
   | Some (Machine.Halt_fault { cause = Cause.Access_fault; _ }) -> ()
   | Some h -> Alcotest.fail (Machine.halted_to_string h)
   | None -> Alcotest.fail "no halt");
  check_int "younger write squashed" 1 (reg m "a0")

(* ------------------------------------------------------------------ *)
(* Metal mode basics *)

let incr_mroutine = ".mentry 0, incr\nincr:\naddi a0, a0, 1\nmexit\n"

let test_menter_roundtrip () =
  let m = exec ~mcode:incr_mroutine "li a0, 10\nmenter 0\naddi a0, a0, 100\nebreak\n" in
  check_int "mroutine ran and returned" 111 (reg m "a0");
  check_int "menter count" 1 m.Machine.stats.Stats.menters;
  check_int "mexit count" 1 m.Machine.stats.Stats.mexits

let test_menter_m31 () =
  let mcode = ".mentry 0, f\nf:\nrmr a1, m31\nmexit\n" in
  let m = exec ~mcode ".org 0x40\nstart: menter 0\nebreak\n" in
  check_int "m31 = return address" 0x44 (reg m "a1")

let test_mregs_persist () =
  let mcode =
    ".mentry 0, put\n.mentry 1, get\n\
     put: wmr m5, a0\nmexit\n\
     get: rmr a1, m5\nmexit\n"
  in
  let m = exec ~mcode "li a0, 0x77\nmenter 0\nli a0, 0\nmenter 1\nebreak\n" in
  check_int "state carried across invocations" 0x77 (reg m "a1")

let test_mram_data_segment () =
  let mcode =
    ".mentry 0, save\n.mentry 1, load\n\
     save: mst a0, 16(zero)\nmexit\n\
     load: mld a1, 16(zero)\nmexit\n"
  in
  let m = exec ~mcode "li a0, 1234\nmenter 0\nmenter 1\nebreak\n" in
  check_int "mram data" 1234 (reg m "a1")

let test_menter_invalid_entry () =
  let m = boot ~mcode:incr_mroutine "menter 9\nebreak\n" in
  match Pipeline.run m ~max_cycles:1000 with
  | Some (Machine.Halt_fault { cause = Cause.Illegal_instruction; _ }) -> ()
  | Some h -> Alcotest.fail (Machine.halted_to_string h)
  | None -> Alcotest.fail "no halt"

let test_fast_transition_cost () =
  (* A no-op mroutine call should cost only a handful of cycles with
     fast replacement (paper: "virtually zero overhead"). *)
  let mcode = ".mentry 0, f\nf: mexit\n" in
  let baseline = exec "nop\nnop\nnop\nnop\nebreak\n" in
  let with_call = exec ~mcode "nop\nnop\nmenter 0\nnop\nnop\nebreak\n" in
  let delta =
    with_call.Machine.stats.Stats.cycles - baseline.Machine.stats.Stats.cycles
  in
  check_bool (Printf.sprintf "fast no-op call costs %d cycles" delta) true
    (delta <= 4)

let test_trap_transition_cost () =
  let mcode = ".mentry 0, f\nf: mexit\n" in
  let config = { Config.default with Config.transition = Config.Trap_flush } in
  let baseline = exec ~config "nop\nnop\nnop\nnop\nebreak\n" in
  let with_call = exec ~config ~mcode "nop\nnop\nmenter 0\nnop\nnop\nebreak\n" in
  let delta =
    with_call.Machine.stats.Stats.cycles - baseline.Machine.stats.Stats.cycles
  in
  check_bool (Printf.sprintf "trap no-op call costs %d cycles" delta) true
    (delta >= 6)

let test_palcode_slower_than_fast () =
  let mcode = ".mentry 0, f\nf: nop\nnop\nmexit\n" in
  let prog = "menter 0\nebreak\n" in
  let fast = exec ~mcode prog in
  let pal = exec ~config:Config.palcode ~mcode prog in
  check_bool "palcode slower" true
    (pal.Machine.stats.Stats.cycles > fast.Machine.stats.Stats.cycles + 5)

let test_metal_fault_fatal () =
  let mcode = ".mentry 0, f\nf: lw a0, 0(t6)\nmexit\n" in
  let m = boot ~mcode "li t6, 0x10000000\nmenter 0\nebreak\n" in
  match Pipeline.run m ~max_cycles:1000 with
  | Some (Machine.Halt_metal_fault { cause = Cause.Access_fault; _ }) -> ()
  | Some h -> Alcotest.fail (Machine.halted_to_string h)
  | None -> Alcotest.fail "no halt"

let test_mroutine_ebreak_halts () =
  let mcode = ".mentry 0, f\nf: ebreak\n" in
  let m = boot ~mcode "menter 0\nebreak\n" in
  match Pipeline.run m ~max_cycles:1000 with
  | Some (Machine.Halt_ebreak { metal = true; _ }) -> ()
  | Some h -> Alcotest.fail (Machine.halted_to_string h)
  | None -> Alcotest.fail "no halt"

let test_gpr_shared_with_metal () =
  (* mroutines operate on the caller's GPRs directly (Figure 2 uses t0
     and ra). *)
  let mcode = ".mentry 0, f\nf:\nslli a0, a0, 4\nori a0, a0, 5\nmexit\n" in
  let m = exec ~mcode "li a0, 1\nmenter 0\nebreak\n" in
  check_int "shared gprs" 0x15 (reg m "a0")

let test_gprr_gprw () =
  let mcode =
    ".mentry 0, f\nf:\nli t0, 11\ngprr t1, t0\naddi t1, t1, 1\n\
     li t2, 12\ngprw t2, t1\nmexit\n"
  in
  (* reads a1 (x11), writes a1+1 into a2 (x12). *)
  let m = exec ~mcode "li a1, 41\nmenter 0\nnop\nnop\nebreak\n" in
  check_int "indexed gpr write" 42 (reg m "a2")

(* ------------------------------------------------------------------ *)
(* Exception delegation to mroutines *)

let test_ecall_delegated () =
  let mcode =
    ".mentry 3, handler\nhandler:\nrmr t0, m31\naddi t0, t0, 4\n\
     wmr m31, t0\nli a0, 777\nmexit\n"
  in
  let m = boot ~mcode "ecall\nmv a1, a0\nebreak\n" in
  Machine.install_handler m Cause.Ecall ~entry:3;
  run_to_ebreak m;
  check_int "handler result visible after sret" 777 (reg m "a1");
  check_int "exceptions counted" 1 m.Machine.stats.Stats.exceptions

let test_exception_retry () =
  (* The handler fixes the situation and retries the faulting load by
     returning to m31 unmodified. *)
  let mcode =
    ".mentry 1, fix\nfix:\n\
     # redirect the load target to a valid address\n\
     li t6, 0x400\nli t5, 4242\nsw t5, 0(t6)\nmexit\n"
  in
  (* t6 starts out-of-range; handler rewrites t6 then retries. *)
  let m =
    boot ~mcode "li t6, 0x10000000\nlw a0, 0(t6)\nebreak\n"
  in
  Machine.install_handler m Cause.Access_fault ~entry:1;
  run_to_ebreak m;
  check_int "retried load sees fix" 4242 (reg m "a0")

let test_interrupt_delivery () =
  let mcode =
    ".mentry 2, tick\ntick:\n\
     addi s0, s0, 1\n\
     li t6, 1\nmcsrw int_pending, t6\n\
     mexit\n"
  in
  let m =
    boot ~mcode
      "li s0, 0\nli t0, 200\nloop: addi t0, t0, -1\nbnez t0, loop\nebreak\n"
  in
  Machine.install_interrupt_handler m ~irq:0 ~entry:2;
  Machine.ctrl_write m Csr.int_enable 1;
  Machine.ctrl_write m Csr.timer_cmp 50;
  run_to_ebreak m;
  check_int "timer handler ran once" 1 (reg m "s0");
  check_int "interrupts counted" 1 m.Machine.stats.Stats.interrupts

let test_interrupt_not_in_metal () =
  (* While an mroutine runs, interrupts stay pending (mroutines are
     non-interruptible). *)
  let mcode =
    ".mentry 0, spin\nspin:\nli t0, 100\nsl: addi t0, t0, -1\nbnez t0, sl\nmexit\n\
     .mentry 2, tick\ntick:\naddi s0, s0, 1\nli t6, 1\nmcsrw int_pending, t6\n\
     rmr s1, m31\nmexit\n"
  in
  let m = boot ~mcode "li s0, 0\nmenter 0\nmv s2, s0\nebreak\n" in
  Machine.install_interrupt_handler m ~irq:0 ~entry:2;
  Machine.ctrl_write m Csr.int_enable 1;
  Machine.ctrl_write m Csr.timer_cmp 20;
  run_to_ebreak m;
  check_int "handler ran after mroutine" 1 (reg m "s0")

(* ------------------------------------------------------------------ *)
(* Instruction interception *)

let test_intercept_store () =
  (* Count intercepted stores, then perform them via physst. *)
  let mcode =
    ".mentry 4, st\nst:\n\
     addi s10, s10, 1      # count\n\
     rmr t0, m28           # address\n\
     rmr t1, m27           # value\n\
     physst t1, 0(t0)\n\
     rmr t2, m31\naddi t2, t2, 4\nwmr m31, t2\n\
     mexit\n"
  in
  let m =
    boot ~mcode
      "li t3, 0x500\nli t4, 9\nsw t4, 0(t3)\nsw t4, 4(t3)\nlw a0, 0(t3)\n\
       lw a1, 4(t3)\nebreak\n"
  in
  (* enable interception of stores via control registers *)
  Machine.ctrl_write m (Csr.icept_handler (Icept.code Icept.Store_class)) 5;
  Machine.ctrl_write m Csr.icept_enable 1;
  run_to_ebreak m;
  check_int "stores executed by handler" 9 (reg m "a0");
  check_int "second store" 9 (reg m "a1");
  check_int "count" 2 (reg m "s10");
  check_int "intercepts counted" 2 m.Machine.stats.Stats.intercepts

let test_intercept_load () =
  (* Emulate loads: return effective address + 1000 instead of memory
     contents, using gprw with the published rd index. *)
  let mcode =
    ".mentry 4, ld\nld:\n\
     rmr t0, m28\n\
     addi t0, t0, 1000\n\
     rmr t1, m26\n\
     gprw t1, t0\n\
     rmr t2, m31\naddi t2, t2, 4\nwmr m31, t2\n\
     mexit\n"
  in
  let m = boot ~mcode "li t3, 0x500\nlw a0, 0(t3)\nlw a1, 8(t3)\nebreak\n" in
  Machine.ctrl_write m (Csr.icept_handler (Icept.code Icept.Load_class)) 5;
  Machine.ctrl_write m Csr.icept_enable 1;
  run_to_ebreak m;
  check_int "emulated load 1" (0x500 + 1000) (reg m "a0");
  check_int "emulated load 2" (0x508 + 1000) (reg m "a1")

let test_intercept_toggle () =
  (* iceptset/iceptclr from inside an mroutine switch interception
     dynamically (the STM use case). *)
  let mcode =
    ".mentry 0, on\non:\nli t0, 1\nli t1, 4\niceptset t0, t1\n\
     li t2, 1\nmcsrw icept_enable, t2\nmexit\n\
     .mentry 1, off\noff:\nli t0, 1\niceptclr t0\nmexit\n\
     .mentry 4, st\nst:\naddi s10, s10, 1\nrmr t0, m28\nrmr t1, m27\n\
     physst t1, 0(t0)\nrmr t2, m31\naddi t2, t2, 4\nwmr m31, t2\nmexit\n"
  in
  let m =
    exec ~mcode
      "li t3, 0x500\nli t4, 1\n\
       sw t4, 0(t3)       # not intercepted\n\
       menter 0\n\
       sw t4, 4(t3)       # intercepted\n\
       menter 1\n\
       sw t4, 8(t3)       # not intercepted\n\
       ebreak\n"
  in
  check_int "exactly one intercepted" 1 (reg m "s10")

let () =
  Alcotest.run "cpu"
    (List.concat
       [ [ ( "base-isa",
             [ Alcotest.test_case "arith" `Quick test_arith;
               Alcotest.test_case "logic/shift" `Quick test_logic_shift;
               Alcotest.test_case "slt" `Quick test_slt;
               Alcotest.test_case "lui/auipc" `Quick test_lui_auipc;
               Alcotest.test_case "x0" `Quick test_x0_immutable;
               Alcotest.test_case "memory" `Quick test_memory;
               Alcotest.test_case "sign extension" `Quick
                 test_load_sign_extension;
               Alcotest.test_case "branches" `Quick test_branches;
               Alcotest.test_case "loop" `Quick test_loop_sum;
               Alcotest.test_case "call/ret" `Quick test_call_ret;
               Alcotest.test_case "jalr link" `Quick test_jalr_link ] );
           ( "pipeline",
             [ Alcotest.test_case "forwarding" `Quick test_forwarding_chain;
               Alcotest.test_case "load-use" `Quick test_load_use;
               Alcotest.test_case "store forwarding" `Quick
                 test_store_data_forwarding;
               Alcotest.test_case "ipc linear" `Quick test_ipc_linear;
               Alcotest.test_case "branch penalty" `Quick
                 test_branch_penalty ] ) ];
         Tutil.tiered "faults"
           [ ("unhandled fault", test_unhandled_fault_halts);
             ("misaligned", test_misaligned_load_halts);
             ("illegal", test_illegal_instruction_halts);
             ("metal-only in normal", test_metal_instr_illegal_in_normal_mode);
             ("ecall unhandled", test_ecall_unhandled);
             ("precision", test_precise_exception) ];
         Tutil.tiered "metal"
           [ ("roundtrip", test_menter_roundtrip);
             ("m31", test_menter_m31);
             ("mreg persistence", test_mregs_persist);
             ("mram data", test_mram_data_segment);
             ("invalid entry", test_menter_invalid_entry);
             ("fast cost", test_fast_transition_cost);
             ("trap cost", test_trap_transition_cost);
             ("palcode cost", test_palcode_slower_than_fast);
             ("metal fault fatal", test_metal_fault_fatal);
             ("mroutine ebreak", test_mroutine_ebreak_halts);
             ("shared gprs", test_gpr_shared_with_metal);
             ("gprr/gprw", test_gprr_gprw) ];
         Tutil.tiered "delegation"
           [ ("ecall", test_ecall_delegated);
             ("retry", test_exception_retry);
             ("interrupt", test_interrupt_delivery);
             ("non-interruptible", test_interrupt_not_in_metal) ];
         Tutil.tiered "interception"
           [ ("store", test_intercept_store);
             ("load", test_intercept_load);
             ("toggle", test_intercept_toggle) ] ])
