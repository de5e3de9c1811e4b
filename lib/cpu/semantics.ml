open Machine
module Ev = Metal_trace.Event

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)

let produces_at_mem = function
  | Instr.Load _ -> true
  | Instr.Metal m ->
    begin match m with
    | Instr.Mld _ | Instr.Rmr _ -> true
    | Instr.Feature
        (Instr.Physld _ | Instr.Tlbprobe _ | Instr.Gprr _ | Instr.Mcsrr _) ->
      true
    | Instr.Menter _ | Instr.Mexit | Instr.Wmr _ | Instr.Mst _
    | Instr.Feature _ -> false
    end
  | Instr.Lui _ | Instr.Auipc _ | Instr.Jal _ | Instr.Jalr _ | Instr.Branch _
  | Instr.Store _ | Instr.Op_imm _ | Instr.Op _ | Instr.Ecall | Instr.Ebreak
  | Instr.Fence -> false

let uop_produces_at_mem = function
  | U_instr i -> produces_at_mem i
  | U_event _ | U_poison _ -> false

let uop_writes_mreg = function
  | U_instr (Instr.Metal (Instr.Wmr _ | Instr.Menter _)) -> true
  | U_event _ -> true
  | U_instr _ | U_poison _ -> false

let legal_in_mode instr ~metal =
  match instr with
  | Instr.Metal (Instr.Menter _) -> not metal
  | Instr.Metal _ -> metal
  | _ -> true

let sources_of instr =
  match instr with
  | Instr.Jalr { rs1; _ } | Instr.Load { rs1; _ } | Instr.Op_imm { rs1; _ } ->
    (rs1, 0)
  | Instr.Branch { rs1; rs2; _ } | Instr.Op { rs1; rs2; _ }
  | Instr.Store { rs1; rs2; _ } -> (rs1, rs2)
  | Instr.Metal m ->
    begin match m with
    | Instr.Wmr { rs1; _ } | Instr.Mld { rs1; _ } -> (rs1, 0)
    | Instr.Mst { rs1; rs2; _ } -> (rs1, rs2)
    | Instr.Menter _ | Instr.Mexit | Instr.Rmr _ -> (0, 0)
    | Instr.Feature f ->
      begin match f with
      | Instr.Physld { rs1; _ } | Instr.Tlbflush { rs1 }
      | Instr.Tlbprobe { rs1; _ } | Instr.Gprr { rs1; _ }
      | Instr.Iceptclr { rs1 } | Instr.Mcsrw { rs1; _ } -> (rs1, 0)
      | Instr.Physst { rs1; rs2; _ } | Instr.Tlbw { rs1; rs2 }
      | Instr.Gprw { rs1; rs2 } | Instr.Iceptset { rs1; rs2 } -> (rs1, rs2)
      | Instr.Mcsrr _ -> (0, 0)
      end
    end
  | Instr.Lui _ | Instr.Auipc _ | Instr.Jal _ | Instr.Ecall | Instr.Ebreak
  | Instr.Fence -> (0, 0)

let width_alignment = function
  | Instr.Byte -> 0
  | Instr.Half -> 1
  | Instr.Word -> 3

let sign_extend_load ~width ~unsigned v =
  match (width, unsigned) with
  | Instr.Byte, false -> Word.of_int (Word.sign_extend ~width:8 v)
  | Instr.Half, false -> Word.of_int (Word.sign_extend ~width:16 v)
  | (Instr.Byte | Instr.Half), true | Instr.Word, _ -> v

(* ------------------------------------------------------------------ *)
(* EX                                                                  *)

let alu_compute op a b =
  match op with
  | Instr.Add -> Word.add a b
  | Instr.Sub -> Word.sub a b
  | Instr.Sll -> Word.shift_left a b
  | Instr.Slt -> if Word.lt_signed a b then 1 else 0
  | Instr.Sltu -> if Word.lt_unsigned a b then 1 else 0
  | Instr.Xor -> Word.logxor a b
  | Instr.Srl -> Word.shift_right_logical a b
  | Instr.Sra -> Word.shift_right_arith a b
  | Instr.Or -> Word.logor a b
  | Instr.And -> Word.logand a b

let branch_taken cond a b =
  match cond with
  | Instr.Beq -> a = b
  | Instr.Bne -> a <> b
  | Instr.Blt -> Word.lt_signed a b
  | Instr.Bge -> Word.ge_signed a b
  | Instr.Bltu -> Word.lt_unsigned a b
  | Instr.Bgeu -> Word.ge_unsigned a b

(* ------------------------------------------------------------------ *)
(* Address translation                                                 *)

type access = A_fetch | A_load | A_store

let fault_of_access = function
  | A_fetch -> Cause.Page_fault_fetch
  | A_load -> Cause.Page_fault_load
  | A_store -> Cause.Page_fault_store

(* PTE layout, shared with the mcode walker in Metal_progs.Pagetable:
     bits 31:12  physical page base (a physical address, not a shifted
                 ppn, so mcode can mask instead of shift)
     bits 8:5    page key
     bit 4       global
     bit 3       X, bit 2 W, bit 1 R, bit 0 V
   A valid PTE with R=W=X=0 points at the next-level table. *)
let hw_walk m ~vpn ~asid =
  let open Metal_hw in
  m.stats.Stats.hw_walks <- m.stats.Stats.hw_walks + 1;
  emit m Ev.hw_walk vpn 0;
  let read_pte pa =
    let lat = m.config.Config.walker_latency in
    m.stall_cycles <- m.stall_cycles + lat;
    if lat > 0 then begin
      m.stats.Stats.walker_stall_cycles <-
        m.stats.Stats.walker_stall_cycles + lat;
      emit m Ev.stall_begin Ev.stall_walker lat
    end;
    match Bus.load m.bus ~width:Instr.Word ~addr:pa with
    | Ok w -> Some w
    | Error _ -> None
  in
  let root = m.ctrl.(Csr.pt_root) in
  let entry_of pte ~vpn ~ppn_extra =
    let r = Word.bit 1 pte = 1
    and w = Word.bit 2 pte = 1
    and x = Word.bit 3 pte = 1
    and global = Word.bit 4 pte = 1
    and pkey = Word.bits ~hi:8 ~lo:5 pte in
    let ppn = Word.bits ~hi:31 ~lo:12 pte lor ppn_extra in
    { Tlb.asid; global; vpn; ppn; r; w; x; pkey }
  in
  match read_pte (root + (4 * (vpn lsr 10))) with
  | None -> None
  | Some pte1 ->
    if Word.bit 0 pte1 = 0 then None
    else if Word.bits ~hi:3 ~lo:1 pte1 <> 0 then
      (* 4 MiB superpage leaf at level 1. *)
      Some (entry_of pte1 ~vpn ~ppn_extra:(vpn land 0x3FF))
    else begin
      let table = pte1 land 0xFFFFF000 in
      match read_pte (table + (4 * (vpn land 0x3FF))) with
      | None -> None
      | Some pte2 ->
        if Word.bit 0 pte2 = 0 || Word.bits ~hi:3 ~lo:1 pte2 = 0 then None
        else Some (entry_of pte2 ~vpn ~ppn_extra:0)
    end

let translate_fault m cause vaddr =
  m.fault_vaddr <- Word.of_int vaddr;
  m.xlate_cause <- cause;
  -1

let check_entry m ~access ~metal vaddr (e : Metal_hw.Tlb.entry) =
  let open Metal_hw.Tlb in
  let perm_ok =
    match access with A_fetch -> e.x | A_load -> e.r | A_store -> e.w
  in
  if not perm_ok then translate_fault m (fault_of_access access) vaddr
  else if not metal then begin
    let perms = m.ctrl.(Csr.pkey_perms) in
    let read_disabled = Word.bit (2 * e.pkey) perms = 1 in
    let write_disabled = Word.bit ((2 * e.pkey) + 1) perms = 1 in
    match access with
    | A_load when read_disabled ->
      translate_fault m Cause.Pkey_violation_load vaddr
    | A_store when write_disabled ->
      translate_fault m Cause.Pkey_violation_store vaddr
    | A_fetch | A_load | A_store ->
      (e.ppn lsl page_shift) lor (vaddr land 0xFFF)
  end
  else (e.ppn lsl page_shift) lor (vaddr land 0xFFF)

let translate m ~access ~metal vaddr =
  if m.ctrl.(Csr.paging) land 1 = 0 then vaddr
  else begin
    let asid = m.ctrl.(Csr.asid) land 0xFF in
    let vpn = vaddr lsr Metal_hw.Tlb.page_shift in
    match Metal_hw.Tlb.lookup m.tlb ~asid ~vpn with
    | Some e ->
      m.stats.Stats.tlb_hits <- m.stats.Stats.tlb_hits + 1;
      check_entry m ~access ~metal vaddr e
    | None ->
      m.stats.Stats.tlb_misses <- m.stats.Stats.tlb_misses + 1;
      emit m Ev.tlb_miss vaddr
        (match access with A_fetch -> 0 | A_load -> 1 | A_store -> 2);
      if m.ctrl.(Csr.hw_walker) land 1 = 1 then
        match hw_walk m ~vpn ~asid with
        | Some e ->
          Metal_hw.Tlb.insert m.tlb e;
          check_entry m ~access ~metal vaddr e
        | None -> translate_fault m (fault_of_access access) vaddr
      else translate_fault m (fault_of_access access) vaddr
  end

(* ------------------------------------------------------------------ *)
(* Timing charges                                                      *)

let charge_cache m cache ~addr ~fetch =
  match cache with
  | None -> ()
  | Some c ->
    if not (Metal_hw.Cache.access c ~addr) then begin
      let p = (Metal_hw.Cache.config c).Metal_hw.Cache.miss_penalty in
      m.stall_cycles <- m.stall_cycles + p;
      if fetch then begin
        m.stats.Stats.fetch_stall_cycles <-
          m.stats.Stats.fetch_stall_cycles + p;
        emit m Ev.stall_begin Ev.stall_fetch_cache p
      end
      else begin
        m.stats.Stats.mem_stall_cycles <- m.stats.Stats.mem_stall_cycles + p;
        emit m Ev.stall_begin Ev.stall_data_cache p
      end
    end

let charge_mem_latency m =
  let l = m.config.Config.mem_latency in
  if l > 0 then begin
    m.stall_cycles <- m.stall_cycles + l;
    m.stats.Stats.mem_stall_cycles <- m.stats.Stats.mem_stall_cycles + l;
    emit m Ev.stall_begin Ev.stall_mem_latency l
  end

(* One extra stall cycle for the in-line SECDED verify on the MRAM
   data read port ([mld] with Config.ecc armed); the m-register read
   path is modeled combinational and charges nothing.  Wcost.instr
   accounts for it. *)
let charge_ecc_check m =
  m.stall_cycles <- m.stall_cycles + 1;
  m.stats.Stats.mem_stall_cycles <- m.stats.Stats.mem_stall_cycles + 1;
  emit m Ev.stall_begin Ev.stall_ecc_check 1

let mram_fetch_penalty m ~pc fetch_penalty =
  (* Main-memory-resident mroutines (the PALcode model) fetch through
     the instruction cache — filling, and polluting, it. *)
  let miss =
    match m.icache with
    | Some c -> not (Metal_hw.Cache.access c ~addr:(0x4000_0000 lor pc))
    | None -> fetch_penalty > 0
  in
  if miss then begin
    m.stall_cycles <- m.stall_cycles + fetch_penalty;
    m.stats.Stats.fetch_stall_cycles <-
      m.stats.Stats.fetch_stall_cycles + fetch_penalty;
    emit m Ev.stall_begin Ev.stall_mram_fetch fetch_penalty
  end

(* Kept small enough to inline: dedicated MRAM (the common case)
   bypasses the cache and charges nothing. *)
let charge_mram_fetch m ~pc =
  match m.config.Config.mram_backing with
  | Config.Dedicated -> ()
  | Config.Main_memory { fetch_penalty } ->
    mram_fetch_penalty m ~pc fetch_penalty

let timer_tick m =
  let cmp = m.ctrl.(Csr.timer_cmp) in
  if cmp <> 0 && m.stats.Stats.cycles >= cmp then begin
    Metal_hw.Intc.raise_irq m.intc Metal_hw.Intc.timer_irq;
    m.ctrl.(Csr.timer_cmp) <- 0
  end

(* ------------------------------------------------------------------ *)
(* Control transfer and event delivery                                 *)

let redirect m ~target ~metal =
  m.fetch_pc <- Word.of_int target;
  m.fetch_metal <- metal;
  m.fetch_frozen <- false

let flush m ~squash =
  squash m;
  m.stats.Stats.flushes <- m.stats.Stats.flushes + 1;
  emit m Ev.flush Ev.flush_event 0

(* Enter the mroutine registered as handler [handler_value] (stored as
   entry+1), writing [writes] into the Metal register file.  Fails the
   whole machine when the configuration is inconsistent. *)
let deliver_to_mroutine m ~squash ~handler_value ~writes ~reason ~on_missing =
  let entry = handler_value - 1 in
  match Metal_hw.Mram.entry_addr m.mram entry with
  | None ->
    m.halted <- Some on_missing;
    false
  | Some target ->
    List.iter (fun (mr, v) -> set_mreg m mr v) writes;
    flush m ~squash;
    redirect m ~target ~metal:true;
    emit m Ev.mode_enter entry reason;
    true

let raise_exception m ~squash ~cause ~epc ~tval ~metal =
  m.stats.Stats.exceptions <- m.stats.Stats.exceptions + 1;
  m.fault_cause <- Cause.code cause;
  emit m Ev.exn (Cause.code cause) tval;
  if m.config.Config.trace then
    add_trace m ~cycle:m.stats.Stats.cycles
      (Printf.sprintf "exception %s at %s tval=%s" (Cause.to_string cause)
         (Word.to_hex epc) (Word.to_hex tval));
  if metal then
    m.halted <- Some (Halt_metal_fault { cause; pc = epc; info = tval })
  else begin
    let handler_value = m.ctrl.(Csr.exc_handler cause) in
    if handler_value = 0 then
      m.halted <- Some (Halt_fault { cause; pc = epc; info = tval })
    else begin
      let writes =
        [ (Reg.Mconv.return_address, Word.of_int epc);
          (Reg.Mconv.event_cause, Cause.code cause);
          (Reg.Mconv.event_value, tval) ]
      in
      ignore
        (deliver_to_mroutine m ~squash ~handler_value ~writes
           ~reason:Ev.reason_exception
           ~on_missing:(Halt_fault { cause; pc = epc; info = tval }))
    end
  end

let deliver_interrupt m ~squash ~irq ~handler_value ~epc =
  let writes =
    [ (Reg.Mconv.return_address, Word.of_int epc);
      (Reg.Mconv.event_cause, Cause.interrupt_code irq) ]
  in
  m.stats.Stats.interrupts <- m.stats.Stats.interrupts + 1;
  emit m Ev.interrupt irq epc;
  if m.config.Config.trace then
    add_trace m ~cycle:m.stats.Stats.cycles
      (Printf.sprintf "interrupt %d delivered, resume %s" irq
         (Word.to_hex epc));
  deliver_to_mroutine m ~squash ~handler_value ~writes
    ~reason:Ev.reason_interrupt
    ~on_missing:
      (Halt_fault { cause = Cause.Access_fault; pc = epc; info = irq })

(* ------------------------------------------------------------------ *)
(* ID                                                                  *)

let intercept_handler m instr =
  if m.ctrl.(Csr.icept_enable) land 1 = 0 then None
  else
    match Icept.classify instr with
    | None -> None
    | Some cls ->
      let v = m.ctrl.(Csr.icept_handler (Icept.code cls)) in
      if v = 0 then None else Some (cls, v)

let intercept_writes cls instr ~pc ~word ~rv1 ~rv2 =
  let eff_addr, store_val, rd_idx =
    match instr with
    | Instr.Load { offset; rd; _ } -> (Word.add rv1 offset, 0, rd)
    | Instr.Store { offset; _ } -> (Word.add rv1 offset, rv2, 0)
    | Instr.Jalr { offset; rd; _ } ->
      (Word.logand (Word.add rv1 offset) (Word.lognot 1), 0, rd)
    | Instr.Jal { offset; rd } -> (Word.add pc offset, 0, rd)
    | Instr.Branch { offset; _ } -> (Word.add pc offset, 0, 0)
    | _ -> (0, 0, 0)
  in
  [ (Reg.Mconv.return_address, Word.of_int pc);
    (Reg.Mconv.event_cause, Cause.intercept_code (Icept.code cls));
    (Reg.Mconv.event_value, word);
    (Reg.Mconv.event_addr, eff_addr);
    (Reg.Mconv.event_store_value, store_val);
    (Reg.Mconv.event_rd, rd_idx) ]

let return_address_lost m =
  match get_mreg_checked m Reg.Mconv.return_address with
  | _, Metal_hw.Ecc.Uncorrectable -> true
  | _, Metal_hw.Ecc.Corrected _ ->
    emit m Ev.ecc_correct 1 Reg.Mconv.return_address;
    false
  | _, Metal_hw.Ecc.Clean -> false

let mexit_return_lost m = m.config.Config.ecc && return_address_lost m

(* ------------------------------------------------------------------ *)
(* MEM                                                                 *)

let retire m ~pc ~metal uop =
  let stats = m.stats in
  stats.Stats.instructions <- stats.Stats.instructions + 1;
  if metal then
    stats.Stats.metal_instructions <- stats.Stats.metal_instructions + 1;
  emit m Ev.retire pc (if metal then 1 else 0);
  if m.config.Config.trace then
    add_trace m ~cycle:stats.Stats.cycles
      (Printf.sprintf "retire %s%s %s" (Word.to_hex pc)
         (if metal then " M" else "  ")
         (match uop with
          | U_instr i -> Instr.to_string i
          | U_event { kind = Event_menter e; _ } ->
            Printf.sprintf "<menter %d>" e
          | U_event { kind = Event_intercept c; _ } ->
            Printf.sprintf "<intercept %s>" (Icept.to_string c)
          | U_poison _ -> "<poison>"))

let commit_event m kind writes =
  List.iter (fun (mr, v) -> set_mreg m mr v) writes;
  match kind with
  | Event_menter _ -> m.stats.Stats.menters <- m.stats.Stats.menters + 1
  | Event_intercept _ ->
    m.stats.Stats.intercepts <- m.stats.Stats.intercepts + 1

(* Call/return hints for the profiler, per the RISC-V calling
   convention: linking through ra/t0 marks a call; jalr x0 via ra/t0
   marks a return.  Classified at retire (past any squash) so every
   stepper emits the same stream; gated on [probe_on] in a wrapper
   small enough to inline, so the disabled path stays one
   load-and-branch. *)
let emit_link_hint m instr ~pc ~sval =
  match instr with
  | Instr.Jal { rd; offset } ->
    if rd = 1 || rd = 5 then emit m Ev.call (Word.add pc offset) pc
  | Instr.Jalr { rd; rs1; _ } ->
    if rd = 1 || rd = 5 then emit m Ev.call sval pc
    else if rd = 0 && (rs1 = 1 || rs1 = 5) then emit m Ev.ret sval pc
  | _ -> ()

let link_hint m instr ~pc ~sval =
  if m.probe_on then emit_link_hint m instr ~pc ~sval

let note_store m pa =
  if Metal_hw.Phys_mem.in_range (Metal_hw.Bus.memory m.bus) ~addr:pa ~width:1
  then begin
    if m.use_predecode then Predecode.note_phys_store m.predecode ~addr:pa;
    if m.use_blocks then Blockcache.note_phys_store m.blockcache ~addr:pa
  end

let mem_metal m mi ~pc ~metal ~alu ~sval ~writeback ~no_writeback ~except
    ~squash =
  let stats = m.stats in
  match mi with
  | Instr.Mld { rd; _ } ->
    if m.config.Config.ecc then begin
      match Metal_hw.Mram.load_word_checked m.mram ~addr:alu with
      | None -> except m Cause.Access_fault alu
      | Some (v, st) ->
        charge_ecc_check m;
        (match st with
         | Metal_hw.Ecc.Clean -> writeback m rd v
         | Metal_hw.Ecc.Corrected _ ->
           emit m Ev.ecc_correct 0 alu;
           writeback m rd v
         | Metal_hw.Ecc.Uncorrectable ->
           except m Cause.Ecc_uncorrectable alu)
    end
    else begin match Metal_hw.Mram.load_word m.mram ~addr:alu with
    | Some v -> writeback m rd v
    | None -> except m Cause.Access_fault alu
    end
  | Instr.Mst _ ->
    if Metal_hw.Mram.store_word m.mram ~addr:alu sval then begin
      if m.use_predecode then Predecode.note_mram_store m.predecode;
      no_writeback m
    end
    else except m Cause.Access_fault alu
  | Instr.Rmr { rd; mr } ->
    if m.config.Config.ecc then begin
      match get_mreg_checked m mr with
      | v, Metal_hw.Ecc.Clean -> writeback m rd v
      | v, Metal_hw.Ecc.Corrected _ ->
        emit m Ev.ecc_correct 1 mr;
        writeback m rd v
      | _, Metal_hw.Ecc.Uncorrectable -> except m Cause.Ecc_uncorrectable mr
    end
    else writeback m rd (get_mreg m mr)
  | Instr.Wmr { mr; _ } ->
    set_mreg m mr alu;
    no_writeback m
  | Instr.Menter { entry } ->
    (* Slow-path (trap-style) Metal entry; fast replacement consumes
       menter at decode and never reaches here. *)
    begin match Metal_hw.Mram.entry_addr m.mram entry with
    | None -> except m Cause.Illegal_instruction 0
    | Some target ->
      set_mreg m Reg.Mconv.return_address (Word.add pc 4);
      stats.Stats.menters <- stats.Stats.menters + 1;
      stats.Stats.instructions <- stats.Stats.instructions + 1;
      emit m Ev.retire pc (if metal then 1 else 0);
      flush m ~squash;
      redirect m ~target ~metal:true;
      emit m Ev.mode_enter entry Ev.reason_menter_trap;
      false
    end
  | Instr.Mexit when m.config.Config.ecc
                     && (match get_mreg_checked m Reg.Mconv.return_address with
                         | _, Metal_hw.Ecc.Uncorrectable -> true
                         | _ -> false) ->
    except m Cause.Ecc_uncorrectable Reg.Mconv.return_address
  | Instr.Mexit ->
    if m.config.Config.ecc then begin
      match get_mreg_checked m Reg.Mconv.return_address with
      | _, Metal_hw.Ecc.Corrected _ ->
        emit m Ev.ecc_correct 1 Reg.Mconv.return_address
      | _ -> ()
    end;
    let target = get_mreg m Reg.Mconv.return_address in
    stats.Stats.mexits <- stats.Stats.mexits + 1;
    stats.Stats.instructions <- stats.Stats.instructions + 1;
    if metal then
      stats.Stats.metal_instructions <- stats.Stats.metal_instructions + 1;
    emit m Ev.retire pc (if metal then 1 else 0);
    flush m ~squash;
    redirect m ~target ~metal:false;
    emit m Ev.mode_exit target 0;
    false
  | Instr.Feature f ->
    begin match f with
    | Instr.Physld { rd; _ } ->
      if alu land 3 <> 0 then except m Cause.Misaligned_load alu
      else begin
        charge_mem_latency m;
        match Metal_hw.Bus.load m.bus ~width:Instr.Word ~addr:alu with
        | Ok v -> writeback m rd v
        | Error cause -> except m cause alu
      end
    | Instr.Physst _ ->
      if alu land 3 <> 0 then except m Cause.Misaligned_store alu
      else begin
        charge_mem_latency m;
        match Metal_hw.Bus.store m.bus ~width:Instr.Word ~addr:alu sval with
        | Ok () ->
          note_store m alu;
          no_writeback m
        | Error cause -> except m cause alu
      end
    | Instr.Tlbw _ ->
      Metal_hw.Tlb.insert_packed m.tlb ~tag:alu ~data:sval;
      no_writeback m
    | Instr.Tlbflush _ ->
      if alu = Word.mask then Metal_hw.Tlb.flush_all m.tlb
      else Metal_hw.Tlb.flush_asid m.tlb ~asid:(alu land 0xFF);
      no_writeback m
    | Instr.Tlbprobe { rd; _ } ->
      let asid = m.ctrl.(Csr.asid) land 0xFF in
      writeback m rd (Metal_hw.Tlb.probe_packed m.tlb ~asid ~vaddr:alu)
    | Instr.Gprr { rd; _ } -> writeback m rd m.regs.(alu land 31)
    | Instr.Gprw _ ->
      let idx = alu land 31 in
      if idx <> 0 then m.regs.(idx) <- sval;
      no_writeback m
    | Instr.Iceptset _ ->
      ctrl_write m (Csr.icept_handler (alu land 15)) (sval + 1);
      no_writeback m
    | Instr.Iceptclr _ ->
      ctrl_write m (Csr.icept_handler (alu land 15)) 0;
      no_writeback m
    | Instr.Mcsrr { rd; csr } -> writeback m rd (ctrl_read m csr)
    | Instr.Mcsrw { csr; _ } ->
      ctrl_write m csr alu;
      no_writeback m
    end
