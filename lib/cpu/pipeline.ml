open Machine
module P = Predecode
module B = Blockcache
module Ev = Metal_trace.Event
module S = Semantics

(* The stage functions below mutate the machine's latch records in
   place and return int-encoded outcomes instead of options/results:
   together with the predecoded-instruction cache this makes [step]
   allocation-free in steady state (allocation survives only on rare
   paths — faults, events, traces, cache fills).  What each
   instruction does lives in [Semantics]; this file holds the latch
   storage, forwarding, hazards, fetch scheduling and the two cycle
   drivers ([step_fast] and the block stepper). *)

(* ------------------------------------------------------------------ *)
(* Latch-side helpers                                                  *)

(* Destination GPR, 0 when the instruction writes none (or targets x0,
   which all consumers ignore).  Allocation-free counterpart of
   [Instr.writes_gpr]. *)
let instr_dst = function
  | Instr.Lui { rd; _ } | Instr.Auipc { rd; _ } | Instr.Jal { rd; _ }
  | Instr.Jalr { rd; _ } | Instr.Load { rd; _ } | Instr.Op_imm { rd; _ }
  | Instr.Op { rd; _ } -> rd
  | Instr.Metal m ->
    begin match m with
    | Instr.Rmr { rd; _ } | Instr.Mld { rd; _ } -> rd
    | Instr.Feature
        ( Instr.Physld { rd; _ } | Instr.Tlbprobe { rd; _ }
        | Instr.Gprr { rd; _ } | Instr.Mcsrr { rd; _ } ) -> rd
    | Instr.Feature
        ( Instr.Physst _ | Instr.Tlbw _ | Instr.Tlbflush _ | Instr.Gprw _
        | Instr.Iceptset _ | Instr.Iceptclr _ | Instr.Mcsrw _ )
    | Instr.Menter _ | Instr.Mexit | Instr.Wmr _ | Instr.Mst _ -> 0
    end
  | Instr.Branch _ | Instr.Store _ | Instr.Ecall | Instr.Ebreak
  | Instr.Fence -> 0

let uop_dst = function
  | U_instr i -> instr_dst i
  | U_event _ | U_poison _ -> 0

(* The [~squash] action handed to [Semantics]: invalidate every latch,
   MEM/WB included. *)
let squash m =
  m.if_id.fvalid <- false;
  m.id_ex.dvalid <- false;
  m.ex_mem.xvalid <- false;
  m.wb_rd <- 0

(* ------------------------------------------------------------------ *)
(* MEM stage                                                           *)

let mem_writeback m rd value =
  if rd = 0 then m.wb_rd <- 0
  else begin
    m.wb_rd <- rd;
    m.wb_value <- value
  end;
  let x = m.ex_mem in
  S.retire m ~pc:x.xpc ~metal:x.xmetal x.xuop;
  true

let mem_no_writeback m =
  m.wb_rd <- 0;
  let x = m.ex_mem in
  S.retire m ~pc:x.xpc ~metal:x.xmetal x.xuop;
  true

let mem_except m cause tval =
  let x = m.ex_mem in
  m.wb_rd <- 0;
  S.raise_exception m ~squash ~cause ~epc:x.xpc ~tval ~metal:x.xmetal;
  false

(* Returns [true] when the cycle may continue through EX/ID/IF;
   [false] when MEM flushed the pipe (exception or slow-path
   transition) or halted the machine. *)
let do_mem m =
  let x = m.ex_mem in
  if not x.xvalid then begin
    m.stats.Stats.bubbles <- m.stats.Stats.bubbles + 1;
    m.wb_rd <- 0;
    true
  end
  else
    match x.xuop with
    | U_poison { cause; tval } -> mem_except m cause tval
    | U_event { kind; writes } ->
      S.commit_event m kind writes;
      mem_no_writeback m
    | U_instr instr ->
      begin match instr with
      | Instr.Load { width; unsigned; rd; _ } ->
        let vaddr = x.alu in
        if vaddr land S.width_alignment width <> 0 then
          mem_except m Cause.Misaligned_load vaddr
        else begin
          let pa = S.translate m ~access:S.A_load ~metal:x.xmetal vaddr in
          if pa < 0 then mem_except m m.xlate_cause vaddr
          else begin
            S.charge_mem_latency m;
            S.charge_cache m m.dcache ~addr:pa ~fetch:false;
            match Metal_hw.Bus.load m.bus ~width ~addr:pa with
            | Error cause -> mem_except m cause vaddr
            | Ok v ->
              mem_writeback m rd (S.sign_extend_load ~width ~unsigned v)
          end
        end
      | Instr.Store { width; _ } ->
        let vaddr = x.alu in
        if vaddr land S.width_alignment width <> 0 then
          mem_except m Cause.Misaligned_store vaddr
        else begin
          let pa = S.translate m ~access:S.A_store ~metal:x.xmetal vaddr in
          if pa < 0 then mem_except m m.xlate_cause vaddr
          else begin
            S.charge_mem_latency m;
            S.charge_cache m m.dcache ~addr:pa ~fetch:false;
            match Metal_hw.Bus.store m.bus ~width ~addr:pa x.sval with
            | Error cause -> mem_except m cause vaddr
            | Ok () ->
              S.note_store m pa;
              mem_no_writeback m
          end
        end
      | Instr.Metal mi ->
        S.mem_metal m mi ~pc:x.xpc ~metal:x.xmetal ~alu:x.alu ~sval:x.sval
          ~writeback:mem_writeback ~no_writeback:mem_no_writeback
          ~except:mem_except ~squash
      | Instr.Ecall -> mem_except m Cause.Ecall 0
      | Instr.Ebreak ->
        if (not x.xmetal) && m.ctrl.(Csr.exc_handler Cause.Breakpoint) <> 0
        then mem_except m Cause.Breakpoint 0
        else begin
          S.retire m ~pc:x.xpc ~metal:x.xmetal x.xuop;
          m.wb_rd <- 0;
          m.halted <- Some (Halt_ebreak { pc = x.xpc; metal = x.xmetal });
          false
        end
      | Instr.Jal { rd; _ } | Instr.Jalr { rd; _ } ->
        let ok = mem_writeback m rd x.alu in
        S.link_hint m instr ~pc:x.xpc ~sval:x.sval;
        ok
      | Instr.Lui { rd; _ } | Instr.Auipc { rd; _ }
      | Instr.Op_imm { rd; _ } | Instr.Op { rd; _ } ->
        mem_writeback m rd x.alu
      | Instr.Branch _ | Instr.Fence -> mem_no_writeback m
      end

(* ------------------------------------------------------------------ *)
(* EX stage                                                            *)

(* Process the EX stage, filling [m.ex_mem] in place from [m.id_ex].
   Forwarding sources are passed as scalars snapshotted before MEM
   overwrote the latches: [fw_rd]/[fw_val] from last cycle's EX/MEM,
   [wb_rd]/[wb_val] from last cycle's MEM/WB.  Returns a taken-branch
   or jalr redirect encoded as [(target lsl 1) lor metal], or -1. *)
let do_ex m ~fw_rd ~fw_val ~wb_rd ~wb_val =
  let d = m.id_ex in
  let x = m.ex_mem in
  if not d.dvalid then begin
    x.xvalid <- false;
    -1
  end
  else begin
    (* Forward from the EX/MEM and MEM/WB latches of the previous
       cycle.  A load-like producer in EX/MEM would be a missed
       load-use stall; the decode-stage interlock prevents it. *)
    let rv1 =
      if d.rs1 = 0 then d.rv1
      else if fw_rd = d.rs1 then fw_val
      else if wb_rd = d.rs1 then wb_val
      else d.rv1
    in
    let rv2 =
      if d.rs2 = 0 then d.rv2
      else if fw_rd = d.rs2 then fw_val
      else if wb_rd = d.rs2 then wb_val
      else d.rv2
    in
    x.xvalid <- true;
    x.xpc <- d.dpc;
    x.xmetal <- d.dmetal;
    x.xuop <- d.duop;
    x.alu <- 0;
    x.sval <- 0;
    match d.duop with
    | U_poison _ | U_event _ -> -1
    | U_instr instr ->
      begin match instr with
      | Instr.Lui { imm; _ } ->
        x.alu <- Word.of_int (imm lsl 12);
        -1
      | Instr.Auipc { imm; _ } ->
        x.alu <- Word.add d.dpc (Word.of_int (imm lsl 12));
        -1
      | Instr.Jal _ ->
        x.alu <- Word.add d.dpc 4;
        -1
      | Instr.Jalr { offset; _ } ->
        let target = Word.logand (Word.add rv1 offset) (Word.lognot 1) in
        x.alu <- Word.add d.dpc 4;
        (* The target is dead for writeback but the profiler needs it
           at retire; sval is otherwise unused by jalr. *)
        x.sval <- target;
        (target lsl 1) lor (if d.dmetal then 1 else 0)
      | Instr.Branch { cond; offset; _ } ->
        if S.branch_taken cond rv1 rv2 then
          (Word.add d.dpc offset lsl 1) lor (if d.dmetal then 1 else 0)
        else -1
      | Instr.Load { offset; _ } ->
        x.alu <- Word.add rv1 offset;
        -1
      | Instr.Store { offset; _ } ->
        x.alu <- Word.add rv1 offset;
        x.sval <- rv2;
        -1
      | Instr.Op_imm { op; imm; _ } ->
        x.alu <- S.alu_compute op rv1 (Word.of_int imm);
        -1
      | Instr.Op { op; _ } ->
        x.alu <- S.alu_compute op rv1 rv2;
        -1
      | Instr.Ecall | Instr.Ebreak | Instr.Fence -> -1
      | Instr.Metal mi ->
        begin match mi with
        | Instr.Mld { offset; _ } -> x.alu <- Word.add rv1 offset
        | Instr.Mst { offset; _ } ->
          x.alu <- Word.add rv1 offset;
          x.sval <- rv2
        | Instr.Menter _ | Instr.Mexit | Instr.Rmr _ -> ()
        | Instr.Wmr _ -> x.alu <- rv1
        | Instr.Feature f ->
          begin match f with
          | Instr.Physld { offset; _ } -> x.alu <- Word.add rv1 offset
          | Instr.Physst { offset; _ } ->
            x.alu <- Word.add rv1 offset;
            x.sval <- rv2
          | Instr.Tlbw _ | Instr.Gprw _ | Instr.Iceptset _ ->
            x.alu <- rv1;
            x.sval <- rv2
          | Instr.Tlbflush _ | Instr.Tlbprobe _ | Instr.Gprr _
          | Instr.Iceptclr _ | Instr.Mcsrw _ -> x.alu <- rv1
          | Instr.Mcsrr _ -> ()
          end
        end;
        -1
      end
  end

(* ------------------------------------------------------------------ *)
(* ID stage                                                            *)

(* Decode [f.word] into the latch's predecode slots (the ablation path
   when the predecode cache is off, and uncacheable fetches).  Also
   folds in the mode-legality check: Metal instructions other than
   menter require Metal mode; menter requires normal mode (no hardware
   nesting). *)
let decode_into (f : fetched) =
  (match Decode.decode f.word with
   | Error _ ->
     f.flegal <- false;
     f.finstr <- nop_instr;
     f.fuop <- nop_uop;
     f.frs1 <- 0;
     f.frs2 <- 0
   | Ok instr ->
     let rs1, rs2 = S.sources_of instr in
     f.flegal <- S.legal_in_mode instr ~metal:f.fmetal;
     f.finstr <- instr;
     f.fuop <- U_instr instr;
     f.frs1 <- rs1;
     f.frs2 <- rs2);
  f.fdec_valid <- true

let id_set_dec (d : decoded) (f : fetched) uop rs1 rs2 rv1 rv2 =
  d.dvalid <- true;
  d.dpc <- f.fpc;
  d.dmetal <- f.fmetal;
  d.duop <- uop;
  d.rs1 <- rs1;
  d.rs2 <- rs2;
  d.rv1 <- rv1;
  d.rv2 <- rv2

let id_set_poison (d : decoded) (f : fetched) cause tval =
  d.dvalid <- true;
  d.dpc <- f.fpc;
  d.dmetal <- f.fmetal;
  d.duop <- U_poison { cause; tval };
  d.rs1 <- 0;
  d.rs2 <- 0;
  d.rv1 <- 0;
  d.rv2 <- 0

(* Outcome encoding: [id_stall] keeps IF/ID and inserts a bubble;
   [id_pass] means the latch was filled (or left invalid) with no
   redirect; any non-negative value is a decode-stage redirect
   [(target lsl 2) lor (to_metal lsl 1) lor combinational]. *)
let id_stall = -2
let id_pass = -1

let do_id m ~exm_wr_rd ~exm_wmreg =
  let f = m.if_id in
  let d = m.id_ex in
  if not f.fvalid then begin
    d.dvalid <- false;
    id_pass
  end
  else begin
    (* Interlock inputs from the decode now leaving ID (last cycle's
       ID/EX latch, about to be overwritten in place). *)
    let old_valid = d.dvalid in
    let old_dst = if old_valid then uop_dst d.duop else 0 in
    let old_at_mem = old_valid && S.uop_produces_at_mem d.duop in
    let old_wmreg = old_valid && S.uop_writes_mreg d.duop in
    match f.ffault with
    | Some cause ->
      id_set_poison d f cause f.fpc;
      id_pass
    | None ->
      if not f.fdec_valid then decode_into f;
      if not f.flegal then begin
        id_set_poison d f Cause.Illegal_instruction f.word;
        id_pass
      end
      else begin
        let instr = f.finstr in
        let rs1 = f.frs1 and rs2 = f.frs2 in
        let rv1 = m.regs.(rs1) and rv2 = m.regs.(rs2) in
        (* Load-use interlock against the instruction now in EX. *)
        if old_at_mem && old_dst <> 0 && (old_dst = rs1 || old_dst = rs2)
        then begin
          m.stats.Stats.load_use_stalls <-
            m.stats.Stats.load_use_stalls + 1;
          d.dvalid <- false;
          id_stall
        end
        else begin
          match S.intercept_handler m instr with
          | Some (cls, handler_value) when not f.fmetal ->
            (* Interception needs fresh operand values at decode. *)
            if (old_dst <> 0 && (old_dst = rs1 || old_dst = rs2))
               || (exm_wr_rd <> 0 && (exm_wr_rd = rs1 || exm_wr_rd = rs2))
            then begin
              m.stats.Stats.interlock_stalls <-
                m.stats.Stats.interlock_stalls + 1;
              d.dvalid <- false;
              id_stall
            end
            else begin
              let entry = handler_value - 1 in
              match Metal_hw.Mram.entry_addr m.mram entry with
              | None ->
                (* Mis-configured intercept: treat as illegal. *)
                id_set_poison d f Cause.Illegal_instruction f.word;
                id_pass
              | Some target ->
                let writes =
                  S.intercept_writes cls instr ~pc:f.fpc ~word:f.word ~rv1
                    ~rv2
                in
                id_set_dec d f
                  (U_event { kind = Event_intercept cls; writes })
                  rs1 rs2 rv1 rv2;
                emit m Ev.intercept (Icept.code cls) f.fpc;
                emit m Ev.mode_enter entry Ev.reason_intercept;
                (target lsl 2) lor 2 lor 1
            end
          | Some _ | None ->
            begin match instr with
            | Instr.Jal { offset; _ } ->
              id_set_dec d f f.fuop rs1 rs2 rv1 rv2;
              (Word.add f.fpc offset lsl 2) lor (if f.fmetal then 2 else 0)
            | Instr.Metal (Instr.Menter { entry })
              when m.config.Config.transition = Config.Fast_replacement ->
              begin match Metal_hw.Mram.entry_addr m.mram entry with
              | None ->
                id_set_poison d f Cause.Illegal_instruction f.word;
                id_pass
              | Some target ->
                let writes =
                  [ (Reg.Mconv.return_address, Word.add f.fpc 4) ]
                in
                id_set_dec d f
                  (U_event { kind = Event_menter entry; writes })
                  rs1 rs2 rv1 rv2;
                emit m Ev.mode_enter entry Ev.reason_menter;
                (target lsl 2) lor 2 lor 1
              end
            | Instr.Metal Instr.Mexit
              when m.config.Config.transition = Config.Fast_replacement ->
              if old_wmreg || exm_wmreg then begin
                m.stats.Stats.interlock_stalls <-
                  m.stats.Stats.interlock_stalls + 1;
                d.dvalid <- false;
                id_stall
              end
              else if S.mexit_return_lost m then begin
                (* The return address is unrecoverable: route the typed
                   fault to MEM like any other decode-stage poison
                   instead of jumping to garbage. *)
                id_set_poison d f Cause.Ecc_uncorrectable f.word;
                id_pass
              end
              else begin
                m.stats.Stats.mexits <- m.stats.Stats.mexits + 1;
                d.dvalid <- false;
                let target = get_mreg m Reg.Mconv.return_address in
                emit m Ev.mode_exit target 0;
                (target lsl 2) lor 1
              end
            | _ ->
              id_set_dec d f f.fuop rs1 rs2 rv1 rv2;
              id_pass
            end
        end
      end
  end

(* ------------------------------------------------------------------ *)
(* IF stage                                                            *)

let if_set_ok m word =
  let f = m.if_id in
  let pc = m.fetch_pc in
  m.fetch_pc <- Word.add pc 4;
  f.fvalid <- true;
  f.fpc <- pc;
  f.fmetal <- m.fetch_metal;
  f.word <- word;
  f.ffault <- None;
  f.fdec_valid <- false

(* Fetch served from a (just filled or hit) predecode entry: the latch
   carries the cached decode so ID skips [Decode.decode]. *)
let if_set_pre m (e : uop P.entry) =
  let f = m.if_id in
  let pc = m.fetch_pc in
  m.fetch_pc <- Word.add pc 4;
  f.fvalid <- true;
  f.fpc <- pc;
  f.fmetal <- m.fetch_metal;
  f.word <- e.P.word;
  f.ffault <- None;
  f.fdec_valid <- true;
  f.flegal <- e.P.legal;
  f.finstr <- e.P.instr;
  f.fuop <- e.P.uop;
  f.frs1 <- e.P.rs1;
  f.frs2 <- e.P.rs2

let if_set_fault m cause =
  let f = m.if_id in
  m.fetch_frozen <- true;
  f.fvalid <- true;
  f.fpc <- m.fetch_pc;
  f.fmetal <- m.fetch_metal;
  f.word <- 0;
  f.ffault <- Some cause;
  f.fdec_valid <- false

let fill_entry (e : uop P.entry) ~tag ~metal word =
  e.P.tag <- tag;
  e.P.word <- word;
  match Decode.decode word with
  | Error _ ->
    e.P.legal <- false;
    e.P.instr <- nop_instr;
    e.P.uop <- nop_uop;
    e.P.rs1 <- 0;
    e.P.rs2 <- 0
  | Ok instr ->
    let rs1, rs2 = S.sources_of instr in
    e.P.legal <- S.legal_in_mode instr ~metal;
    e.P.instr <- instr;
    e.P.uop <- U_instr instr;
    e.P.rs1 <- rs1;
    e.P.rs2 <- rs2

let do_if m =
  if m.fetch_frozen then m.if_id.fvalid <- false
  else begin
    let pc = m.fetch_pc in
    if m.fetch_metal then begin
      S.charge_mram_fetch m ~pc;
      if m.use_predecode then begin
        let p = m.predecode in
        P.sync_mram p ~version:(Metal_hw.Mram.version m.mram);
        let e = p.P.entries.((pc lsr 2) land p.P.mask) in
        let tag = (pc lsl 1) lor 1 in
        if e.P.tag = tag then begin
          p.P.hits <- p.P.hits + 1;
          if_set_pre m e
        end
        else begin
          match Metal_hw.Mram.fetch m.mram ~addr:pc with
          | None -> if_set_fault m Cause.Access_fault
          | Some word ->
            p.P.fills <- p.P.fills + 1;
            fill_entry e ~tag ~metal:true word;
            if_set_pre m e
        end
      end
      else begin
        match Metal_hw.Mram.fetch m.mram ~addr:pc with
        | Some word -> if_set_ok m word
        | None -> if_set_fault m Cause.Access_fault
      end
    end
    else if pc land 3 <> 0 then if_set_fault m Cause.Misaligned_fetch
    else begin
      let pa = S.translate m ~access:S.A_fetch ~metal:false pc in
      if pa < 0 then if_set_fault m m.xlate_cause
      else begin
        S.charge_cache m m.icache ~addr:pa ~fetch:true;
        if m.use_predecode then begin
          let mem = Metal_hw.Bus.memory m.bus in
          let p = m.predecode in
          P.sync_phys p ~version:(Metal_hw.Phys_mem.version mem);
          let e = p.P.entries.((pa lsr 2) land p.P.mask) in
          let tag = pa lsl 1 in
          if e.P.tag = tag then begin
            p.P.hits <- p.P.hits + 1;
            if_set_pre m e
          end
          else begin
            match Metal_hw.Bus.load m.bus ~width:Instr.Word ~addr:pa with
            | Error cause -> if_set_fault m cause
            | Ok word ->
              if Metal_hw.Phys_mem.in_range mem ~addr:pa ~width:4 then begin
                p.P.fills <- p.P.fills + 1;
                fill_entry e ~tag ~metal:false word;
                if_set_pre m e
              end
              else
                (* Device-backed fetch: never cached; ID decodes. *)
                if_set_ok m word
          end
        end
        else begin
          match Metal_hw.Bus.load m.bus ~width:Instr.Word ~addr:pa with
          | Ok word -> if_set_ok m word
          | Error cause -> if_set_fault m cause
        end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Interrupt delivery                                                  *)

let metal_in_flight m =
  (m.if_id.fvalid && m.if_id.fmetal)
  || (m.id_ex.dvalid && m.id_ex.dmetal)
  || (m.ex_mem.xvalid && m.ex_mem.xmetal)

(* mroutine-entry micro-ops must not be squashed mid-entry: their
   fetch redirect has already happened, so squashing them would lose
   the Metal-register writes the mroutine is about to read. *)
let entry_in_flight m =
  (m.id_ex.dvalid
   && match m.id_ex.duop with U_event _ -> true | U_instr _ | U_poison _ -> false)
  || (m.ex_mem.xvalid
      && match m.ex_mem.xuop with
         | U_event _ -> true
         | U_instr _ | U_poison _ -> false)

let try_interrupt m =
  let enabled = m.ctrl.(Csr.int_enable) in
  if enabled = 0 || m.fetch_metal || metal_in_flight m || entry_in_flight m
  then false
  else
    match Metal_hw.Intc.highest_pending m.intc ~enabled with
    | None -> false
    | Some irq ->
      let handler_value = m.ctrl.(Csr.int_handler irq) in
      if handler_value = 0 then false
      else begin
        let epc =
          if m.ex_mem.xvalid then m.ex_mem.xpc
          else if m.id_ex.dvalid then m.id_ex.dpc
          else if m.if_id.fvalid then m.if_id.fpc
          else m.fetch_pc
        in
        S.deliver_interrupt m ~squash ~irq ~handler_value ~epc
      end

(* ------------------------------------------------------------------ *)
(* Cycle driver                                                        *)

(* The MEM→IF half of a cycle, after the register-file writeback has
   already happened with the MEM/WB scalars passed in.  Shared between
   [step_fast] and the block stepper's bail paths (which re-run a
   partially compiled cycle generically from this point). *)
let cycle_after_wb m ~wb_rd ~wb_val =
  let x = m.ex_mem in
  let x_dst = if x.xvalid then uop_dst x.xuop else 0 in
  let x_at_mem = x.xvalid && S.uop_produces_at_mem x.xuop in
  let fw_rd = if x_at_mem then 0 else x_dst in
  let fw_val = x.alu in
  let exm_wmreg = x.xvalid && S.uop_writes_mreg x.xuop in
  if try_interrupt m then ()
  else if not (do_mem m) then ()
  else begin
    let r = do_ex m ~fw_rd ~fw_val ~wb_rd ~wb_val in
    if r >= 0 then begin
      m.id_ex.dvalid <- false;
      m.if_id.fvalid <- false;
      m.stats.Stats.flushes <- m.stats.Stats.flushes + 1;
      emit m Ev.flush Ev.flush_redirect 0;
      S.redirect m ~target:(r lsr 1) ~metal:(r land 1 = 1)
    end
    else begin
      let c = do_id m ~exm_wr_rd:x_dst ~exm_wmreg in
      if c = id_pass then do_if m
      else if c >= 0 then begin
        S.redirect m ~target:(c lsr 2) ~metal:(c land 2 <> 0);
        if c land 1 = 1 then do_if m else m.if_id.fvalid <- false
      end
      (* c = id_stall: keep IF/ID, no fetch this cycle. *)
    end
  end

(* WB: regfile writes happen in the first half of the cycle so
   decode-stage reads observe them.  The scalars later stages need
   from last cycle's latches are snapshotted here, before MEM/EX
   overwrite those latches in place. *)
let cycle_body m =
  let wb_rd = m.wb_rd in
  let wb_val = m.wb_value in
  if wb_rd <> 0 then m.regs.(wb_rd) <- wb_val;
  m.wb_rd <- 0;
  cycle_after_wb m ~wb_rd ~wb_val

let step_fast m =
  match m.halted with
  | Some _ -> ()
  | None ->
    m.stats.Stats.cycles <- m.stats.Stats.cycles + 1;
    S.timer_tick m;
    Metal_hw.Bus.tick m.bus ~cycle:m.stats.Stats.cycles;
    if m.stall_cycles > 0 then begin
      m.stall_cycles <- m.stall_cycles - 1;
      if m.stall_cycles = 0 then emit m Ev.stall_end 0 0
    end
    else cycle_body m

(* ------------------------------------------------------------------ *)
(* Block stepper                                                       *)

(* The block stepper executes straight-line superblocks with the stage
   state held in locals instead of the latch records, eliminating the
   per-cycle latch traffic and uop dispatch of [step_fast].  It is
   engaged per block by [step_block]; anything it cannot prove
   cycle-exact bails to the generic machinery, so Stats, halt cause
   and (when armed) the probe event stream are bit-identical to
   [step_fast] and [Pipeline_slow] by construction:

   - engage guards refuse whole categories up front (armed probe or
     trace, Metal mode, pending stalls/interrupts, armed timer or
     interception, unprovable fetch translation);
   - a few "feeder" cycles run the generic stages with fetch served
     from the block until the three latches hold a dense in-block
     window, which is verified against the cached slots by content;
   - the compiled loop then advances MEM/EX/ID/IF entirely from the
     slot array, re-proving the frozen preconditions (page generation,
     TLB generation, interrupt lines) at every cycle boundary and
     rebuilding the latch records exactly as [step_fast] would have
     left them on every exit path. *)

let block_max_slots = 64

(* Even a two-slot block (tightest countdown loop: op + back-branch)
   pays off once chained; a lone control transfer never does. *)
let block_min_slots = 2

(* Classify one decoded instruction for the block builder.  [None]
   stops the block before the instruction: Metal instructions (mode
   transitions), ecall/ebreak (MEM-stage control flow) and anything
   else the compiled stepper does not model. *)
let mk_slot ~prev word instr =
  let slot ~cls ?(rd = 0) ?(rs1 = 0) ?(rs2 = 0) ?(imm = 0)
      ?(op = Instr.Add) ?(cond = Instr.Beq) ?(width = Instr.Word)
      ?(unsigned = false) () =
    let conflict_prev =
      match prev with
      | Some (p : uop B.slot) ->
        p.B.at_mem && p.B.rd <> 0 && (p.B.rd = rs1 || p.B.rd = rs2)
      | None -> false
    in
    Some
      { B.cls; rd; rs1; rs2; imm; op; cond; width; unsigned;
        amask = S.width_alignment width;
        wbytes =
          (match width with Instr.Byte -> 1 | Instr.Half -> 2 | Instr.Word -> 4);
        at_mem = cls = B.cls_load;
        conflict_prev; word; instr;
        uop = U_instr instr;
        chain = None }
  in
  match instr with
  | Instr.Op { op; rd; rs1; rs2 } -> slot ~cls:B.cls_op ~rd ~rs1 ~rs2 ~op ()
  | Instr.Op_imm { op; rd; rs1; imm } ->
    (* [do_ex] computes with [Word.of_int imm]; precompute it. *)
    slot ~cls:B.cls_op_imm ~rd ~rs1 ~imm:(Word.of_int imm) ~op ()
  | Instr.Lui { rd; imm } ->
    slot ~cls:B.cls_lui ~rd ~imm:(Word.of_int (imm lsl 12)) ()
  | Instr.Auipc { rd; imm } ->
    slot ~cls:B.cls_auipc ~rd ~imm:(Word.of_int (imm lsl 12)) ()
  | Instr.Load { width; unsigned; rd; rs1; offset } ->
    slot ~cls:B.cls_load ~rd ~rs1 ~imm:offset ~width ~unsigned ()
  | Instr.Store { width; rs1; rs2; offset } ->
    slot ~cls:B.cls_store ~rs1 ~rs2 ~imm:offset ~width ()
  | Instr.Fence -> slot ~cls:B.cls_fence ()
  | Instr.Branch { cond; rs1; rs2; offset } ->
    slot ~cls:B.cls_branch ~rs1 ~rs2 ~imm:offset ~cond ()
  | Instr.Jal { rd; offset } -> slot ~cls:B.cls_jal ~rd ~imm:offset ()
  | Instr.Jalr { rd; rs1; offset } ->
    slot ~cls:B.cls_jalr ~rd ~rs1 ~imm:offset ()
  | Instr.Ecall | Instr.Ebreak | Instr.Metal _ -> None

(* Build (and cache) the superblock starting at physical address [pa]:
   scan forward decoding instructions — running through conditional
   branches, whose not-taken path continues in the block — until an
   unconditional transfer (included as the final slot), an unmodelled
   instruction, a page boundary, the end of RAM, or the length cap.  A
   start that yields fewer than [block_min_slots] slots is cached as
   an empty block so the next engage bails in O(1). *)
let build_block m ~pa =
  let bc = m.blockcache in
  let mem = Metal_hw.Bus.memory m.bus in
  let page = pa lsr 12 in
  let page_end = (page + 1) lsl 12 in
  let rec scan acc addr prev n =
    if n >= block_max_slots || addr + 4 > page_end
       || not (Metal_hw.Phys_mem.in_range mem ~addr ~width:4)
    then (acc, -1)
    else begin
      let word = Metal_hw.Phys_mem.read32 mem addr in
      match Decode.decode word with
      | Error _ -> (acc, -1)
      | Ok instr ->
        (match mk_slot ~prev word instr with
         | None -> (acc, -1)
         | Some s ->
           (* Conditional branches stay mid-block: the not-taken path
              continues compiled, the taken path chains or exits.
              Only unconditional transfers end the superblock. *)
           if s.B.cls >= B.cls_jal then (s :: acc, s.B.cls)
           else scan (s :: acc) (addr + 4) (Some s) (n + 1))
    end
  in
  let rev_slots, term = scan [] pa None 0 in
  let slots = Array.of_list (List.rev rev_slots) in
  let n = Array.length slots in
  let n = if n >= block_min_slots then n else 0 in
  { B.pbase = pa;
    page;
    n;
    slots = (if n = 0 then [||] else slots);
    term;
    built_page_gen = B.page_gen bc ~page;
    built_epoch = bc.B.epoch;
    dtlb_vpn = -1;
    dtlb_base = 0;
    dtlb_load_ok = false;
    dtlb_store_ok = false;
    dtlb_gen = -1;
    dtlb_asid = -1;
    dtlb_perms = 0 }

(* Rebuild the three latch records from compiled-loop state so every
   generic path (and the next engage) sees exactly what [step_fast]
   would have left in them.  [id_i]: a slot index of [b], or -1 for an
   invalid IF/ID latch (warm-up after a redirect), or -2 when the latch
   already holds real (generically fetched) content that must be
   preserved (drain past the block end).  The MEM slot lives in [mb]
   ([b] except for the first cycle after a block→block chain, which
   still retires the predecessor's terminator). *)
let mat_latches m (b : uop B.block) vbase ~(mb : uop B.block) ~mb_vbase
    ~mem_i ~mem_alu ~mem_sval ~ex_i ~ex_rv1 ~ex_rv2 ~id_i =
  let f = m.if_id in
  if id_i = -1 then f.fvalid <- false
  else if id_i >= 0 then begin
    let s = b.B.slots.(id_i) in
    f.fvalid <- true;
    f.fpc <- vbase + (id_i lsl 2);
    f.fmetal <- false;
    f.word <- s.B.word;
    f.ffault <- None;
    f.fdec_valid <- true;
    f.flegal <- true;
    f.finstr <- s.B.instr;
    f.fuop <- s.B.uop;
    f.frs1 <- s.B.rs1;
    f.frs2 <- s.B.rs2
  end;
  let d = m.id_ex in
  if ex_i < 0 then d.dvalid <- false
  else begin
    let s = b.B.slots.(ex_i) in
    d.dvalid <- true;
    d.dpc <- vbase + (ex_i lsl 2);
    d.dmetal <- false;
    d.duop <- s.B.uop;
    d.rs1 <- s.B.rs1;
    d.rs2 <- s.B.rs2;
    d.rv1 <- ex_rv1;
    d.rv2 <- ex_rv2
  end;
  let x = m.ex_mem in
  if mem_i < 0 then x.xvalid <- false
  else begin
    let s = mb.B.slots.(mem_i) in
    x.xvalid <- true;
    x.xpc <- mb_vbase + (mem_i lsl 2);
    x.xmetal <- false;
    x.xuop <- s.B.uop;
    x.alu <- mem_alu;
    x.sval <- mem_sval
  end

(* Serve the fetch from block [b] when the fetch unit points inside it
   and the conditions proved at engage still hold; fall back to the
   generic fetch otherwise.  Equivalent to a TLB hit (counted) plus a
   predecode hit. *)
let feed_if m (b : uop B.block) vbase ~paging ~gen0 =
  let pc = m.fetch_pc in
  let off = pc - vbase in
  if m.fetch_frozen || m.fetch_metal || off < 0 || off land 3 <> 0
     || off asr 2 >= b.B.n
     || not (B.valid m.blockcache b)
     || (paging && Metal_hw.Tlb.generation m.tlb <> gen0)
  then do_if m
  else begin
    if paging then m.stats.Stats.tlb_hits <- m.stats.Stats.tlb_hits + 1;
    let s = b.B.slots.(off asr 2) in
    let f = m.if_id in
    m.fetch_pc <- Word.add pc 4;
    f.fvalid <- true;
    f.fpc <- pc;
    f.fmetal <- false;
    f.word <- s.B.word;
    f.ffault <- None;
    f.fdec_valid <- true;
    f.flegal <- true;
    f.finstr <- s.B.instr;
    f.fuop <- s.B.uop;
    f.frs1 <- s.B.rs1;
    f.frs2 <- s.B.rs2
  end

(* One generic cycle with the fetch served from the block: bit-identical
   to [step_fast] except that an in-block fetch skips the (provably
   hitting) TLB lookup and predecode probe. *)
let fed_cycle m (b : uop B.block) vbase ~paging ~gen0 =
  m.stats.Stats.cycles <- m.stats.Stats.cycles + 1;
  S.timer_tick m;
  Metal_hw.Bus.tick m.bus ~cycle:m.stats.Stats.cycles;
  if m.stall_cycles > 0 then begin
    m.stall_cycles <- m.stall_cycles - 1;
    if m.stall_cycles = 0 then emit m Ev.stall_end 0 0
  end
  else begin
    let wb_rd = m.wb_rd in
    let wb_val = m.wb_value in
    if wb_rd <> 0 then m.regs.(wb_rd) <- wb_val;
    m.wb_rd <- 0;
    let x = m.ex_mem in
    let x_dst = if x.xvalid then uop_dst x.xuop else 0 in
    let x_at_mem = x.xvalid && S.uop_produces_at_mem x.xuop in
    let fw_rd = if x_at_mem then 0 else x_dst in
    let fw_val = x.alu in
    let exm_wmreg = x.xvalid && S.uop_writes_mreg x.xuop in
    if try_interrupt m then ()
    else if not (do_mem m) then ()
    else begin
      let r = do_ex m ~fw_rd ~fw_val ~wb_rd ~wb_val in
      if r >= 0 then begin
        m.id_ex.dvalid <- false;
        m.if_id.fvalid <- false;
        m.stats.Stats.flushes <- m.stats.Stats.flushes + 1;
        emit m Ev.flush Ev.flush_redirect 0;
        S.redirect m ~target:(r lsr 1) ~metal:(r land 1 = 1)
      end
      else begin
        let c = do_id m ~exm_wr_rd:x_dst ~exm_wmreg in
        if c = id_pass then feed_if m b vbase ~paging ~gen0
        else if c >= 0 then begin
          S.redirect m ~target:(c lsr 2) ~metal:(c land 2 <> 0);
          if c land 1 = 1 then feed_if m b vbase ~paging ~gen0
          else m.if_id.fvalid <- false
        end
      end
    end
  end

(* Engageable latch windows, youngest-first.  [W_full k]: EX/MEM holds
   slot [k], ID/EX [k+1], IF/ID [k+2], fetch at [k+3] (which may be
   one past the end).  [W_pair j]: EX/MEM empty, ID/EX holds slot [j],
   IF/ID [j+1].  [W_front j]: only IF/ID is occupied, holding slot
   [j].  The partial shapes are how blocks shorter than three slots —
   and pipes refilling after a squash — engage at all.  Latch contents
   are compared against the cached slots: a block rebuilt after SMC
   may disagree with latches fetched before the rebuild. *)
type window = W_none | W_full of int | W_pair of int | W_front of int

let uop_matches_slot u (s : uop B.slot) =
  match u with
  | U_instr i -> i == s.B.instr || i = s.B.instr
  | U_event _ | U_poison _ -> false

let find_window m (b : uop B.block) vbase =
  let f = m.if_id and d = m.id_ex and x = m.ex_mem in
  if m.stall_cycles > 0 || m.fetch_frozen || m.fetch_metal
     || not (f.fvalid && f.fdec_valid && f.ffault = None && not f.fmetal)
  then W_none
  else begin
    let off = f.fpc - vbase in
    let j = off asr 2 in
    if off < 0 || off land 3 <> 0 || j >= b.B.n
       || m.fetch_pc <> vbase + ((j + 1) lsl 2)
       || f.word <> b.B.slots.(j).B.word
    then W_none
    else if not d.dvalid then
      (if x.xvalid then W_none else W_front j)
    else if d.dmetal || j < 1
            || d.dpc <> vbase + ((j - 1) lsl 2)
            || not (uop_matches_slot d.duop b.B.slots.(j - 1))
    then W_none
    else if not x.xvalid then W_pair (j - 1)
    else if x.xmetal || j < 2
            || x.xpc <> vbase + ((j - 2) lsl 2)
            || not (uop_matches_slot x.xuop b.B.slots.(j - 2))
    then W_none
    else W_full (j - 2)
  end

(* MEM stage of the compiled loop.  Returns -1 when the access cannot
   be proved regular (TLB miss or permission fault, device window,
   misalignment) and the cycle must be finished generically; otherwise
   a packed [smc lsl 37 | rd lsl 32 | value] writeback (rd = 0 for no
   writeback).  Nothing is committed on the -1 path, so the generic
   redo charges stats exactly once. *)
let compiled_mem m (b : uop B.block) ~fetch_page ~paging ~gen0 ~asid ~perms
    ~mem_i ~mem_alu ~mem_sval =
  let stats = m.stats in
  if mem_i < 0 then begin
    stats.Stats.bubbles <- stats.Stats.bubbles + 1;
    0
  end
  else begin
    let s = b.B.slots.(mem_i) in
    let cls = s.B.cls in
    if cls = B.cls_load || cls = B.cls_store then begin
      let vaddr = mem_alu in
      if vaddr land s.B.amask <> 0 then -1
      else begin
        let pa =
          if not paging then vaddr
          else begin
            let vpn = vaddr lsr 12 in
            if not (b.B.dtlb_vpn = vpn && b.B.dtlb_gen = gen0
                    && b.B.dtlb_asid = asid && b.B.dtlb_perms = perms)
            then begin
              (* Refill the block's inline entry with a stats-free
                 peek ([Tlb.lookup] is pure; the real hit is counted
                 below, only once the whole access is proved). *)
              match Metal_hw.Tlb.lookup m.tlb ~asid ~vpn with
              | Some e ->
                b.B.dtlb_vpn <- vpn;
                b.B.dtlb_base <- e.Metal_hw.Tlb.ppn lsl 12;
                b.B.dtlb_load_ok <-
                  e.Metal_hw.Tlb.r
                  && Word.bit (2 * e.Metal_hw.Tlb.pkey) perms = 0;
                b.B.dtlb_store_ok <-
                  e.Metal_hw.Tlb.w
                  && Word.bit ((2 * e.Metal_hw.Tlb.pkey) + 1) perms = 0;
                b.B.dtlb_gen <- gen0;
                b.B.dtlb_asid <- asid;
                b.B.dtlb_perms <- perms
              | None -> b.B.dtlb_vpn <- -1
            end;
            if b.B.dtlb_vpn = vpn
               && (if cls = B.cls_load then b.B.dtlb_load_ok
                   else b.B.dtlb_store_ok)
            then b.B.dtlb_base lor (vaddr land 0xFFF)
            else -1
          end
        in
        if pa < 0 then -1
        else begin
          let mem = Metal_hw.Bus.memory m.bus in
          if not (Metal_hw.Phys_mem.in_range mem ~addr:pa ~width:s.B.wbytes)
          then -1
          else begin
            if paging then
              stats.Stats.tlb_hits <- stats.Stats.tlb_hits + 1;
            stats.Stats.instructions <- stats.Stats.instructions + 1;
            if cls = B.cls_load then begin
              let raw =
                match s.B.width with
                | Instr.Word -> Metal_hw.Phys_mem.read32 mem pa
                | Instr.Half -> Metal_hw.Phys_mem.read16 mem pa
                | Instr.Byte -> Metal_hw.Phys_mem.read8 mem pa
              in
              if s.B.rd = 0 then 0
              else
                (s.B.rd lsl 32)
                lor S.sign_extend_load ~width:s.B.width ~unsigned:s.B.unsigned
                      raw
            end
            else begin
              (match s.B.width with
               | Instr.Word -> Metal_hw.Phys_mem.write32 mem pa mem_sval
               | Instr.Half -> Metal_hw.Phys_mem.write16 mem pa mem_sval
               | Instr.Byte -> Metal_hw.Phys_mem.write8 mem pa mem_sval);
              S.note_store m pa;
              (* A store into the currently-fetching block's page: the
                 rest of this cycle (the fetch) and the next cycle
                 boundary must see the invalidation. *)
              if pa lsr 12 = fetch_page then 1 lsl 37 else 0
            end
          end
        end
      end
    end
    else begin
      (* ALU classes, fence, branch, jal(r): plain retire with the
         EX result (rd = 0 slots write nothing). *)
      stats.Stats.instructions <- stats.Stats.instructions + 1;
      if s.B.rd = 0 then 0 else (s.B.rd lsl 32) lor mem_alu
    end
  end

(* The compiled loop.  State at each cycle boundary, mirroring the
   latches: [mem_i]/[mem_alu]/[mem_sval] the EX/MEM slot (-1 bubble,
   indexing [mb]), [ex_i]/[ex_rv1]/[ex_rv2] the ID/EX slot (-1
   bubble), [id_i] the IF/ID slot (-1 invalid, -2 real generic
   content), [fi] the fetch index (may be past [n]), and the MEM/WB
   scalars.  Every exit rebuilds the machine latches and flushes the
   per-run counters.  [mb]/[mb_vbase] name the block the MEM slot
   belongs to: [b] except for the first cycle after a block→block
   chain, which still retires the predecessor's terminator. *)
let rec compiled_cycle m (b : uop B.block) vbase ~(mb : uop B.block)
    ~mb_vbase ~paging ~gen0 ~asid ~perms ~enabled ~deadline ~cyc0 ~mem_i
    ~mem_alu ~mem_sval ~ex_i ~ex_rv1 ~ex_rv2 ~id_i ~fi ~wb_rd ~wb_val =
  let bc = m.blockcache in
  let stats = m.stats in
  if stats.Stats.cycles >= deadline
     || b.B.built_page_gen <> B.page_gen bc ~page:b.B.page
     || b.B.built_epoch <> bc.B.epoch
     || (paging && Metal_hw.Tlb.generation m.tlb <> gen0)
  then begin
    (* Clean cycle boundary: leave compiled mode without consuming a
       cycle.  (After SMC the materialized slots are still the ones
       whose content the window proved, so the latches match what
       step_fast would hold.) *)
    mat_latches m b vbase ~mb ~mb_vbase ~mem_i ~mem_alu ~mem_sval ~ex_i
      ~ex_rv1 ~ex_rv2 ~id_i;
    m.wb_rd <- wb_rd;
    m.wb_value <- wb_val;
    bc.B.block_cycles <- bc.B.block_cycles + (stats.Stats.cycles - cyc0);
    B.bail bc
      (if stats.Stats.cycles >= deadline then B.bail_deadline
       else B.bail_version)
  end
  else begin
    stats.Stats.cycles <- stats.Stats.cycles + 1;
    (* timer_cmp was 0 at engage and only Metal code can arm it, so
       [timer_tick] is a proven no-op here. *)
    Metal_hw.Bus.tick m.bus ~cycle:stats.Stats.cycles;
    if enabled <> 0 && enabled land Metal_hw.Intc.pending m.intc <> 0
    then begin
      (* A device raised an enabled line mid-block: the cycle has
         started (cycle count and bus tick), so finish it generically —
         [try_interrupt] inside [cycle_body] replays the precise
         delivery rules. *)
      mat_latches m b vbase ~mb ~mb_vbase ~mem_i ~mem_alu ~mem_sval ~ex_i
        ~ex_rv1 ~ex_rv2 ~id_i;
      m.wb_rd <- wb_rd;
      m.wb_value <- wb_val;
      bc.B.block_cycles <- bc.B.block_cycles + (stats.Stats.cycles - cyc0);
      B.bail bc B.bail_irq;
      cycle_body m
    end
    else begin
      (* WB *)
      if wb_rd <> 0 then m.regs.(wb_rd) <- wb_val;
      (* MEM *)
      let packed =
        compiled_mem m mb ~fetch_page:b.B.page ~paging ~gen0 ~asid ~perms
          ~mem_i ~mem_alu ~mem_sval
      in
      if packed < 0 then begin
        (* Unprovable access: restore the pre-MEM latch shape and
           re-run the second half of the cycle generically (nothing
           was committed, so MEM charges its stats exactly once). *)
        mat_latches m b vbase ~mb ~mb_vbase ~mem_i ~mem_alu ~mem_sval
          ~ex_i ~ex_rv1 ~ex_rv2 ~id_i;
        m.wb_rd <- 0;
        bc.B.block_cycles <- bc.B.block_cycles + (stats.Stats.cycles - cyc0);
        B.bail bc B.bail_mem;
        cycle_after_wb m ~wb_rd ~wb_val
      end
      else begin
        let nwb_rd = (packed lsr 32) land 31 in
        let nwb_val = packed land 0xFFFFFFFF in
        let smc = packed lsr 37 <> 0 in
        let x_dst_pre = if mem_i >= 0 then mb.B.slots.(mem_i).B.rd else 0 in
        let fw_rd =
          if mem_i >= 0 && not mb.B.slots.(mem_i).B.at_mem then
            mb.B.slots.(mem_i).B.rd
          else 0
        in
        let fw_val = mem_alu in
        (* EX *)
        if ex_i < 0 then
          finish_cycle m b vbase ~paging ~gen0 ~asid ~perms ~enabled
            ~deadline ~cyc0 ~nmem_i:(-1) ~nmem_alu:mem_alu
            ~nmem_sval:mem_sval ~ex_i ~ex_rv1 ~ex_rv2 ~id_i ~fi ~nwb_rd
            ~nwb_val ~smc ~x_dst_pre
        else begin
          let s = b.B.slots.(ex_i) in
          let rv1 =
            if s.B.rs1 = 0 then ex_rv1
            else if fw_rd = s.B.rs1 then fw_val
            else if wb_rd = s.B.rs1 then wb_val
            else ex_rv1
          in
          let rv2 =
            if s.B.rs2 = 0 then ex_rv2
            else if fw_rd = s.B.rs2 then fw_val
            else if wb_rd = s.B.rs2 then wb_val
            else ex_rv2
          in
          let cls = s.B.cls in
          if cls = B.cls_op || cls = B.cls_op_imm then
            finish_cycle m b vbase ~paging ~gen0 ~asid ~perms ~enabled
              ~deadline ~cyc0 ~nmem_i:ex_i
              ~nmem_alu:
                (S.alu_compute s.B.op rv1
                   (if cls = B.cls_op then rv2 else s.B.imm))
              ~nmem_sval:0 ~ex_i ~ex_rv1 ~ex_rv2 ~id_i ~fi ~nwb_rd
              ~nwb_val ~smc ~x_dst_pre
          else if cls = B.cls_load || cls = B.cls_store then
            finish_cycle m b vbase ~paging ~gen0 ~asid ~perms ~enabled
              ~deadline ~cyc0 ~nmem_i:ex_i ~nmem_alu:(Word.add rv1 s.B.imm)
              ~nmem_sval:(if cls = B.cls_store then rv2 else 0) ~ex_i
              ~ex_rv1 ~ex_rv2 ~id_i ~fi ~nwb_rd ~nwb_val ~smc ~x_dst_pre
          else if cls = B.cls_lui then
            finish_cycle m b vbase ~paging ~gen0 ~asid ~perms ~enabled
              ~deadline ~cyc0 ~nmem_i:ex_i ~nmem_alu:s.B.imm ~nmem_sval:0
              ~ex_i ~ex_rv1 ~ex_rv2 ~id_i ~fi ~nwb_rd ~nwb_val ~smc
              ~x_dst_pre
          else if cls = B.cls_auipc then
            finish_cycle m b vbase ~paging ~gen0 ~asid ~perms ~enabled
              ~deadline ~cyc0 ~nmem_i:ex_i
              ~nmem_alu:(Word.add (vbase + (ex_i lsl 2)) s.B.imm)
              ~nmem_sval:0 ~ex_i ~ex_rv1 ~ex_rv2 ~id_i ~fi ~nwb_rd
              ~nwb_val ~smc ~x_dst_pre
          else if cls = B.cls_fence then
            finish_cycle m b vbase ~paging ~gen0 ~asid ~perms ~enabled
              ~deadline ~cyc0 ~nmem_i:ex_i ~nmem_alu:0 ~nmem_sval:0 ~ex_i
              ~ex_rv1 ~ex_rv2 ~id_i ~fi ~nwb_rd ~nwb_val ~smc ~x_dst_pre
          else if cls = B.cls_jal then
            (* A jal can sit in EX only when the dense window formed
               right after its decode redirect; it just links. *)
            finish_cycle m b vbase ~paging ~gen0 ~asid ~perms ~enabled
              ~deadline ~cyc0 ~nmem_i:ex_i
              ~nmem_alu:(Word.add (vbase + (ex_i lsl 2)) 4) ~nmem_sval:0
              ~ex_i ~ex_rv1 ~ex_rv2 ~id_i ~fi ~nwb_rd ~nwb_val ~smc
              ~x_dst_pre
          else if cls = B.cls_branch && not (S.branch_taken s.B.cond rv1 rv2)
          then
            finish_cycle m b vbase ~paging ~gen0 ~asid ~perms ~enabled
              ~deadline ~cyc0 ~nmem_i:ex_i ~nmem_alu:0 ~nmem_sval:0 ~ex_i
              ~ex_rv1 ~ex_rv2 ~id_i ~fi ~nwb_rd ~nwb_val ~smc ~x_dst_pre
          else begin
            (* Taken branch or jalr: flush and redirect, exactly like
               the [r >= 0] arm of the generic cycle. *)
            let xpc = vbase + (ex_i lsl 2) in
            let target, alu, sval =
              if cls = B.cls_jalr then begin
                let t = Word.logand (Word.add rv1 s.B.imm) (Word.lognot 1) in
                (t, Word.add xpc 4, t)
              end
              else (Word.add xpc s.B.imm, 0, 0)
            in
            m.id_ex.dvalid <- false;
            m.if_id.fvalid <- false;
            stats.Stats.flushes <- stats.Stats.flushes + 1;
            emit m Ev.flush Ev.flush_redirect 0;
            S.redirect m ~target ~metal:false;
            (* Direct block→block chain: when the taken target is
               already translated (and still maps to the chained
               block), continue compiled — the terminator retires from
               [mb := b] while the successor's warm-up fetches begin.
               No smc concern: the store-into-fetch-page flag only
               gates fetches, and the boundary re-check above
               revalidates both pages next cycle. *)
            let chain_ok t =
              t.B.n > 0 && B.valid bc t
              && t.B.pbase
                 = (if not paging then target
                    else begin
                      match
                        Metal_hw.Tlb.lookup m.tlb ~asid
                          ~vpn:(target lsr 12)
                      with
                      | Some e when e.Metal_hw.Tlb.x ->
                        (e.Metal_hw.Tlb.ppn lsl 12) lor (target land 0xFFF)
                      | Some _ | None -> -1
                    end)
            in
            match s.B.chain with
            | Some t when chain_ok t ->
              bc.B.chain_hits <- bc.B.chain_hits + 1;
              compiled_cycle m t target ~mb:b ~mb_vbase:vbase ~paging
                ~gen0 ~asid ~perms ~enabled ~deadline ~cyc0 ~mem_i:ex_i
                ~mem_alu:alu ~mem_sval:sval ~ex_i:(-1) ~ex_rv1:0 ~ex_rv2:0
                ~id_i:(-1) ~fi:0 ~wb_rd:nwb_rd ~wb_val:nwb_val
            | Some _ | None -> begin
              (* Exit; record the chain edge so the next engage at the
                 target patches it in. *)
              let x = m.ex_mem in
              x.xvalid <- true;
              x.xpc <- xpc;
              x.xmetal <- false;
              x.xuop <- s.B.uop;
              x.alu <- alu;
              x.sval <- sval;
              m.wb_rd <- nwb_rd;
              m.wb_value <- nwb_val;
              bc.B.chain_src <- Some b;
              bc.B.chain_src_pc <- target;
              bc.B.chain_src_vbase <- vbase;
              bc.B.chain_src_i <- ex_i;
              bc.B.block_cycles <-
                bc.B.block_cycles + (stats.Stats.cycles - cyc0);
              B.bail bc B.exit_taken
            end
          end
        end
      end
    end
  end

(* ID + IF + rotation for a compiled cycle whose WB/MEM/EX halves are
   done; [nmem_*] is the post-EX EX/MEM content (always a slot of [b])
   and [nwb_*] this cycle's MEM result. *)
and finish_cycle m (b : uop B.block) vbase ~paging ~gen0 ~asid ~perms
    ~enabled ~deadline ~cyc0 ~nmem_i ~nmem_alu ~nmem_sval ~ex_i ~ex_rv1
    ~ex_rv2 ~id_i ~fi ~nwb_rd ~nwb_val ~smc ~x_dst_pre =
  let bc = m.blockcache in
  let stats = m.stats in
  if id_i = -1 then begin
    (* Warm-up after a redirect: nothing to decode.  Serve the fetch
       and rotate the bubble down. *)
    if smc || fi >= b.B.n then begin
      mat_latches m b vbase ~mb:b ~mb_vbase:vbase ~mem_i:nmem_i
        ~mem_alu:nmem_alu ~mem_sval:nmem_sval ~ex_i:(-1) ~ex_rv1:0
        ~ex_rv2:0 ~id_i:(-1);
      m.wb_rd <- nwb_rd;
      m.wb_value <- nwb_val;
      bc.B.block_cycles <- bc.B.block_cycles + (stats.Stats.cycles - cyc0);
      B.bail bc (if smc then B.bail_version else B.exit_fallthrough);
      do_if m
    end
    else begin
      if paging then stats.Stats.tlb_hits <- stats.Stats.tlb_hits + 1;
      m.fetch_pc <- Word.add m.fetch_pc 4;
      compiled_cycle m b vbase ~mb:b ~mb_vbase:vbase ~paging ~gen0 ~asid
        ~perms ~enabled ~deadline ~cyc0 ~mem_i:nmem_i ~mem_alu:nmem_alu
        ~mem_sval:nmem_sval ~ex_i:(-1) ~ex_rv1:0 ~ex_rv2:0 ~id_i:fi
        ~fi:(fi + 1) ~wb_rd:nwb_rd ~wb_val:nwb_val
    end
  end
  else if id_i = -2 then begin
    (* Drain: the IF/ID latch holds real beyond-block content and EX
       did not redirect (the terminator fell through, or the block has
       no terminator), so decode must go generic.  Hand the rest of
       the cycle to the generic ID + IF. *)
    mat_latches m b vbase ~mb:b ~mb_vbase:vbase ~mem_i:nmem_i
      ~mem_alu:nmem_alu ~mem_sval:nmem_sval ~ex_i ~ex_rv1 ~ex_rv2
      ~id_i:(-2);
    m.wb_rd <- nwb_rd;
    m.wb_value <- nwb_val;
    bc.B.block_cycles <- bc.B.block_cycles + (stats.Stats.cycles - cyc0);
    B.bail bc B.exit_fallthrough;
    (* Remember which block just ran off its own end: the next
       [step_block] can verify the latches against it and resume
       compiled in the successor without feeder cycles. *)
    bc.B.fall_src <- Some b;
    bc.B.fall_vbase <- vbase;
    let c = do_id m ~exm_wr_rd:x_dst_pre ~exm_wmreg:false in
    if c = id_pass then do_if m
    else if c >= 0 then begin
      S.redirect m ~target:(c lsr 2) ~metal:(c land 2 <> 0);
      if c land 1 = 1 then do_if m else m.if_id.fvalid <- false
    end
  end
  else begin
    let s = b.B.slots.(id_i) in
    if s.B.cls = B.cls_jal then begin
      (* jal resolves at decode with a combinational refetch; hand the
         whole ID outcome (including the redirect encoding) to the
         generic stage and exit. *)
      mat_latches m b vbase ~mb:b ~mb_vbase:vbase ~mem_i:nmem_i
        ~mem_alu:nmem_alu ~mem_sval:nmem_sval ~ex_i ~ex_rv1 ~ex_rv2 ~id_i;
      m.wb_rd <- nwb_rd;
      m.wb_value <- nwb_val;
      bc.B.block_cycles <- bc.B.block_cycles + (stats.Stats.cycles - cyc0);
      B.bail bc B.exit_jump;
      let c = do_id m ~exm_wr_rd:x_dst_pre ~exm_wmreg:false in
      if c = id_pass then do_if m
      else if c >= 0 then begin
        S.redirect m ~target:(c lsr 2) ~metal:(c land 2 <> 0);
        if c land 1 = 1 then do_if m else m.if_id.fvalid <- false
      end
    end
    else if ex_i >= 0 && s.B.conflict_prev then begin
      (* Load-use interlock: ID keeps its slot, EX gets a bubble, no
         fetch this cycle. *)
      stats.Stats.load_use_stalls <- stats.Stats.load_use_stalls + 1;
      compiled_cycle m b vbase ~mb:b ~mb_vbase:vbase ~paging ~gen0 ~asid
        ~perms ~enabled ~deadline ~cyc0 ~mem_i:nmem_i ~mem_alu:nmem_alu
        ~mem_sval:nmem_sval ~ex_i:(-1) ~ex_rv1 ~ex_rv2 ~id_i ~fi
        ~wb_rd:nwb_rd ~wb_val:nwb_val
    end
    else begin
      let nex_rv1 = m.regs.(s.B.rs1) in
      let nex_rv2 = m.regs.(s.B.rs2) in
      if smc then begin
        (* A store just hit this block's page: decode commits, the
           fetch goes through the full generic path, and the boundary
           re-check next cycle drops the block. *)
        mat_latches m b vbase ~mb:b ~mb_vbase:vbase ~mem_i:nmem_i
          ~mem_alu:nmem_alu ~mem_sval:nmem_sval ~ex_i:id_i
          ~ex_rv1:nex_rv1 ~ex_rv2:nex_rv2 ~id_i;
        (* [mat_latches] wrote IF/ID from [id_i], but this cycle's
           decode consumed it: the generic fetch below overwrites it
           (or marks it invalid on a frozen fetch). *)
        m.wb_rd <- nwb_rd;
        m.wb_value <- nwb_val;
        bc.B.block_cycles <-
          bc.B.block_cycles + (stats.Stats.cycles - cyc0);
        B.bail bc B.bail_version;
        do_if m
      end
      else if fi >= b.B.n then begin
        (* Past the block end: fetch generically (the successor of the
           last slot) and drain, so the terminator still resolves —
           and chains — in compiled mode. *)
        do_if m;
        compiled_cycle m b vbase ~mb:b ~mb_vbase:vbase ~paging ~gen0
          ~asid ~perms ~enabled ~deadline ~cyc0 ~mem_i:nmem_i
          ~mem_alu:nmem_alu ~mem_sval:nmem_sval ~ex_i:id_i
          ~ex_rv1:nex_rv1 ~ex_rv2:nex_rv2 ~id_i:(-2) ~fi:(fi + 1)
          ~wb_rd:nwb_rd ~wb_val:nwb_val
      end
      else begin
        if paging then stats.Stats.tlb_hits <- stats.Stats.tlb_hits + 1;
        m.fetch_pc <- Word.add m.fetch_pc 4;
        compiled_cycle m b vbase ~mb:b ~mb_vbase:vbase ~paging ~gen0
          ~asid ~perms ~enabled ~deadline ~cyc0 ~mem_i:nmem_i
          ~mem_alu:nmem_alu ~mem_sval:nmem_sval ~ex_i:id_i
          ~ex_rv1:nex_rv1 ~ex_rv2:nex_rv2 ~id_i:fi ~fi:(fi + 1)
          ~wb_rd:nwb_rd ~wb_val:nwb_val
      end
    end
  end

(* How many generic (fed) cycles to spend waiting for a dense window
   before giving up on this engage.  Three suffice from a clean
   redirect; the slack rides through an in-flight retire or one
   load-use stall. *)
let block_feed_tries = 6

(* Fall-through fast re-engage.  When [src] drained off its own end
   under the compiled stepper the pipe has a fixed shape: the last
   slot of [src] in EX/MEM, the successor's slot 0 in ID/EX, slot 1 in
   IF/ID, fetch at successor + 8 (exactly one drain cycle precedes the
   exit; stalls and redirects produce different shapes and fail the
   checks below).  Verify the latches against that shape and resume
   compiled in the successor block with zero feeder cycles. *)
let try_fall_engage m (src : uop B.block) ~pc ~paging ~deadline =
  let bc = m.blockcache in
  let svb = bc.B.fall_vbase + (src.B.n lsl 2) in
  let x = m.ex_mem and d = m.id_ex and f = m.if_id in
  if
    src.B.n > 0 && pc = svb + 8
    && x.xvalid
    && (not x.xmetal)
    && x.xuop == src.B.slots.(src.B.n - 1).B.uop
    && x.xpc = bc.B.fall_vbase + ((src.B.n - 1) lsl 2)
    && d.dvalid
    && (not d.dmetal)
    && d.dpc = svb && f.fvalid && f.fdec_valid && f.ffault = None
    && (not f.fmetal)
    && f.fpc = svb + 4
  then begin
    let asid = m.ctrl.(Csr.asid) land 0xFF in
    let spa =
      if not paging then svb
      else
        match Metal_hw.Tlb.lookup m.tlb ~asid ~vpn:(svb lsr 12) with
        | Some e when e.Metal_hw.Tlb.x ->
          (e.Metal_hw.Tlb.ppn lsl 12) lor (svb land 0xFFF)
        | Some _ | None -> -1
    in
    if spa < 0 then false
    else begin
      let b2 =
        match B.find bc ~pa:spa with
        | Some t -> t
        | None ->
          let nb = build_block m ~pa:spa in
          B.add bc nb;
          nb
      in
      if
        b2.B.n >= 2
        && uop_matches_slot d.duop b2.B.slots.(0)
        && f.word = b2.B.slots.(1).B.word
      then begin
        bc.B.fall_hits <- bc.B.fall_hits + 1;
        bc.B.engagements <- bc.B.engagements + 1;
        let gen0 = if paging then Metal_hw.Tlb.generation m.tlb else 0 in
        compiled_cycle m b2 svb ~mb:src ~mb_vbase:bc.B.fall_vbase ~paging
          ~gen0 ~asid ~perms:m.ctrl.(Csr.pkey_perms)
          ~enabled:m.ctrl.(Csr.int_enable) ~deadline
          ~cyc0:m.stats.Stats.cycles ~mem_i:(src.B.n - 1) ~mem_alu:x.alu
          ~mem_sval:x.sval ~ex_i:0 ~ex_rv1:d.rv1 ~ex_rv2:d.rv2 ~id_i:1
          ~fi:2 ~wb_rd:m.wb_rd ~wb_val:m.wb_value;
        true
      end
      else false
    end
  end
  else false

let step_block m ~deadline =
  let bc = m.blockcache in
  (* Guard bails are sticky: once a condition forces a generic cycle it
     usually holds for a whole episode (a Metal excursion, an armed
     timer window, a trace run), so burst [step_fast] until it clears
     rather than re-running the engage preamble every cycle.  Each
     episode counts one bail. *)
  if m.probe_on || m.config.Config.trace then begin
    B.bail bc B.bail_probe;
    step_fast m;
    while
      m.halted = None
      && m.stats.Stats.cycles < deadline
      && (m.probe_on || m.config.Config.trace)
    do
      step_fast m
    done
  end
  else if m.stall_cycles > 0 then begin
    B.bail bc B.bail_stall;
    step_fast m;
    while
      m.halted = None && m.stats.Stats.cycles < deadline
      && m.stall_cycles > 0
    do
      step_fast m
    done
  end
  else if m.fetch_frozen then begin
    B.bail bc B.bail_fetch;
    step_fast m;
    while
      m.halted = None && m.stats.Stats.cycles < deadline && m.fetch_frozen
    do
      step_fast m
    done
  end
  else if m.fetch_metal || metal_in_flight m || entry_in_flight m then begin
    B.bail bc B.bail_metal;
    step_fast m;
    while
      m.halted = None
      && m.stats.Stats.cycles < deadline
      && (m.fetch_metal || metal_in_flight m || entry_in_flight m)
    do
      step_fast m
    done
  end
  else if m.ctrl.(Csr.timer_cmp) <> 0 then begin
    B.bail bc B.bail_timer;
    step_fast m;
    while
      m.halted = None && m.stats.Stats.cycles < deadline
      && m.ctrl.(Csr.timer_cmp) <> 0
    do
      step_fast m
    done
  end
  else if m.ctrl.(Csr.icept_enable) land 1 <> 0 then begin
    B.bail bc B.bail_icept;
    step_fast m;
    while
      m.halted = None && m.stats.Stats.cycles < deadline
      && m.ctrl.(Csr.icept_enable) land 1 <> 0
    do
      step_fast m
    done
  end
  else if
    (let enabled = m.ctrl.(Csr.int_enable) in
     enabled <> 0 && enabled land Metal_hw.Intc.pending m.intc <> 0)
  then begin
    B.bail bc B.bail_irq;
    step_fast m;
    while
      m.halted = None
      && m.stats.Stats.cycles < deadline
      &&
      (let enabled = m.ctrl.(Csr.int_enable) in
       enabled <> 0 && enabled land Metal_hw.Intc.pending m.intc <> 0)
    do
      step_fast m
    done
  end
  else begin
    B.sync_phys bc
      ~version:(Metal_hw.Phys_mem.version (Metal_hw.Bus.memory m.bus));
    B.sync_mram bc ~version:(Metal_hw.Mram.version m.mram);
    let pc = m.fetch_pc in
    if pc land 3 <> 0 then begin
      B.bail bc B.bail_fetch;
      step_fast m
    end
    else begin
      let paging = m.ctrl.(Csr.paging) land 1 = 1 in
      let pa =
        if not paging then pc
        else begin
          (* Stats-free peek: the real (always hitting) lookup is
             charged at each fetch the block serves. *)
          let asid = m.ctrl.(Csr.asid) land 0xFF in
          match Metal_hw.Tlb.lookup m.tlb ~asid ~vpn:(pc lsr 12) with
          | Some e when e.Metal_hw.Tlb.x ->
            (e.Metal_hw.Tlb.ppn lsl 12) lor (pc land 0xFFF)
          | Some _ | None -> -1
        end
      in
      if pa < 0 then begin
        B.bail bc B.bail_tlb;
        step_fast m
      end
      else begin
        let fall0 = bc.B.fall_src in
        if fall0 <> None then bc.B.fall_src <- None;
        if
          match fall0 with
          | Some src -> try_fall_engage m src ~pc ~paging ~deadline
          | None -> false
        then ()
        else begin
        let lookup_or_build () =
          match B.find bc ~pa with
          | Some t -> t
          | None ->
            let nb = build_block m ~pa in
            B.add bc nb;
            nb
        in
        let chain0 = bc.B.chain_src in
        let b =
          match chain0 with
          | Some src ->
            bc.B.chain_src <- None;
            if
              bc.B.chain_src_pc = pc
              && bc.B.chain_src_i >= 0
              && bc.B.chain_src_i < src.B.n
            then begin
              let ss = src.B.slots.(bc.B.chain_src_i) in
              match ss.B.chain with
              | Some t when t.B.pbase = pa && B.usable bc t ->
                bc.B.chain_hits <- bc.B.chain_hits + 1;
                t
              | Some _ | None ->
                let t = lookup_or_build () in
                if t.B.n > 0 then ss.B.chain <- Some t;
                t
            end
            else lookup_or_build ()
          | None -> lookup_or_build ()
        in
        if b.B.n = 0 then begin
          B.bail bc B.bail_unbuildable;
          step_fast m
        end
        else begin
          let vbase = pc in
          let gen0 =
            if paging then Metal_hw.Tlb.generation m.tlb else 0
          in
          let direct =
            (* Post-exit re-engage: a compiled taken exit left the
               terminator of [src] in EX/MEM with ID/EX and IF/ID
               squashed — exactly the state an inline chain
               continuation starts from, so resume compiled with the
               terminator retiring from [mb := src] while [b]'s
               warm-up fetches begin.  The latch is verified against
               the recorded slot: any interleaved generic cycle moves
               EX/MEM on and fails the match. *)
            match chain0 with
            | Some src ->
              bc.B.chain_src_pc = pc
              && bc.B.chain_src_i >= 0
              && bc.B.chain_src_i < src.B.n
              && (not m.if_id.fvalid)
              && (not m.id_ex.dvalid)
              && m.ex_mem.xvalid && not m.ex_mem.xmetal
              && m.ex_mem.xuop == src.B.slots.(bc.B.chain_src_i).B.uop
              && m.ex_mem.xpc
                 = bc.B.chain_src_vbase + (bc.B.chain_src_i lsl 2)
            | None -> false
          in
          if direct then begin
            let src = Option.get chain0 in
            bc.B.engagements <- bc.B.engagements + 1;
            compiled_cycle m b vbase ~mb:src
              ~mb_vbase:bc.B.chain_src_vbase ~paging ~gen0
              ~asid:(m.ctrl.(Csr.asid) land 0xFF)
              ~perms:m.ctrl.(Csr.pkey_perms)
              ~enabled:m.ctrl.(Csr.int_enable) ~deadline
              ~cyc0:m.stats.Stats.cycles ~mem_i:bc.B.chain_src_i
              ~mem_alu:m.ex_mem.alu ~mem_sval:m.ex_mem.sval
              ~ex_i:(-1) ~ex_rv1:0 ~ex_rv2:0 ~id_i:(-1) ~fi:0
              ~wb_rd:m.wb_rd ~wb_val:m.wb_value
          end
          else if (not m.if_id.fvalid) && (not m.id_ex.dvalid)
             && not m.ex_mem.xvalid
          then begin
            (* Clean pipe (program start, post-flush, or post-trap):
               the compiled loop can start from an all-bubble window
               with no feeder cycles at all. *)
            bc.B.engagements <- bc.B.engagements + 1;
            compiled_cycle m b vbase ~mb:b ~mb_vbase:vbase ~paging ~gen0
              ~asid:(m.ctrl.(Csr.asid) land 0xFF)
              ~perms:m.ctrl.(Csr.pkey_perms)
              ~enabled:m.ctrl.(Csr.int_enable) ~deadline
              ~cyc0:m.stats.Stats.cycles ~mem_i:(-1) ~mem_alu:0
              ~mem_sval:0 ~ex_i:(-1) ~ex_rv1:0 ~ex_rv2:0 ~id_i:(-1) ~fi:0
              ~wb_rd:m.wb_rd ~wb_val:m.wb_value
          end
          else begin
          let rec feed tries =
            fed_cycle m b vbase ~paging ~gen0;
            if m.halted <> None then ()
            else if
              (* Control left the block region: no window can form
                 here any more, so stop feeding and let the next
                 engage key on wherever fetch went. *)
              m.fetch_pc - vbase < 0
              || m.fetch_pc - vbase > b.B.n lsl 2
            then B.bail bc B.bail_window
            else begin
              let w = find_window m b vbase in
              if w <> W_none then begin
                (* Re-prove the engage-time preconditions: a Metal
                   excursion during the feeder could have rearmed the
                   timer or interception, toggled paging, or remapped
                   the code page. *)
                if m.ctrl.(Csr.timer_cmp) = 0
                   && m.ctrl.(Csr.icept_enable) land 1 = 0
                   && (m.ctrl.(Csr.paging) land 1 = 1) = paging
                   && B.valid bc b
                then begin
                  let genc =
                    if not paging then 0
                    else Metal_hw.Tlb.generation m.tlb
                  in
                  let code_ok =
                    (not paging) || genc = gen0
                    || (match
                          Metal_hw.Tlb.lookup m.tlb
                            ~asid:(m.ctrl.(Csr.asid) land 0xFF)
                            ~vpn:(vbase lsr 12)
                        with
                        | Some e ->
                          e.Metal_hw.Tlb.x
                          && (e.Metal_hw.Tlb.ppn lsl 12)
                             lor (vbase land 0xFFF)
                             = b.B.pbase
                        | None -> false)
                  in
                  if code_ok then begin
                    bc.B.engagements <- bc.B.engagements + 1;
                    let mem_i, ex_i, id_i =
                      match w with
                      | W_full k -> (k, k + 1, k + 2)
                      | W_pair j -> (-1, j, j + 1)
                      | W_front j -> (-1, -1, j)
                      | W_none -> assert false
                    in
                    compiled_cycle m b vbase ~mb:b ~mb_vbase:vbase ~paging
                      ~gen0:genc ~asid:(m.ctrl.(Csr.asid) land 0xFF)
                      ~perms:m.ctrl.(Csr.pkey_perms)
                      ~enabled:m.ctrl.(Csr.int_enable) ~deadline
                      ~cyc0:m.stats.Stats.cycles ~mem_i
                      ~mem_alu:m.ex_mem.alu ~mem_sval:m.ex_mem.sval
                      ~ex_i ~ex_rv1:m.id_ex.rv1
                      ~ex_rv2:m.id_ex.rv2 ~id_i ~fi:(id_i + 1)
                      ~wb_rd:m.wb_rd ~wb_val:m.wb_value
                  end
                  else B.bail bc B.bail_window
                end
                else B.bail bc B.bail_window
              end
              else if tries > 1 && m.stats.Stats.cycles < deadline then
                feed (tries - 1)
              else B.bail bc B.bail_window
            end
          in
          feed block_feed_tries
          end
        end
        end
      end
    end
  end

(* With the predecode cache disabled the machine runs on the original
   option-latch stepper, which doubles as the ablation baseline and as
   an independent correctness oracle (see [Pipeline_slow]). *)
let step m = if m.use_predecode then step_fast m else Pipeline_slow.step m

let run m ~max_cycles =
  let deadline = m.stats.Stats.cycles + max_cycles in
  if m.use_blocks then begin
    let rec loop () =
      match m.halted with
      | Some h -> Some h
      | None ->
        if m.stats.Stats.cycles >= deadline then None
        else begin
          step_block m ~deadline;
          loop ()
        end
    in
    loop ()
  end
  else begin
    let rec loop () =
      match m.halted with
      | Some h -> Some h
      | None ->
        if m.stats.Stats.cycles >= deadline then None
        else begin
          step m;
          loop ()
        end
    in
    loop ()
  end

let timeout_diagnostics m ~budget =
  let tail = Machine.trace_log m ~max:m.config.Config.timeout_trace_tail in
  Printf.sprintf
    "no halt within %d cycles (pc=%s%s)\n--- stats ---\n%s%s"
    budget (Word.to_hex m.fetch_pc)
    (if m.fetch_metal then ", metal mode" else "")
    (Stats.to_string m.stats)
    (match tail with
     | [] ->
       "\n(trace empty; run with Config.trace = true for a \
        per-retirement log)"
     | lines ->
       "\n--- last trace entries ---\n" ^ String.concat "\n" lines)

let run_exn m ~max_cycles =
  match run m ~max_cycles with
  | Some h -> h
  | None ->
    Machine.Halt_out_of_cycles
      { budget = max_cycles; pc = m.fetch_pc; metal = m.fetch_metal }
