(* The option-latch pipeline stepper behind [Config.predecode = false].

   It serves two purposes:

   - Ablation baseline: the simperf benchmark times this stepper
     against the predecoded, allocation-free hot loop in [Pipeline] to
     report the speedup the rewrite buys.
   - Schedule oracle: what each instruction does comes from
     [Semantics], shared with [Pipeline]; what stays here, written
     independently of [Pipeline], is the part the differential suite
     checks against it — the latch storage (immutable option latches
     rebuilt every cycle), forwarding, the ID load-use and interception
     hazards, fetch scheduling, the EPC choice for interrupts and the
     cycle driver.  The suite runs every workload under both steppers
     and requires bit-identical architectural state and cycle-exact
     [Stats].

   The stepper allocates freely (option latches, closures, tuple
   returns, per-cycle decode in ID); do not "optimise" it — its value
   is an independent schedule, not speed.  Latch state is stored in
   the shared [Machine.t] latch records so the two steppers agree on
   machine state; each cycle converts them to the option form this
   code is written against. *)

open Machine
module Ev = Metal_trace.Event
module S = Semantics

(* Seed-style latch values (immutable; reallocated every cycle). *)

type fetched = {
  fpc : int;
  fmetal : bool;
  word : Word.t;
  ffault : Cause.t option;
}

type decoded = {
  dpc : int;
  dmetal : bool;
  duop : uop;
  rs1 : int;
  rs2 : int;
  rv1 : Word.t;
  rv2 : Word.t;
}

type executed = {
  xpc : int;
  xmetal : bool;
  xuop : uop;
  alu : Word.t;
  sval : Word.t;
}

type writeback = { wrd : Reg.t; wvalue : Word.t }

type lat = {
  mutable if_id : fetched option;
  mutable id_ex : decoded option;
  mutable ex_mem : executed option;
  mutable mem_wb : writeback option;
}

let load_latches (m : Machine.t) =
  let fi : Machine.fetched = m.if_id in
  let di : Machine.decoded = m.id_ex in
  let xi : Machine.executed = m.ex_mem in
  {
    if_id =
      (if fi.Machine.fvalid then
         Some
           { fpc = fi.Machine.fpc; fmetal = fi.Machine.fmetal;
             word = fi.Machine.word; ffault = fi.Machine.ffault }
       else None);
    id_ex =
      (if di.Machine.dvalid then
         Some
           { dpc = di.Machine.dpc; dmetal = di.Machine.dmetal;
             duop = di.Machine.duop; rs1 = di.Machine.rs1;
             rs2 = di.Machine.rs2; rv1 = di.Machine.rv1;
             rv2 = di.Machine.rv2 }
       else None);
    ex_mem =
      (if xi.Machine.xvalid then
         Some
           { xpc = xi.Machine.xpc; xmetal = xi.Machine.xmetal;
             xuop = xi.Machine.xuop; alu = xi.Machine.alu;
             sval = xi.Machine.sval }
       else None);
    mem_wb =
      (if m.wb_rd <> 0 then Some { wrd = m.wb_rd; wvalue = m.wb_value }
       else None);
  }

let store_latches (m : Machine.t) l =
  let fi : Machine.fetched = m.if_id in
  let di : Machine.decoded = m.id_ex in
  let xi : Machine.executed = m.ex_mem in
  (match l.if_id with
   | None -> fi.Machine.fvalid <- false
   | Some f ->
     fi.Machine.fvalid <- true;
     fi.Machine.fpc <- f.fpc;
     fi.Machine.fmetal <- f.fmetal;
     fi.Machine.word <- f.word;
     fi.Machine.ffault <- f.ffault;
     (* The fast path memoizes decode results in this latch; anything
        the slow path fetched must be (re-)decoded at ID. *)
     fi.Machine.fdec_valid <- false);
  (match l.id_ex with
   | None -> di.Machine.dvalid <- false
   | Some d ->
     di.Machine.dvalid <- true;
     di.Machine.dpc <- d.dpc;
     di.Machine.dmetal <- d.dmetal;
     di.Machine.duop <- d.duop;
     di.Machine.rs1 <- d.rs1;
     di.Machine.rs2 <- d.rs2;
     di.Machine.rv1 <- d.rv1;
     di.Machine.rv2 <- d.rv2);
  (match l.ex_mem with
   | None -> xi.Machine.xvalid <- false
   | Some x ->
     xi.Machine.xvalid <- true;
     xi.Machine.xpc <- x.xpc;
     xi.Machine.xmetal <- x.xmetal;
     xi.Machine.xuop <- x.xuop;
     xi.Machine.alu <- x.alu;
     xi.Machine.sval <- x.sval);
  match l.mem_wb with
  | None -> m.wb_rd <- 0
  | Some { wrd; wvalue } ->
    m.wb_rd <- wrd;
    m.wb_value <- wvalue

let uop_writes_gpr = function
  | U_instr i -> Instr.writes_gpr i
  | U_event _ | U_poison _ -> None

(* The [~squash] action handed to [Semantics]: drop every latch,
   MEM/WB included. *)
let squash l (_ : Machine.t) =
  l.if_id <- None;
  l.id_ex <- None;
  l.ex_mem <- None;
  l.mem_wb <- None

(* ------------------------------------------------------------------ *)
(* MEM stage                                                           *)

(* Returns [true] when the cycle may continue through EX/ID/IF;
   [false] when MEM flushed the pipe (exception or slow-path
   transition) or halted the machine. *)
let do_mem m l ex_mem_old =
  match ex_mem_old with
  | None ->
    m.stats.Stats.bubbles <- m.stats.Stats.bubbles + 1;
    l.mem_wb <- None;
    true
  | Some x ->
    let squash = squash l in
    let retire () = S.retire m ~pc:x.xpc ~metal:x.xmetal x.xuop in
    let writeback _ rd value =
      l.mem_wb <- (if rd = 0 then None else Some { wrd = rd; wvalue = value });
      retire ();
      true
    in
    let no_writeback _ =
      l.mem_wb <- None;
      retire ();
      true
    in
    let except _ cause tval =
      l.mem_wb <- None;
      S.raise_exception m ~squash ~cause ~epc:x.xpc ~tval ~metal:x.xmetal;
      false
    in
    (* [Semantics.translate]'s -1 carries the cause in [m.xlate_cause]. *)
    let translated access vaddr k =
      let pa = S.translate m ~access ~metal:x.xmetal vaddr in
      if pa < 0 then except m m.xlate_cause vaddr
      else begin
        S.charge_mem_latency m;
        S.charge_cache m m.dcache ~addr:pa ~fetch:false;
        k pa
      end
    in
    begin match x.xuop with
    | U_poison { cause; tval } -> except m cause tval
    | U_event { kind; writes } ->
      S.commit_event m kind writes;
      no_writeback m
    | U_instr instr ->
      begin match instr with
      | Instr.Load { width; unsigned; rd; _ } ->
        let vaddr = x.alu in
        if vaddr land S.width_alignment width <> 0 then
          except m Cause.Misaligned_load vaddr
        else
          translated S.A_load vaddr (fun pa ->
              match Metal_hw.Bus.load m.bus ~width ~addr:pa with
              | Error cause -> except m cause vaddr
              | Ok v -> writeback m rd (S.sign_extend_load ~width ~unsigned v))
      | Instr.Store { width; _ } ->
        let vaddr = x.alu in
        if vaddr land S.width_alignment width <> 0 then
          except m Cause.Misaligned_store vaddr
        else
          translated S.A_store vaddr (fun pa ->
              match Metal_hw.Bus.store m.bus ~width ~addr:pa x.sval with
              | Error cause -> except m cause vaddr
              | Ok () -> no_writeback m)
      | Instr.Metal mi ->
        S.mem_metal m mi ~pc:x.xpc ~metal:x.xmetal ~alu:x.alu ~sval:x.sval
          ~writeback ~no_writeback ~except ~squash
      | Instr.Ecall -> except m Cause.Ecall 0
      | Instr.Ebreak ->
        if (not x.xmetal) && m.ctrl.(Csr.exc_handler Cause.Breakpoint) <> 0
        then except m Cause.Breakpoint 0
        else begin
          retire ();
          l.mem_wb <- None;
          m.halted <- Some (Halt_ebreak { pc = x.xpc; metal = x.xmetal });
          false
        end
      | Instr.Jal { rd; _ } | Instr.Jalr { rd; _ } ->
        let ok = writeback m rd x.alu in
        S.link_hint m instr ~pc:x.xpc ~sval:x.sval;
        ok
      | Instr.Lui { rd; _ } | Instr.Auipc { rd; _ }
      | Instr.Op_imm { rd; _ } | Instr.Op { rd; _ } ->
        writeback m rd x.alu
      | Instr.Branch _ | Instr.Fence -> no_writeback m
      end
    end

(* ------------------------------------------------------------------ *)
(* EX stage                                                            *)

(* Process the EX stage.  Sets [l.ex_mem]; returns a taken-branch /
   jalr redirect: [(target, metal_mode_of_branch)]. *)
let do_ex l id_ex_old ~ex_mem_prev ~mem_wb_prev =
  match id_ex_old with
  | None ->
    l.ex_mem <- None;
    None
  | Some d ->
    (* Forward from the EX/MEM and MEM/WB latches of the previous
       cycle.  A load-like producer in EX/MEM would be a missed
       load-use stall; the decode-stage interlock prevents it. *)
    let forward idx v =
      if idx = 0 then v
      else
        let from_ex_mem =
          match ex_mem_prev with
          | Some x when not (S.uop_produces_at_mem x.xuop) ->
            begin match uop_writes_gpr x.xuop with
            | Some rd when rd = idx -> Some x.alu
            | Some _ | None -> None
            end
          | Some _ | None -> None
        in
        match from_ex_mem with
        | Some value -> value
        | None ->
          begin match mem_wb_prev with
          | Some { wrd; wvalue } when wrd = idx -> wvalue
          | Some _ | None -> v
          end
    in
    let rv1 = forward d.rs1 d.rv1 in
    let rv2 = forward d.rs2 d.rv2 in
    let finish ?(alu = 0) ?(sval = 0) ?redirect () =
      l.ex_mem <-
        Some { xpc = d.dpc; xmetal = d.dmetal; xuop = d.duop; alu; sval };
      redirect
    in
    begin match d.duop with
    | U_poison _ | U_event _ -> finish ()
    | U_instr instr ->
      begin match instr with
      | Instr.Lui { imm; _ } -> finish ~alu:(Word.of_int (imm lsl 12)) ()
      | Instr.Auipc { imm; _ } ->
        finish ~alu:(Word.add d.dpc (Word.of_int (imm lsl 12))) ()
      | Instr.Jal _ -> finish ~alu:(Word.add d.dpc 4) ()
      | Instr.Jalr { offset; _ } ->
        let target = Word.logand (Word.add rv1 offset) (Word.lognot 1) in
        (* Mirror the fast path: stash the target in sval so retire
           can emit the call/ret hint. *)
        finish ~alu:(Word.add d.dpc 4) ~sval:target
          ~redirect:(target, d.dmetal) ()
      | Instr.Branch { cond; offset; _ } ->
        if S.branch_taken cond rv1 rv2 then
          finish ~redirect:(Word.add d.dpc offset, d.dmetal) ()
        else finish ()
      | Instr.Load { offset; _ } -> finish ~alu:(Word.add rv1 offset) ()
      | Instr.Store { offset; _ } ->
        finish ~alu:(Word.add rv1 offset) ~sval:rv2 ()
      | Instr.Op_imm { op; imm; _ } ->
        finish ~alu:(S.alu_compute op rv1 (Word.of_int imm)) ()
      | Instr.Op { op; _ } -> finish ~alu:(S.alu_compute op rv1 rv2) ()
      | Instr.Ecall | Instr.Ebreak | Instr.Fence -> finish ()
      | Instr.Metal mi ->
        begin match mi with
        | Instr.Mld { offset; _ } -> finish ~alu:(Word.add rv1 offset) ()
        | Instr.Mst { offset; _ } ->
          finish ~alu:(Word.add rv1 offset) ~sval:rv2 ()
        | Instr.Menter _ | Instr.Mexit | Instr.Rmr _ -> finish ()
        | Instr.Wmr _ -> finish ~alu:rv1 ()
        | Instr.Feature f ->
          begin match f with
          | Instr.Physld { offset; _ } -> finish ~alu:(Word.add rv1 offset) ()
          | Instr.Physst { offset; _ } ->
            finish ~alu:(Word.add rv1 offset) ~sval:rv2 ()
          | Instr.Tlbw _ | Instr.Gprw _ | Instr.Iceptset _ ->
            finish ~alu:rv1 ~sval:rv2 ()
          | Instr.Tlbflush _ | Instr.Tlbprobe _ | Instr.Gprr _
          | Instr.Iceptclr _ | Instr.Mcsrw _ -> finish ~alu:rv1 ()
          | Instr.Mcsrr _ -> finish ()
          end
        end
      end
    end

(* ------------------------------------------------------------------ *)
(* ID stage                                                            *)

type id_redirect = { target : int; to_metal : bool; combinational : bool }

type id_outcome =
  | Id_stall
  | Id_pass of decoded option * id_redirect option

(* Does any in-flight producer target one of [srcs]?  Used by the
   interception interlock, which needs operand values at decode. *)
let inflight_writes_gpr ~id_ex_old ~ex_mem_old srcs =
  let hits = function
    | None -> false
    | Some rd -> rd <> 0 && List.mem rd srcs
  in
  (match id_ex_old with
   | Some d -> hits (uop_writes_gpr d.duop)
   | None -> false)
  || match ex_mem_old with
  | Some x -> hits (uop_writes_gpr x.xuop)
  | None -> false

let inflight_writes_mreg ~id_ex_old ~ex_mem_old =
  (match id_ex_old with Some d -> S.uop_writes_mreg d.duop | None -> false)
  || match ex_mem_old with Some x -> S.uop_writes_mreg x.xuop | None -> false

let do_id m if_id_old ~id_ex_old ~ex_mem_old =
  match if_id_old with
  | None -> Id_pass (None, None)
  | Some f ->
    let poison cause tval =
      Id_pass
        (Some
           { dpc = f.fpc; dmetal = f.fmetal;
             duop = U_poison { cause; tval }; rs1 = 0; rs2 = 0; rv1 = 0;
             rv2 = 0 },
         None)
    in
    begin match f.ffault with
    | Some cause -> poison cause f.fpc
    | None ->
      begin match Decode.decode f.word with
      | Error _ -> poison Cause.Illegal_instruction f.word
      | Ok instr ->
        if not (S.legal_in_mode instr ~metal:f.fmetal) then
          poison Cause.Illegal_instruction f.word
        else begin
          let rs1, rs2 = S.sources_of instr in
          let rv1 = m.regs.(rs1) and rv2 = m.regs.(rs2) in
          let dec duop =
            { dpc = f.fpc; dmetal = f.fmetal; duop; rs1; rs2; rv1; rv2 }
          in
          (* Load-use interlock against the instruction now in EX. *)
          let load_use =
            match id_ex_old with
            | Some d when S.uop_produces_at_mem d.duop ->
              begin match uop_writes_gpr d.duop with
              | Some rd -> rd = rs1 || rd = rs2
              | None -> false
              end
            | Some _ | None -> false
          in
          if load_use then begin
            m.stats.Stats.load_use_stalls <-
              m.stats.Stats.load_use_stalls + 1;
            Id_stall
          end
          else begin
            match S.intercept_handler m instr with
            | Some (cls, handler_value) when not f.fmetal ->
              (* Interception needs fresh operand values at decode. *)
              if inflight_writes_gpr ~id_ex_old ~ex_mem_old [ rs1; rs2 ]
              then begin
                m.stats.Stats.interlock_stalls <-
                  m.stats.Stats.interlock_stalls + 1;
                Id_stall
              end
              else begin
                let entry = handler_value - 1 in
                match Metal_hw.Mram.entry_addr m.mram entry with
                | None ->
                  (* Mis-configured intercept: treat as illegal. *)
                  poison Cause.Illegal_instruction f.word
                | Some target ->
                  let writes =
                    S.intercept_writes cls instr ~pc:f.fpc ~word:f.word ~rv1
                      ~rv2
                  in
                  emit m Ev.intercept (Icept.code cls) f.fpc;
                  emit m Ev.mode_enter entry Ev.reason_intercept;
                  Id_pass
                    (Some
                       (dec
                          (U_event
                             { kind = Event_intercept cls; writes })),
                     Some
                       { target; to_metal = true; combinational = true })
              end
            | Some _ | None ->
              begin match instr with
              | Instr.Jal { offset; _ } ->
                Id_pass
                  (Some (dec (U_instr instr)),
                   Some
                     { target = Word.add f.fpc offset; to_metal = f.fmetal;
                       combinational = false })
              | Instr.Metal (Instr.Menter { entry })
                when m.config.Config.transition = Config.Fast_replacement ->
                begin match Metal_hw.Mram.entry_addr m.mram entry with
                | None -> poison Cause.Illegal_instruction f.word
                | Some target ->
                  let writes =
                    [ (Reg.Mconv.return_address, Word.add f.fpc 4) ]
                  in
                  emit m Ev.mode_enter entry Ev.reason_menter;
                  Id_pass
                    (Some
                       (dec
                          (U_event { kind = Event_menter entry; writes })),
                     Some { target; to_metal = true; combinational = true })
                end
              | Instr.Metal Instr.Mexit
                when m.config.Config.transition = Config.Fast_replacement ->
                if inflight_writes_mreg ~id_ex_old ~ex_mem_old then begin
                  m.stats.Stats.interlock_stalls <-
                    m.stats.Stats.interlock_stalls + 1;
                  Id_stall
                end
                else if S.mexit_return_lost m then
                  (* Unrecoverable return address: poison to MEM like
                     the fast stepper. *)
                  poison Cause.Ecc_uncorrectable f.word
                else begin
                  m.stats.Stats.mexits <- m.stats.Stats.mexits + 1;
                  let target = get_mreg m Reg.Mconv.return_address in
                  emit m Ev.mode_exit target 0;
                  Id_pass
                    (None,
                     Some { target; to_metal = false; combinational = true })
                end
              | _ -> Id_pass (Some (dec (U_instr instr)), None)
              end
          end
        end
      end
    end

(* ------------------------------------------------------------------ *)
(* IF stage                                                            *)

let do_if m =
  if m.fetch_frozen then None
  else begin
    let pc = m.fetch_pc in
    let fetched ?fault word =
      (match fault with
       | Some _ -> m.fetch_frozen <- true
       | None -> m.fetch_pc <- Word.add pc 4);
      Some { fpc = pc; fmetal = m.fetch_metal; word; ffault = fault }
    in
    if m.fetch_metal then begin
      S.charge_mram_fetch m ~pc;
      match Metal_hw.Mram.fetch m.mram ~addr:pc with
      | Some word -> fetched word
      | None -> fetched ~fault:Cause.Access_fault 0
    end
    else if pc land 3 <> 0 then fetched ~fault:Cause.Misaligned_fetch 0
    else begin
      let pa = S.translate m ~access:S.A_fetch ~metal:false pc in
      if pa < 0 then fetched ~fault:m.xlate_cause 0
      else begin
        S.charge_cache m m.icache ~addr:pa ~fetch:true;
        match Metal_hw.Bus.load m.bus ~width:Instr.Word ~addr:pa with
        | Ok word -> fetched word
        | Error cause -> fetched ~fault:cause 0
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Interrupt delivery                                                  *)

let metal_in_flight ~if_id ~id_ex ~ex_mem =
  (match if_id with Some f -> f.fmetal | None -> false)
  || (match id_ex with Some d -> d.dmetal | None -> false)
  || (match ex_mem with Some x -> x.xmetal | None -> false)

(* mroutine-entry micro-ops must not be squashed mid-entry: their
   fetch redirect has already happened, so squashing them would lose
   the Metal-register writes the mroutine is about to read. *)
let entry_in_flight ~id_ex ~ex_mem =
  (match id_ex with Some { duop = U_event _; _ } -> true | _ -> false)
  || match ex_mem with Some { xuop = U_event _; _ } -> true | _ -> false

let try_interrupt m l ~if_id ~id_ex ~ex_mem =
  let enabled = m.ctrl.(Csr.int_enable) in
  if enabled = 0 || m.fetch_metal
     || metal_in_flight ~if_id ~id_ex ~ex_mem
     || entry_in_flight ~id_ex ~ex_mem
  then false
  else
    match Metal_hw.Intc.highest_pending m.intc ~enabled with
    | None -> false
    | Some irq ->
      let handler_value = m.ctrl.(Csr.int_handler irq) in
      if handler_value = 0 then false
      else begin
        let epc =
          match (ex_mem, id_ex, if_id) with
          | Some x, _, _ -> x.xpc
          | None, Some d, _ -> d.dpc
          | None, None, Some f -> f.fpc
          | None, None, None -> m.fetch_pc
        in
        S.deliver_interrupt m ~squash:(squash l) ~irq ~handler_value ~epc
      end

(* ------------------------------------------------------------------ *)
(* Cycle driver                                                        *)

let step m =
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
    else begin
      let l = load_latches m in
      let if_id = l.if_id
      and id_ex = l.id_ex
      and ex_mem = l.ex_mem
      and mem_wb = l.mem_wb in
      (* WB: regfile writes happen in the first half of the cycle so
         decode-stage reads observe them. *)
      begin match mem_wb with
      | Some { wrd; wvalue } -> if wrd <> 0 then m.regs.(wrd) <- wvalue
      | None -> ()
      end;
      l.mem_wb <- None;
      (if try_interrupt m l ~if_id ~id_ex ~ex_mem then ()
       else if not (do_mem m l ex_mem) then ()
       else begin
         match do_ex l id_ex ~ex_mem_prev:ex_mem ~mem_wb_prev:mem_wb with
         | Some (target, to_metal) ->
           l.id_ex <- None;
           l.if_id <- None;
           m.stats.Stats.flushes <- m.stats.Stats.flushes + 1;
           emit m Ev.flush Ev.flush_redirect 0;
           S.redirect m ~target ~metal:to_metal
         | None ->
           begin match do_id m if_id ~id_ex_old:id_ex ~ex_mem_old:ex_mem with
           | Id_stall -> l.id_ex <- None
           | Id_pass (dec, redir) ->
             l.id_ex <- dec;
             begin match redir with
             | None -> l.if_id <- do_if m
             | Some { target; to_metal; combinational } ->
               S.redirect m ~target ~metal:to_metal;
               if combinational then l.if_id <- do_if m
               else l.if_id <- None
             end
           end
       end);
      store_latches m l
    end
