(** The per-instruction semantics every stepper shares.

    {!Pipeline.step} (predecode tier), {!Pipeline.step_block} (block
    tier) and {!Pipeline_slow.step} (option-latch oracle) differ only in
    how they store and schedule latches; what an instruction {e does} —
    ALU, branch, load extension, translation and the page walk, the
    Metal MEM effects, exception/interrupt delivery and the timing
    charges — is written once, here.

    Nothing here touches a pipeline latch.  Where an effect must squash
    the in-flight stages or write a result back, the caller passes that
    action in: [~squash] invalidates every latch of the caller, MEM/WB
    included; [~writeback], [~no_writeback] and [~except] end a MEM
    stage.  The fast stepper passes top-level functions so its
    per-cycle path stays allocation-free.  Results follow the fast
    stepper's int-encoded convention.

    The steppers share this code, so the differential suite cannot
    catch a bug in it; independent checks do.  {!Reference} covers
    {!alu_compute}, {!branch_taken} and {!sign_extend_load};
    [test_progs]' walker-vs-hardware-walker case covers the hardware
    page walk; [test_cpu2]'s translation fault matrix covers
    {!translate}; the [test_cpu]/[test_cpu2] Metal groups and
    [test_ecc] cover {!mem_metal}. *)

open Machine

(** {2 Classification} *)

val uop_produces_at_mem : uop -> bool
(** GPR result available only after MEM: a dependent instruction right
    behind it stalls one cycle (load-use interlock). *)

val uop_writes_mreg : uop -> bool
(** Modifies Metal registers at MEM; [mexit] decodes against m31, so it
    interlocks on these. *)

val legal_in_mode : Instr.t -> metal:bool -> bool
(** Metal instructions other than [menter] need Metal mode; [menter]
    needs normal mode (no hardware nesting). *)

val sources_of : Instr.t -> int * int
(** Source registers by encoding position (x0 when unused): forwarding
    and the interception interlock need rs1/rs2 positionally. *)

val width_alignment : Instr.mem_width -> int
(** Address bits that must be clear for an access of this width. *)

val sign_extend_load :
  width:Instr.mem_width -> unsigned:bool -> Word.t -> Word.t

(** {2 EX} *)

val alu_compute : Instr.alu_op -> Word.t -> Word.t -> Word.t
val branch_taken : Instr.branch_cond -> Word.t -> Word.t -> bool

(** {2 Address translation} *)

type access = A_fetch | A_load | A_store

val translate : t -> access:access -> metal:bool -> int -> int
(** Physical address of [vaddr] in the current address space, or -1
    with the cause in [t.xlate_cause] and the address in
    [t.fault_vaddr].  A TLB miss walks the page table in hardware
    ([hw_walk], the baseline the paper's custom page tables compete
    with) when [hw_walker] is set, charging the walker latency per PTE
    read.  Metal mode skips page-key checks (mroutines are fully
    privileged). *)

(** {2 Timing charges} *)

val charge_cache :
  t -> Metal_hw.Cache.t option -> addr:int -> fetch:bool -> unit
(** A miss stalls the pipe for the cache's penalty, attributed to the
    fetch or the data stall counter. *)

val charge_mem_latency : t -> unit

val charge_mram_fetch : t -> pc:int -> unit
(** Fetch penalty of main-memory-backed mroutines (the PALcode
    model); dedicated MRAM charges nothing. *)

val timer_tick : t -> unit
(** Raise the timer line once [timer_cmp] is reached. *)

(** {2 Control transfer and event delivery} *)

val redirect : t -> target:int -> metal:bool -> unit
(** Point the fetch unit at [target] and unfreeze it. *)

val raise_exception :
  t -> squash:(t -> unit) -> cause:Cause.t -> epc:int -> tval:Word.t ->
  metal:bool -> unit
(** Precise exception at MEM: delegate to the registered mroutine, or
    halt.  Faults in Metal mode are always fatal.  The caller has
    already cleared its MEM/WB latch. *)

val deliver_interrupt :
  t -> squash:(t -> unit) -> irq:int -> handler_value:int -> epc:int -> bool
(** Enter the interrupt handler ([handler_value] is entry + 1),
    resuming at [epc]; the caller has checked that the interrupt may
    be taken and chosen [epc].  [false] when the machine halted on a
    missing entry. *)

(** {2 ID} *)

val intercept_handler : t -> Instr.t -> (Icept.t * int) option
(** The registered interception handler for [instr], when the global
    enable bit is set. *)

val intercept_writes :
  Icept.t -> Instr.t -> pc:int -> word:Word.t -> rv1:Word.t -> rv2:Word.t ->
  (Reg.mreg * Word.t) list
(** The m-register writes an intercepted instruction publishes: resume
    pc, cause, instruction word, effective address, store value and
    destination register. *)

val mexit_return_lost : t -> bool
(** With ECC armed, whether m31 (the return address) is uncorrectable;
    a corrected read emits [ecc_correct]. *)

(** {2 MEM} *)

val retire : t -> pc:int -> metal:bool -> uop -> unit

val commit_event : t -> event_kind -> (Reg.mreg * Word.t) list -> unit
(** MEM of an entry micro-op: its m-register writes and counter. *)

val link_hint : t -> Instr.t -> pc:int -> sval:Word.t -> unit
(** Profiler call/return hint for a retiring [jal]/[jalr] ([sval]
    holds the [jalr] target); nothing when the probe is off. *)

val note_store : t -> int -> unit
(** A store landed at this physical address: invalidate the predecode
    and block caches precisely. *)

val mem_metal :
  t -> Instr.metal_instr -> pc:int -> metal:bool -> alu:Word.t -> sval:Word.t ->
  writeback:(t -> int -> Word.t -> bool) -> no_writeback:(t -> bool) ->
  except:(t -> Cause.t -> Word.t -> bool) -> squash:(t -> unit) -> bool
(** MEM effect of a Metal instruction whose EX results are [alu] and
    [sval].  It ends through [writeback]/[no_writeback] (retire),
    [except] (exception) or, for trap-style [menter] and [mexit], by
    squashing and redirecting itself.  Returns [false] when the pipe
    was flushed or the machine halted. *)
