(** Deterministic fault injection.

    The robustness counterpart of the static mverify pass: a seeded
    {!plan} schedules typed hardware faults — MRAM bit flips, Metal
    register corruption, TLB entry corruption and spurious
    invalidation, spurious/dropped device interrupts, transient load
    data flips — at chosen cycle/pc/mode predicates.  Faults are
    applied between pipeline cycles through the narrow mutation APIs
    on {!Metal_hw.Mram}/{!Metal_hw.Mregs}/{!Metal_hw.Tlb}/
    {!Metal_hw.Intc}/{!Metal_hw.Phys_mem} (never by reaching into
    record internals), each application emits a
    [Metal_trace.Event.inject] event through the machine's probe, and
    every run is classified against a fault-free oracle run of the
    same workload:

    - {e Masked}: architectural state (GPRs, Metal registers, memory,
      MRAM data, console output, halt) converges with the oracle;
      timing divergence alone is still Masked.
    - {e Corrected}: converged, and the SECDED ECC layer
      ({!Metal_hw.Ecc}, armed via {!Metal_cpu.Config.t.ecc}) repaired
      at least one consumed single-bit upset along the way.
    - {e Detected}: the machine raised a typed fault the oracle did
      not, or the mverify-style MRAM integrity re-check
      ({!Metal_cpu.Machine.mram_integrity_ok}) tripped on Metal-mode
      entry.
    - {e Silent_corruption}: architectural divergence with no
      detection — the bug class this subsystem exists to find.

    Campaigns fan individual runs out over {!Metal_fleet.Fleet.map};
    every run is reproducible from [(seed, run index)] alone, so
    campaign results are bit-identical for any domain count. *)

(** {1 Seeded PRNG} *)

(** Splitmix64.  [create ~seed ~stream] yields a stream fully
    determined by the pair — campaigns use the run index as the
    stream, which is what makes every run independently replayable. *)
module Prng : sig
  type t

  val create : seed:int -> stream:int -> t
  val next : t -> int64
  val int : t -> bound:int -> int
  (** Uniform in [\[0, bound)]; [bound] must be positive. *)

  val bool : t -> bool
  val pick : t -> 'a list -> 'a
  (** Uniform element of a non-empty list. *)
end

(** {1 Fault vocabulary} *)

type fault_class =
  | Mram_code_flip  (** single-bit flip of an MRAM code-segment word *)
  | Mram_data_flip  (** single-bit flip of an MRAM data-segment word *)
  | Mreg_flip  (** single-bit flip of a Metal register *)
  | Tlb_corrupt  (** single-bit flip of a TLB entry's packed form *)
  | Tlb_drop  (** spurious invalidation of one TLB slot *)
  | Irq_spurious  (** spurious device interrupt (pending bit raised) *)
  | Irq_drop  (** dropped device interrupt (pending bit cleared) *)
  | Load_flip
      (** transient single-bit flip of a physical memory word, visible
          for exactly one cycle (restored afterwards unless the
          program overwrote the word) *)

val all_classes : fault_class list

val class_to_string : fault_class -> string
val class_of_string : string -> (fault_class, string) result
(** Inverse of {!class_to_string}; the error message lists every valid
    class name. *)

val class_code : fault_class -> int
(** Stable dense code, the [a] payload of [Metal_trace.Event.inject]. *)

type fault =
  | Mram_code of { word : int; bit : int }
  | Mram_data of { addr : int; bit : int }  (** word-aligned byte offset *)
  | Mreg of { m : int; bit : int }
  | Tlb_entry of { slot : int; bit : int }  (** see {!Metal_hw.Tlb.corrupt_slot} *)
  | Tlb_inval of { slot : int }
  | Irq_raise of { irq : int }
  | Irq_clear of { irq : int }
  | Load of { addr : int; bit : int }  (** word-aligned physical address *)

val fault_class : fault -> fault_class

val fault_detail : fault -> int
(** Packed location/bit, the [b] payload of [Metal_trace.Event.inject]. *)

val fault_to_string : fault -> string

(** Triggers are evaluated at cycle boundaries (between
    [Pipeline.step] calls); each injection fires at the first boundary
    whose predicate holds, exactly once. *)
type trigger =
  | At_cycle of int  (** first boundary with [cycles >= n] *)
  | At_user_cycle of int  (** … and the fetch unit in normal mode *)
  | At_metal_cycle of int  (** … and the fetch unit in Metal mode *)
  | At_pc of { pc : int; after : int }
      (** first boundary with [cycles >= after] and [fetch_pc = pc] *)

val trigger_to_string : trigger -> string

type injection = { trigger : trigger; fault : fault }
type plan = injection list

val generate :
  Prng.t ->
  config:Metal_cpu.Config.t ->
  classes:fault_class list ->
  window:int * int ->
  user_only:bool ->
  plan
(** Draw a single-injection plan: a class uniform in [classes], a
    fault location uniform in that class's space (sized from
    [config]), and an [At_cycle] (or, with [user_only],
    [At_user_cycle]) trigger uniform in the inclusive cycle
    [window]. *)

(** {1 Architectural snapshots and the differential oracle} *)

module Snapshot : sig
  type t = {
    halt : Metal_cpu.Machine.halt option;
        (** [None] when the run was stopped before halting (integrity
            trip, fuel exhaustion) *)
    regs : Word.t array;  (** the 32 GPRs *)
    mregs : Word.t array;  (** the 32 Metal registers *)
    mram_data_hash : int;
    page_hashes : int array;  (** per-4KiB physical page FNV hash *)
    console : string;
    stats : Metal_cpu.Stats.t;  (** informational; never part of {!diff} *)
  }

  val take :
    Metal_cpu.Machine.t ->
    console:string ->
    halt:Metal_cpu.Machine.halt option ->
    t
  (** Cost O(touched pages + MRAM data), not O(memory size): a page
      {!Metal_hw.Phys_mem.page_touched} reports as never written is
      all-zero, so it gets the precomputed hash of a zero page instead
      of being rehashed.  [page_hashes] equal a full per-page hash. *)

  val diff : oracle:t -> injected:t -> string list
  (** Diverging architectural components, e.g. ["halt"; "reg a0";
      "mreg m10"; "page 0x003"; "mram-data"; "console"] — empty means
      architecturally identical.  Timing ([stats]) is deliberately
      excluded: a fault that only costs cycles is Masked. *)
end

(** {1 Running a plan} *)

type stop =
  | Halted of Metal_cpu.Machine.halt
  | Fuel_exhausted
  | Integrity_trip of { cycle : int }
      (** the MRAM integrity re-check failed on a normal→Metal mode
          transition; the run stops before the corrupted mroutine code
          can retire *)

val run_plan :
  ?integrity:bool ->
  Metal_cpu.Machine.t ->
  fuel:int ->
  plan:plan ->
  stop * int
(** Drive the machine one cycle at a time for at most [fuel] cycles,
    applying each of [plan]'s injections at its trigger boundary
    through the narrow device APIs and emitting one
    [Metal_trace.Event.inject] per application.  With
    [integrity] (default false), {!Metal_cpu.Machine.mram_integrity_ok}
    is re-checked on every normal→Metal transition of the fetch unit.
    Returns the stop reason and the number of injections actually
    applied (a trigger that never fires, or a fault aimed at an empty
    TLB slot, does not count).  With an empty [plan] the run is
    bit-identical to [Pipeline.run] — state, stats and event stream
    (the zero-fault property in [test_inject]). *)

type detection =
  | Fault_halt of Metal_cpu.Machine.halt
  | Integrity_menter

type verdict =
  | Masked
  | Corrected of { count : int }
      (** converged with the oracle {e and} the run's SECDED layer
          repaired [count] consumed upsets ([ecc_correct] events) on
          the way — the fault was real, reached a consumption point,
          and the hardware fixed it *)
  | Detected of detection
  | Silent of string list  (** the diverging components *)

val verdict_to_string : verdict -> string
(** ["masked"] / ["corrected"] / ["detected"] / ["silent_corruption"]. *)

val verdict_detail : verdict -> string

val classify :
  ?corrections:int ->
  oracle:Snapshot.t ->
  stop:stop ->
  snap:Snapshot.t ->
  unit ->
  verdict
(** The robustness semantics.  An integrity trip or a fault halt
    differing from the oracle's is [Detected]; otherwise an empty
    {!Snapshot.diff} is [Corrected] when [corrections] (the run's
    [ecc_correct] event count, default 0) is positive, [Masked] when
    it is zero, and anything else (including a hang — fuel exhausted
    while the oracle halted) is [Silent]. *)

(** {1 Campaigns} *)

type workload = {
  label : string;
  config : Metal_cpu.Config.t;
  prepare : Metal_core.System.t -> unit;
      (** loads program/mcode, installs handlers, sets the start pc;
          runs once per campaign run on a fresh system (also in fleet
          worker domains — it must only touch its own system).
          Raises [Failure] on setup errors. *)
  fuel : int;
}

val workload :
  ?config:Metal_cpu.Config.t ->
  ?fuel:int ->
  label:string ->
  (Metal_core.System.t -> unit) ->
  workload
(** Defaults: {!Metal_cpu.Config.default}, fuel 1M cycles. *)

type spec = {
  seed : int;
  runs : int;
  classes : fault_class list;
  integrity : bool;
      (** arm the MRAM integrity re-check on Metal-mode entry *)
  user_only : bool;  (** restrict triggers to normal-mode boundaries *)
}

val default_spec : spec
(** seed 1, 16 runs, every class, integrity on, any-mode triggers. *)

val spec_of_string : string -> (spec, string) result
(** Parse a [--inject] argument: comma-separated
    [seed:N], [runs:N], [classes:NAME+NAME+…] (or [class:…]),
    [integrity], [no-integrity], [user-only] items over
    {!default_spec}.  Unknown keys and unknown class names are loud
    errors listing the valid spellings. *)

val spec_to_string : spec -> string

type run_record = {
  index : int;  (** run index = PRNG stream; replays the run *)
  injection : injection;
  applied : int;  (** injections applied (0 or 1 for generated plans) *)
  events : int;  (** [inject] events observed by the run's collector *)
  ecc_corrected : int;
      (** [ecc_correct] events observed — SECDED single-bit repairs at
          consumption points; always 0 when the workload ran without
          {!Metal_cpu.Config.t.ecc} *)
  verdict : verdict;
  run_cycles : int;
}

type campaign = {
  label : string;
  spec : spec;
  ecc : bool;  (** the workload config had the SECDED layer armed *)
  oracle_cycles : int;
  oracle_halt : Metal_cpu.Machine.halt;
  records : run_record array;
}

val run_campaign :
  ?domains:int -> spec:spec -> workload -> (campaign, string) result
(** Run the fault-free oracle once, then [spec.runs] injected runs of
    the workload fanned out over {!Metal_fleet.Fleet.map}.  Run [i]
    derives its plan from [Prng.create ~seed:spec.seed ~stream:i] with
    the trigger window [(1, oracle_cycles)], so the campaign result is
    a pure function of [(spec, workload)] — bit-identical for any
    [domains].  [Error] when the oracle does not halt within the fuel
    or a run crashes. *)

val summary : campaign -> int * int * int * int
(** (masked, corrected, detected, silent-corruption) run counts. *)

val to_json : campaign -> string
(** Deterministic verdict document, schema ["metal-inject-v1"]:
    spec echo, summary and per-class verdict counts, and one record
    per run (class, trigger, fault, applied/event counts, verdict,
    detail, cycles).  The ECC fields (["ecc": true], ["corrected"]
    counts, per-record ["ecc_corrected"]) appear only when the
    campaign ran with the SECDED layer armed, so ECC-off documents
    are byte-identical to the pre-ECC schema.  Validated by
    [trace_check inject]. *)

val pp : Format.formatter -> campaign -> unit
(** Human verdict summary: rate table plus one line per non-masked
    run. *)
