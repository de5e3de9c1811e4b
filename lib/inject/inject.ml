(* Deterministic fault injection: seeded plans, typed faults applied
   through the narrow device mutation APIs, and verdicts against a
   fault-free oracle.  See inject.mli for the semantics. *)

module Machine = Metal_cpu.Machine
module Pipeline = Metal_cpu.Pipeline
module Stats = Metal_cpu.Stats
module Config = Metal_cpu.Config
module System = Metal_core.System
module Ev = Metal_trace.Event
module Fleet = Metal_fleet.Fleet

(* ------------------------------------------------------------------ *)
(* Splitmix64                                                          *)

module Prng = struct
  type t = { mutable state : int64 }

  let golden = 0x9E3779B97F4A7C15L

  let mix z =
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create ~seed ~stream =
    (* Mix both halves so nearby (seed, stream) pairs land far apart;
       the stream term gets an extra golden offset so (s, 0) and (0, s)
       differ. *)
    { state =
        Int64.logxor
          (mix (Int64.of_int seed))
          (mix (Int64.add (Int64.of_int stream) golden));
    }

  let next t =
    t.state <- Int64.add t.state golden;
    mix t.state

  let int t ~bound =
    if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
    Int64.to_int
      (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

  let bool t = Int64.logand (next t) 1L = 1L

  let pick t xs =
    match xs with
    | [] -> invalid_arg "Prng.pick: empty list"
    | _ -> List.nth xs (int t ~bound:(List.length xs))
end

(* ------------------------------------------------------------------ *)
(* Fault vocabulary                                                    *)

type fault_class =
  | Mram_code_flip
  | Mram_data_flip
  | Mreg_flip
  | Tlb_corrupt
  | Tlb_drop
  | Irq_spurious
  | Irq_drop
  | Load_flip

let all_classes =
  [ Mram_code_flip; Mram_data_flip; Mreg_flip; Tlb_corrupt; Tlb_drop;
    Irq_spurious; Irq_drop; Load_flip ]

let class_to_string = function
  | Mram_code_flip -> "mram-code"
  | Mram_data_flip -> "mram-data"
  | Mreg_flip -> "mreg"
  | Tlb_corrupt -> "tlb"
  | Tlb_drop -> "tlb-drop"
  | Irq_spurious -> "irq-spurious"
  | Irq_drop -> "irq-drop"
  | Load_flip -> "load"

let class_of_string s =
  match
    List.find_opt (fun c -> class_to_string c = s) all_classes
  with
  | Some c -> Ok c
  | None ->
    Error
      (Printf.sprintf "unknown fault class %S (valid: %s)" s
         (String.concat ", " (List.map class_to_string all_classes)))

let class_code = function
  | Mram_code_flip -> 0
  | Mram_data_flip -> 1
  | Mreg_flip -> 2
  | Tlb_corrupt -> 3
  | Tlb_drop -> 4
  | Irq_spurious -> 5
  | Irq_drop -> 6
  | Load_flip -> 7

type fault =
  | Mram_code of { word : int; bit : int }
  | Mram_data of { addr : int; bit : int }
  | Mreg of { m : int; bit : int }
  | Tlb_entry of { slot : int; bit : int }
  | Tlb_inval of { slot : int }
  | Irq_raise of { irq : int }
  | Irq_clear of { irq : int }
  | Load of { addr : int; bit : int }

let fault_class = function
  | Mram_code _ -> Mram_code_flip
  | Mram_data _ -> Mram_data_flip
  | Mreg _ -> Mreg_flip
  | Tlb_entry _ -> Tlb_corrupt
  | Tlb_inval _ -> Tlb_drop
  | Irq_raise _ -> Irq_spurious
  | Irq_clear _ -> Irq_drop
  | Load _ -> Load_flip

let fault_detail = function
  | Mram_code { word; bit } -> (word lsl 5) lor bit
  | Mram_data { addr; bit } -> (addr lsl 5) lor bit
  | Mreg { m; bit } -> (m lsl 5) lor bit
  | Tlb_entry { slot; bit } -> (slot lsl 6) lor bit
  | Tlb_inval { slot } -> slot
  | Irq_raise { irq } -> irq
  | Irq_clear { irq } -> irq
  | Load { addr; bit } -> (addr lsl 5) lor bit

let fault_to_string = function
  | Mram_code { word; bit } -> Printf.sprintf "mram-code word %d bit %d" word bit
  | Mram_data { addr; bit } -> Printf.sprintf "mram-data 0x%x bit %d" addr bit
  | Mreg { m; bit } -> Printf.sprintf "mreg m%d bit %d" m bit
  | Tlb_entry { slot; bit } -> Printf.sprintf "tlb slot %d bit %d" slot bit
  | Tlb_inval { slot } -> Printf.sprintf "tlb-drop slot %d" slot
  | Irq_raise { irq } -> Printf.sprintf "spurious irq %d" irq
  | Irq_clear { irq } -> Printf.sprintf "dropped irq %d" irq
  | Load { addr; bit } -> Printf.sprintf "load 0x%x bit %d" addr bit

type trigger =
  | At_cycle of int
  | At_user_cycle of int
  | At_metal_cycle of int
  | At_pc of { pc : int; after : int }

let trigger_to_string = function
  | At_cycle n -> Printf.sprintf "cycle>=%d" n
  | At_user_cycle n -> Printf.sprintf "user-cycle>=%d" n
  | At_metal_cycle n -> Printf.sprintf "metal-cycle>=%d" n
  | At_pc { pc; after } -> Printf.sprintf "pc=0x%x after %d" pc after

type injection = { trigger : trigger; fault : fault }
type plan = injection list

(* Meaningful bit positions of a packed TLB entry: data word bits
   (r/w/x, pkey, ppn) then tag word bits offset by 32 (global, asid,
   vpn).  Bits the packed layout skips would be silent no-ops. *)
let tlb_bits =
  [ 1; 2; 3; 5; 6; 7; 8 ]
  @ List.init 20 (fun i -> 12 + i)
  @ (32 :: List.init 8 (fun i -> 36 + i))
  @ List.init 20 (fun i -> 44 + i)

let generate prng ~config ~classes ~window:(lo, hi) ~user_only =
  let cls = Prng.pick prng classes in
  let cycle = lo + Prng.int prng ~bound:(max 1 (hi - lo + 1)) in
  let trigger = if user_only then At_user_cycle cycle else At_cycle cycle in
  let bit32 () = Prng.int prng ~bound:32 in
  let fault =
    match cls with
    | Mram_code_flip ->
      Mram_code
        { word = Prng.int prng ~bound:config.Config.mram_code_words;
          bit = bit32 () }
    | Mram_data_flip ->
      Mram_data
        { addr = 4 * Prng.int prng ~bound:(config.Config.mram_data_bytes / 4);
          bit = bit32 () }
    | Mreg_flip ->
      Mreg { m = Prng.int prng ~bound:Reg.mreg_count; bit = bit32 () }
    | Tlb_corrupt ->
      Tlb_entry
        { slot = Prng.int prng ~bound:config.Config.tlb_entries;
          bit = Prng.pick prng tlb_bits }
    | Tlb_drop ->
      Tlb_inval { slot = Prng.int prng ~bound:config.Config.tlb_entries }
    | Irq_spurious ->
      Irq_raise { irq = Prng.int prng ~bound:Metal_hw.Intc.lines }
    | Irq_drop ->
      Irq_clear { irq = Prng.int prng ~bound:Metal_hw.Intc.lines }
    | Load_flip ->
      Load
        { addr = 4 * Prng.int prng ~bound:(config.Config.mem_size / 4);
          bit = bit32 () }
  in
  [ { trigger; fault } ]

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

module Snapshot = struct
  type t = {
    halt : Machine.halt option;
    regs : Word.t array;
    mregs : Word.t array;
    mram_data_hash : int;
    page_hashes : int array;
    console : string;
    stats : Stats.t;
  }

  let page_size = Metal_hw.Phys_mem.page_size

  let take (m : Machine.t) ~console ~halt =
    let mem = Metal_hw.Bus.memory m.Machine.bus in
    let size = Metal_hw.Phys_mem.size mem in
    let pages = (size + page_size - 1) / page_size in
    let page_hashes =
      Array.init pages (fun p ->
          let pos = p * page_size in
          let len = min page_size (size - pos) in
          if len = page_size && not (Metal_hw.Phys_mem.page_touched mem p)
          then Metal_hw.Phys_mem.zero_page_hash
          else Metal_hw.Phys_mem.hash mem ~pos ~len)
    in
    let mram = m.Machine.mram in
    let data_words = Metal_hw.Mram.data_bytes mram / 4 in
    let mram_data_hash =
      let h = ref 0x811c9dc5 in
      for i = 0 to data_words - 1 do
        let w =
          match Metal_hw.Mram.load_word mram ~addr:(4 * i) with
          | Some w -> w
          | None -> 0
        in
        h := (!h lxor w) * 0x01000193 land max_int
      done;
      !h
    in
    {
      halt;
      regs = Array.init 32 (fun r -> Machine.get_reg m r);
      mregs = Metal_hw.Mregs.dump m.Machine.mregs;
      mram_data_hash;
      page_hashes;
      console;
      stats = Stats.copy m.Machine.stats;
    }

  let halt_to_string = function
    | None -> "(still running)"
    | Some h -> Machine.halted_to_string h

  let diff ~oracle ~injected =
    let ds = ref [] in
    let add fmt = Printf.ksprintf (fun s -> ds := s :: !ds) fmt in
    if oracle.halt <> injected.halt then
      add "halt (%s vs %s)"
        (halt_to_string oracle.halt)
        (halt_to_string injected.halt);
    for r = 31 downto 1 do
      if oracle.regs.(r) <> injected.regs.(r) then
        add "reg %s" (Reg.to_string r)
    done;
    for m = Reg.mreg_count - 1 downto 0 do
      if oracle.mregs.(m) <> injected.mregs.(m) then add "mreg m%d" m
    done;
    if oracle.mram_data_hash <> injected.mram_data_hash then add "mram-data";
    let pages = ref [] in
    for p = Array.length oracle.page_hashes - 1 downto 0 do
      if
        p < Array.length injected.page_hashes
        && oracle.page_hashes.(p) <> injected.page_hashes.(p)
      then pages := p :: !pages
    done;
    (match !pages with
     | [] -> ()
     | ps ->
       add "%s"
         (String.concat ", "
            (List.map (Printf.sprintf "page 0x%03x") ps)));
    if oracle.console <> injected.console then add "console";
    List.rev !ds
end

(* ------------------------------------------------------------------ *)
(* The injector loop                                                   *)

type stop =
  | Halted of Machine.halt
  | Fuel_exhausted
  | Integrity_trip of { cycle : int }

let due (m : Machine.t) = function
  | At_cycle n -> m.Machine.stats.Stats.cycles >= n
  | At_user_cycle n ->
    m.Machine.stats.Stats.cycles >= n && not m.Machine.fetch_metal
  | At_metal_cycle n ->
    m.Machine.stats.Stats.cycles >= n && m.Machine.fetch_metal
  | At_pc { pc; after } ->
    m.Machine.stats.Stats.cycles >= after && m.Machine.fetch_pc = pc

(* Apply one fault through the narrow device APIs.  Returns
   [Some restore] for transient faults ([Load]); [None] means nothing
   to undo.  Raises nothing: out-of-range locations simply do not
   apply. *)
let apply (m : Machine.t) fault =
  let mem = Metal_hw.Bus.memory m.Machine.bus in
  match fault with
  | Mram_code { word; bit } ->
    (Metal_hw.Mram.corrupt_code_bit m.Machine.mram ~word ~bit, None)
  | Mram_data { addr; bit } ->
    (Metal_hw.Mram.corrupt_data_bit m.Machine.mram ~addr ~bit, None)
  | Mreg { m = mr; bit } ->
    Metal_hw.Mregs.flip_bit m.Machine.mregs mr ~bit;
    (true, None)
  | Tlb_entry { slot; bit } ->
    (Metal_hw.Tlb.corrupt_slot m.Machine.tlb ~slot ~bit, None)
  | Tlb_inval { slot } -> (Metal_hw.Tlb.drop_slot m.Machine.tlb ~slot, None)
  | Irq_raise { irq } ->
    Metal_hw.Intc.raise_irq m.Machine.intc irq;
    (true, None)
  | Irq_clear { irq } ->
    let was = Metal_hw.Intc.pending m.Machine.intc land (1 lsl irq) <> 0 in
    Metal_hw.Intc.clear m.Machine.intc ~mask:(1 lsl irq);
    (was, None)
  | Load { addr; bit } ->
    if not (Metal_hw.Phys_mem.in_range mem ~addr ~width:4) then (false, None)
    else begin
      let original = Metal_hw.Phys_mem.read32 mem addr in
      let corrupted = Metal_hw.Phys_mem.corrupt_bit mem ~addr ~bit in
      (true, Some (addr, corrupted, original))
    end

let run_plan ?(integrity = false) (m : Machine.t) ~fuel ~plan =
  let mem = Metal_hw.Bus.memory m.Machine.bus in
  let pending = Array.of_list plan in
  let fired = Array.make (Array.length pending) false in
  let applied = ref 0 in
  let restores = ref [] in
  let deadline = m.Machine.stats.Stats.cycles + fuel in
  let prev_metal = ref m.Machine.fetch_metal in
  let rec loop () =
    match m.Machine.halted with
    | Some h -> Halted h
    | None ->
      if m.Machine.stats.Stats.cycles >= deadline then Fuel_exhausted
      else begin
        for i = 0 to Array.length pending - 1 do
          let inj = pending.(i) in
          if not fired.(i) && due m inj.trigger then begin
            fired.(i) <- true;
            let ok, restore = apply m inj.fault in
            if ok then begin
              incr applied;
              Machine.emit m Ev.inject
                (class_code (fault_class inj.fault))
                (fault_detail inj.fault);
              match restore with
              | Some r -> restores := r :: !restores
              | None -> ()
            end
          end
        done;
        Pipeline.step m;
        (* Transient faults last exactly one cycle: put the original
           word back unless the program overwrote it during the step
           (the corrupted value is gone either way). *)
        List.iter
          (fun (addr, corrupted, original) ->
             if Metal_hw.Phys_mem.read32 mem addr = corrupted then
               Metal_hw.Phys_mem.write32 mem addr original)
          !restores;
        restores := [];
        let now_metal = m.Machine.fetch_metal in
        let entered = now_metal && not !prev_metal in
        prev_metal := now_metal;
        if integrity && entered && not (Machine.mram_integrity_ok m) then
          Integrity_trip { cycle = m.Machine.stats.Stats.cycles }
        else loop ()
      end
  in
  let stop = loop () in
  (stop, !applied)

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)

type detection = Fault_halt of Machine.halt | Integrity_menter

type verdict =
  | Masked
  | Corrected of { count : int }
  | Detected of detection
  | Silent of string list

let verdict_to_string = function
  | Masked -> "masked"
  | Corrected _ -> "corrected"
  | Detected _ -> "detected"
  | Silent _ -> "silent_corruption"

let verdict_detail = function
  | Masked -> ""
  | Corrected { count } ->
    Printf.sprintf "secded corrected %d consumption%s" count
      (if count = 1 then "" else "s")
  | Detected Integrity_menter -> "mram integrity re-check failed on menter"
  | Detected (Fault_halt h) -> Machine.halted_to_string h
  | Silent ds -> String.concat "; " ds

(* [corrections] is the run's [ecc_correct] event count: with ECC
   armed, a run that converges with the oracle *because* the decoder
   repaired the upset at a consumption point is [Corrected], not
   [Masked] (the fault was consumed, just survivably).  A repaired run
   that still diverges stays [Silent] — correction is not absolution. *)
let classify ?(corrections = 0) ~oracle ~stop ~snap () =
  match stop with
  | Integrity_trip _ -> Detected Integrity_menter
  | Fuel_exhausted ->
    Silent [ "hang: fuel exhausted while the oracle halted" ]
  | Halted h ->
    let is_fault =
      match h with
      | Machine.Halt_fault _ | Machine.Halt_metal_fault _ -> true
      | Machine.Halt_ebreak _ | Machine.Halt_out_of_cycles _ -> false
    in
    if is_fault && oracle.Snapshot.halt <> Some h then Detected (Fault_halt h)
    else begin
      match Snapshot.diff ~oracle ~injected:snap with
      | [] -> if corrections > 0 then Corrected { count = corrections } else Masked
      | ds -> Silent ds
    end

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)

type workload = {
  label : string;
  config : Config.t;
  prepare : System.t -> unit;
  fuel : int;
}

let workload ?(config = Config.default) ?(fuel = 1_000_000) ~label prepare =
  { label; config; prepare; fuel }

type spec = {
  seed : int;
  runs : int;
  classes : fault_class list;
  integrity : bool;
  user_only : bool;
}

let default_spec =
  { seed = 1; runs = 16; classes = all_classes; integrity = true;
    user_only = false }

let spec_to_string s =
  Printf.sprintf "seed:%d,runs:%d,classes:%s%s%s" s.seed s.runs
    (String.concat "+" (List.map class_to_string s.classes))
    (if s.integrity then ",integrity" else ",no-integrity")
    (if s.user_only then ",user-only" else "")

let spec_of_string str =
  let ( let* ) = Result.bind in
  let int_field key v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (Printf.sprintf "%s: expected a non-negative integer, got %S" key v)
  in
  let parse_classes v =
    let names = String.split_on_char '+' v in
    let* classes =
      List.fold_left
        (fun acc name ->
           let* acc = acc in
           let* c = class_of_string name in
           Ok (c :: acc))
        (Ok []) names
    in
    match List.rev classes with
    | [] -> Error "classes: empty list"
    | cs -> Ok cs
  in
  let items =
    List.filter (fun s -> s <> "") (String.split_on_char ',' str)
  in
  if items = [] then Error "empty --inject spec"
  else
    List.fold_left
      (fun acc item ->
         let* spec = acc in
         match String.index_opt item ':' with
         | Some i ->
           let key = String.sub item 0 i
           and v = String.sub item (i + 1) (String.length item - i - 1) in
           (match key with
            | "seed" ->
              let* n = int_field "seed" v in
              Ok { spec with seed = n }
            | "runs" ->
              let* n = int_field "runs" v in
              if n = 0 then Error "runs: must be positive"
              else Ok { spec with runs = n }
            | "classes" | "class" ->
              let* cs = parse_classes v in
              Ok { spec with classes = cs }
            | k ->
              Error
                (Printf.sprintf
                   "unknown --inject key %S (valid: seed:N, runs:N, \
                    classes:NAME+NAME, integrity, no-integrity, user-only)"
                   k))
         | None ->
           (match item with
            | "integrity" -> Ok { spec with integrity = true }
            | "no-integrity" -> Ok { spec with integrity = false }
            | "user-only" -> Ok { spec with user_only = true }
            | k ->
              Error
                (Printf.sprintf
                   "unknown --inject item %S (valid: seed:N, runs:N, \
                    classes:NAME+NAME, integrity, no-integrity, user-only)"
                   k)))
      (Ok default_spec) items

type run_record = {
  index : int;
  injection : injection;
  applied : int;
  events : int;
  ecc_corrected : int;
  verdict : verdict;
  run_cycles : int;
}

type campaign = {
  label : string;
  spec : spec;
  ecc : bool;
  oracle_cycles : int;
  oracle_halt : Machine.halt;
  records : run_record array;
}

let build (w : workload) =
  let sys = System.create ~config:w.config () in
  w.prepare sys;
  sys

let run_one ~spec ~(w : workload) ~oracle ~oracle_cycles index =
  let prng = Prng.create ~seed:spec.seed ~stream:index in
  let plan =
    generate prng ~config:w.config ~classes:spec.classes
      ~window:(1, oracle_cycles) ~user_only:spec.user_only
  in
  let sys = build w in
  let m = sys.System.machine in
  (* A small collector ring suffices: verdicts use only the event
     counters, which are exact regardless of ring drops. *)
  let c = Metal_trace.Collector.create ~capacity:1024 () in
  Machine.set_probe m (Metal_trace.Collector.probe c);
  let stop, applied = run_plan ~integrity:spec.integrity m ~fuel:w.fuel ~plan in
  let halt = match stop with Halted h -> Some h | _ -> None in
  let snap = Snapshot.take m ~console:(System.console_output sys) ~halt in
  let counts = (Metal_trace.Collector.metrics c).Metal_trace.Metrics.event_counts in
  let count k = match List.assoc_opt k counts with Some n -> n | None -> 0 in
  let events = count "inject" in
  let ecc_corrected = count "ecc_correct" in
  let verdict = classify ~corrections:ecc_corrected ~oracle ~stop ~snap () in
  {
    index;
    injection = List.hd plan;
    applied;
    events;
    ecc_corrected;
    verdict;
    run_cycles = snap.Snapshot.stats.Stats.cycles;
  }

let run_campaign ?domains ~spec (w : workload) =
  match
    let sys = build w in
    let m = sys.System.machine in
    let stop, _ = run_plan m ~fuel:w.fuel ~plan:[] in
    (stop, sys)
  with
  | exception Failure e -> Error (Printf.sprintf "%s: setup: %s" w.label e)
  | (Fuel_exhausted | Integrity_trip _), _ ->
    Error
      (Printf.sprintf "%s: fault-free oracle did not halt within %d cycles"
         w.label w.fuel)
  | Halted oracle_halt, sys ->
    let m = sys.System.machine in
    let oracle =
      Snapshot.take m ~console:(System.console_output sys)
        ~halt:(Some oracle_halt)
    in
    let oracle_cycles = max 1 oracle.Snapshot.stats.Stats.cycles in
    let results =
      Fleet.map ?domains
        (run_one ~spec ~w ~oracle ~oracle_cycles)
        (Array.init spec.runs (fun i -> i))
    in
    let err = ref None in
    let records =
      Array.mapi
        (fun i r ->
           match r with
           | Ok r -> r
           | Error e ->
             if !err = None then
               err := Some (Printf.sprintf "%s: run %d crashed: %s" w.label i e);
             { index = i;
               injection = { trigger = At_cycle 0; fault = Mreg { m = 0; bit = 0 } };
               applied = 0; events = 0; ecc_corrected = 0; verdict = Masked;
               run_cycles = 0 })
        results
    in
    (match !err with
     | Some e -> Error e
     | None ->
       Ok
         { label = w.label; spec; ecc = w.config.Config.ecc; oracle_cycles;
           oracle_halt; records })

let summary c =
  Array.fold_left
    (fun (m, co, d, s) r ->
       match r.verdict with
       | Masked -> (m + 1, co, d, s)
       | Corrected _ -> (m, co + 1, d, s)
       | Detected _ -> (m, co, d + 1, s)
       | Silent _ -> (m, co, d, s + 1))
    (0, 0, 0, 0) c.records

(* ------------------------------------------------------------------ *)
(* JSON ("metal-inject-v1") and the human summary                      *)

let per_class c =
  List.map
    (fun cls ->
       let count p =
         Array.fold_left
           (fun acc r ->
              if fault_class r.injection.fault = cls && p r.verdict then
                acc + 1
              else acc)
           0 c.records
       in
       ( cls,
         count (fun _ -> true),
         count (function Masked -> true | _ -> false),
         count (function Corrected _ -> true | _ -> false),
         count (function Detected _ -> true | _ -> false),
         count (function Silent _ -> true | _ -> false) ))
    c.spec.classes

(* ECC-off documents must stay byte-identical to the pre-ECC format:
   every ECC field ("ecc", the "corrected" counts, per-record
   "ecc_corrected") is emitted only when the campaign ran with ECC
   armed. *)
let to_json c =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let masked, corrected, detected, silent = summary c in
  add "{\n  \"schema\": \"metal-inject-v1\",\n";
  add "  \"label\": %S,\n" c.label;
  add "  \"seed\": %d,\n  \"runs\": %d,\n" c.spec.seed c.spec.runs;
  add "  \"classes\": [%s],\n"
    (String.concat ", "
       (List.map
          (fun cls -> Printf.sprintf "%S" (class_to_string cls))
          c.spec.classes));
  add "  \"integrity\": %b,\n  \"user_only\": %b,\n" c.spec.integrity
    c.spec.user_only;
  if c.ecc then add "  \"ecc\": true,\n";
  add "  \"oracle_cycles\": %d,\n" c.oracle_cycles;
  add "  \"oracle_halt\": %S,\n" (Machine.halted_to_string c.oracle_halt);
  add "  \"summary\": {\"masked\": %d, %s\"detected\": %d, \
       \"silent_corruption\": %d},\n"
    masked
    (if c.ecc then Printf.sprintf "\"corrected\": %d, " corrected else "")
    detected silent;
  add "  \"per_class\": [\n";
  let pcs = per_class c in
  List.iteri
    (fun i (cls, runs, m, co, d, s) ->
       add
         "    {\"class\": %S, \"runs\": %d, \"masked\": %d, %s\"detected\": \
          %d, \"silent_corruption\": %d}%s\n"
         (class_to_string cls) runs m
         (if c.ecc then Printf.sprintf "\"corrected\": %d, " co else "")
         d s
         (if i = List.length pcs - 1 then "" else ","))
    pcs;
  add "  ],\n  \"records\": [\n";
  Array.iteri
    (fun i r ->
       add
         "    {\"index\": %d, \"class\": %S, \"trigger\": %S, \"fault\": \
          %S, \"applied\": %d, \"events\": %d, %s\"verdict\": %S, \
          \"detail\": %S, \"cycles\": %d}%s\n"
         r.index
         (class_to_string (fault_class r.injection.fault))
         (trigger_to_string r.injection.trigger)
         (fault_to_string r.injection.fault)
         r.applied r.events
         (if c.ecc then Printf.sprintf "\"ecc_corrected\": %d, " r.ecc_corrected
          else "")
         (verdict_to_string r.verdict)
         (verdict_detail r.verdict)
         r.run_cycles
         (if i = Array.length c.records - 1 then "" else ","))
    c.records;
  add "  ]\n}\n";
  Buffer.contents buf

let pp fmt c =
  let masked, corrected, detected, silent = summary c in
  let total = Array.length c.records in
  let pct n =
    if total = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int total
  in
  Format.fprintf fmt
    "campaign %s: %s%s@\noracle: %s (%d cycles)@\n" c.label
    (spec_to_string c.spec)
    (if c.ecc then " [ecc]" else "")
    (Machine.halted_to_string c.oracle_halt)
    c.oracle_cycles;
  Format.fprintf fmt "verdict              runs    rate@\n";
  Format.fprintf fmt "masked             %6d  %5.1f%%@\n" masked (pct masked);
  if c.ecc then
    Format.fprintf fmt "corrected          %6d  %5.1f%%@\n" corrected
      (pct corrected);
  Format.fprintf fmt "detected           %6d  %5.1f%%@\n" detected
    (pct detected);
  Format.fprintf fmt "silent corruption  %6d  %5.1f%%@\n" silent (pct silent);
  Array.iter
    (fun r ->
       match r.verdict with
       | Masked -> ()
       | v ->
         Format.fprintf fmt "  [%d] %s @@ %s -> %s (%s)@\n" r.index
           (fault_to_string r.injection.fault)
           (trigger_to_string r.injection.trigger)
           (verdict_to_string v) (verdict_detail v))
    c.records
