(* Fault injection (lib/inject): robustness semantics against the
   differential oracle.

   The QCheck/corpus properties pin the three contracts the subsystem
   is built on, on BOTH steppers:

   (a) a zero-fault plan is bit-identical to a plain [Pipeline.run] —
       state, stats and event stream;
   (b) the same (seed, spec) replays to byte-identical campaign
       verdicts and the campaign is a pure function of the spec —
       bit-identical across fleet domain counts;
   (c) every applied injection appears exactly once in the run's
       event stream.

   The directed cases cover the awkward boundaries: a transient flip
   landing in a load-use stall or on the same cycle as a branch flush
   (swept over every cycle of a program that has both), a spurious
   interrupt raised inside the menter→mexit window (Metal mode is
   non-interruptible — delivery must wait for mexit), the
   mverify-style integrity trip, and the predecode-coherence
   regression: flipping an MRAM code word the predecode cache has
   already decoded must never be masked by a stale cached decode. *)

open Metal_cpu
module System = Metal_core.System
module Inject = Metal_inject.Inject
module Collector = Metal_trace.Collector
module Ring = Metal_trace.Ring

let mem_size = 64 * 1024
let data_base = 0x1000
let data_words = 64
let base_reg = 28

let config_of ~predecode =
  { Config.default with Config.mem_size; Config.predecode }

let oracle_name predecode = if predecode then "fast" else "slow"

(* ------------------------------------------------------------------ *)
(* Random-program corpus (same shape as test_differential's: ALU ops,
   loads/stores into a seeded data region, forward branches). *)

let gen_reg = QCheck.Gen.int_range 0 15

let gen_instr : Instr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let open Instr in
  let gen_alu = oneofl [ Add; Sub; Sll; Slt; Sltu; Xor; Srl; Sra; Or; And ] in
  let gen_cond = oneofl [ Beq; Bne; Blt; Bge; Bltu; Bgeu ] in
  let word_off = map (fun i -> 4 * i) (int_range 0 (data_words - 1)) in
  frequency
    [ (4, map3 (fun op (rd, rs1) rs2 -> Op { op; rd; rs1; rs2 }) gen_alu
         (pair gen_reg gen_reg) gen_reg);
      (4, map3 (fun op (rd, rs1) imm -> Op_imm { op; rd; rs1; imm })
         (oneofl [ Add; Xor; Or; And ]) (pair gen_reg gen_reg)
         (int_range (-2048) 2047));
      (3, map2 (fun rd offset ->
           Load { width = Word; unsigned = false; rd; rs1 = base_reg; offset })
         gen_reg word_off);
      (3, map2 (fun rs2 offset ->
           Store { width = Word; rs2; rs1 = base_reg; offset })
         gen_reg word_off);
      (2, map3 (fun cond rs1 rs2 -> Branch { cond; rs1; rs2; offset = 8 })
         gen_cond gen_reg gen_reg);
    ]

let gen_program : Instr.t list QCheck.Gen.t =
  let open QCheck.Gen in
  let* body = list_size (int_range 5 40) gen_instr in
  let* seeds = list_size (return 6) (pair gen_reg (int_range (-100) 1000)) in
  let prologue =
    Instr.Lui { rd = base_reg; imm = data_base lsr 12 }
    :: List.concat_map
         (fun (r, v) ->
            if r = 0 then []
            else [ Instr.Op_imm { op = Instr.Add; rd = r; rs1 = 0; imm = v } ])
         seeds
  in
  return (prologue @ body @ [ Instr.Ebreak ])

let corpus_programs =
  lazy
    (let rand = Random.State.make [| 0x1417; 300 |] in
     Array.init 300 (fun _ -> QCheck.Gen.generate1 ~rand gen_program))

let image_of instrs =
  let b = Metal_asm.Image.Builder.create () in
  List.iteri
    (fun i instr ->
       match
         Metal_asm.Image.Builder.emit_word b ~addr:(4 * i)
           (Encode.encode_exn instr)
       with
       | Ok () -> ()
       | Error e -> failwith e)
    instrs;
  Metal_asm.Image.Builder.finish b

let seed_data write =
  for i = 0 to data_words - 1 do
    write (data_base + (4 * i)) (Word.of_int ((i * 0x01234567) + 0x89ABCDEF))
  done

let prepare_image img (sys : System.t) =
  let m = sys.System.machine in
  (match Machine.load_image m img with Ok () -> () | Error e -> failwith e);
  seed_data (Machine.write_word m);
  Machine.set_pc m 0

(* ------------------------------------------------------------------ *)
(* (a) Zero-fault plan == plain Pipeline.run, bit for bit.            *)

let observe ~predecode ~runner img =
  let sys = System.create ~config:(config_of ~predecode) () in
  prepare_image img sys;
  let m = sys.System.machine in
  let c = Collector.create () in
  Machine.set_probe m (Collector.probe c);
  let halt = runner m in
  ( halt,
    Array.init 32 (Machine.get_reg m),
    Metal_hw.Mregs.dump m.Machine.mregs,
    Stats.copy m.Machine.stats,
    Ring.to_list (Collector.ring c) )

let zero_fault_divergence ~predecode instrs =
  let img = image_of instrs in
  let plain =
    observe ~predecode ~runner:(fun m -> Pipeline.run m ~max_cycles:100_000)
      img
  in
  let injected =
    observe ~predecode
      ~runner:(fun m ->
          match Inject.run_plan m ~fuel:100_000 ~plan:[] with
          | Inject.Halted h, 0 -> Some h
          | (Inject.Fuel_exhausted | Inject.Integrity_trip _), 0 -> None
          | _, n -> failwith (Printf.sprintf "empty plan applied %d faults" n))
      img
  in
  if plain = injected then None
  else Some (`State "zero-fault run_plan diverges from Pipeline.run")

let test_zero_fault_corpus ~predecode () =
  let progs = Lazy.force corpus_programs in
  let failures = ref [] in
  Array.iteri
    (fun i instrs ->
       match zero_fault_divergence ~predecode instrs with
       | None -> ()
       | Some (`State msg) ->
         failures := Printf.sprintf "corpus[%d]: %s" i msg :: !failures)
    progs;
  match !failures with
  | [] -> ()
  | fs ->
    Alcotest.fail
      (Printf.sprintf "%d/300 corpus programs diverge:\n%s" (List.length fs)
         (String.concat "\n" (List.rev fs)))

(* ------------------------------------------------------------------ *)
(* (b) + (c) Campaign determinism: same spec -> byte-identical JSON,
   across replays and fleet domain counts; every record's event count
   equals its applied count. *)

let corpus_workload ~predecode i img =
  Inject.workload ~config:(config_of ~predecode) ~fuel:200_000
    ~label:(Printf.sprintf "corpus-%d-%s" i (oracle_name predecode))
    (prepare_image img)

let campaign_exn ?domains ~spec w =
  match Inject.run_campaign ?domains ~spec w with
  | Ok c -> c
  | Error e -> Alcotest.fail ("campaign failed: " ^ e)

let test_campaign_determinism ~predecode () =
  let progs = Lazy.force corpus_programs in
  let spec = { Inject.default_spec with Inject.runs = 6; Inject.seed = 42 } in
  for i = 0 to 19 do
    let w = corpus_workload ~predecode i (image_of progs.(i)) in
    let c1 = campaign_exn ~domains:1 ~spec w in
    let c4 = campaign_exn ~domains:4 ~spec w in
    let c1' = campaign_exn ~domains:1 ~spec w in
    let j1 = Inject.to_json c1 in
    if j1 <> Inject.to_json c4 then
      Alcotest.failf "corpus[%d]: verdicts differ between 1 and 4 domains" i;
    if j1 <> Inject.to_json c1' then
      Alcotest.failf "corpus[%d]: replay with the same spec diverges" i;
    Array.iter
      (fun r ->
         if r.Inject.events <> r.Inject.applied then
           Alcotest.failf
             "corpus[%d] run %d: %d inject events for %d applied faults" i
             r.Inject.index r.Inject.events r.Inject.applied)
      c1.Inject.records
  done

(* ------------------------------------------------------------------ *)
(* Directed: transient flip swept over every cycle of a program with a
   load-use stall and a taken-branch flush.  Every boundary must
   classify deterministically (same verdict on replay), and flipping
   the word the load reads must be visible at least once. *)

let stall_flush_program =
  [ Instr.Lui { rd = base_reg; imm = data_base lsr 12 };
    Instr.Load
      { width = Instr.Word; unsigned = false; rd = 6; rs1 = base_reg;
        offset = 0 };
    Instr.Op { op = Instr.Add; rd = 7; rs1 = 6; rs2 = 6 };  (* load-use *)
    Instr.Branch { cond = Instr.Beq; rs1 = 0; rs2 = 0; offset = 8 };
    Instr.Op { op = Instr.Add; rd = 8; rs1 = 8; rs2 = 8 };  (* flushed *)
    Instr.Store { width = Instr.Word; rs2 = 7; rs1 = base_reg; offset = 4 };
    Instr.Ebreak ]

let test_transient_sweep ~predecode () =
  let img = image_of stall_flush_program in
  let config = config_of ~predecode in
  let prepare = prepare_image img in
  let _, _, _, oracle, _ =
    Tutil.run_injected ~config ~fuel:10_000 ~plan:[] prepare
  in
  let cycles = oracle.Inject.Snapshot.stats.Stats.cycles in
  Alcotest.(check bool) "oracle halted" true (cycles > 0);
  (* The last trigger boundary is [cycles - 1]: the halting step runs
     between it and the final cycle count. *)
  let non_masked = ref 0 in
  for k = 1 to cycles - 1 do
    let plan =
      [ { Inject.trigger = Inject.At_cycle k;
          Inject.fault = Inject.Load { addr = data_base; bit = 3 } } ]
    in
    let verdict, applied, _, _, _ =
      Tutil.run_injected ~config ~fuel:10_000 ~plan prepare
    in
    let verdict', applied', _, _, _ =
      Tutil.run_injected ~config ~fuel:10_000 ~plan prepare
    in
    if
      Inject.verdict_to_string verdict <> Inject.verdict_to_string verdict'
      || Inject.verdict_detail verdict <> Inject.verdict_detail verdict'
      || applied <> applied'
    then Alcotest.failf "cycle %d: replay diverges" k;
    Alcotest.(check int) (Printf.sprintf "cycle %d applied" k) 1 applied;
    match verdict with Inject.Masked -> () | _ -> incr non_masked
  done;
  Alcotest.(check bool) "some cycle observes the transient flip" true
    (!non_masked > 0)

(* ------------------------------------------------------------------ *)
(* The ping workload: a guest looping over [menter 1] 200 times, with
   an interrupt handler mroutine available as entry 2. *)

let ping_mcode =
  ".mentry 1, ping\n\
   .mentry 2, irqh\n\
   ping:\n\
   wmr m11, t0\n\
   rmr t0, m10\n\
   addi t0, t0, 1\n\
   wmr m10, t0\n\
   rmr t0, m11\n\
   mexit\n\
   irqh:\n\
   wmr m20, t6\n\
   li t6, 8\n\
   mcsrw int_pending, t6\n\
   rmr t6, m20\n\
   mexit\n"

let ping_guest =
  "start:\n\
   li s0, 200\n\
   loop:\n\
   menter 1\n\
   addi s0, s0, -1\n\
   bne s0, zero, loop\n\
   ebreak\n"

let prepare_ping ?(irq = None) (sys : System.t) =
  (match System.load_mcode sys ping_mcode with
   | Ok () -> ()
   | Error e -> failwith e);
  (match System.load_program sys ping_guest with
   | Ok _ -> ()
   | Error e -> failwith e);
  let m = sys.System.machine in
  (match irq with
   | None -> ()
   | Some irq ->
     Machine.install_interrupt_handler m ~irq ~entry:2;
     Machine.ctrl_write m Csr.int_enable (1 lsl irq));
  System.start sys ~pc:0 ()

(* A spurious interrupt raised at a Metal-mode boundary: the pipeline
   must hold delivery until after mexit (Metal mode is
   non-interruptible), so the run completes normally and the only
   architectural divergence is the Metal-register state the delivery
   wrote (return address / cause / ping scratch) — never a Metal-mode
   fault, never a guest GPR difference. *)
let test_irq_in_metal_window ~predecode () =
  let config = config_of ~predecode in
  let prepare = prepare_ping ~irq:(Some 3) in
  let plan =
    [ { Inject.trigger = Inject.At_metal_cycle 50;
        Inject.fault = Inject.Irq_raise { irq = 3 } } ]
  in
  let run () = Tutil.run_injected ~config ~fuel:100_000 ~plan prepare in
  let verdict, applied, stop, _, snap = run () in
  let verdict', _, _, _, _ = run () in
  Alcotest.(check int) "applied" 1 applied;
  Alcotest.(check string) "deterministic replay"
    (Inject.verdict_to_string verdict ^ "/" ^ Inject.verdict_detail verdict)
    (Inject.verdict_to_string verdict' ^ "/" ^ Inject.verdict_detail verdict');
  (match stop with
   | Inject.Halted (Machine.Halt_ebreak _) -> ()
   | s ->
     Alcotest.failf "run did not reach ebreak: %s"
       (match s with
        | Inject.Halted h -> Machine.halted_to_string h
        | Inject.Fuel_exhausted -> "fuel exhausted"
        | Inject.Integrity_trip _ -> "integrity trip"));
  (match verdict with
   | Inject.Silent components ->
     List.iter
       (fun c ->
          if not (Tutil.contains c "mreg") then
            Alcotest.failf
              "divergence beyond Metal registers: %s (delivery leaked into \
               the guest?)"
              c)
       components
   | Inject.Masked -> ()
   | Inject.Corrected _ ->
     Alcotest.fail "corrected verdict without ECC armed"
   | Inject.Detected _ ->
     Alcotest.fail "spurious irq was misclassified as a detected fault");
  (* The handler really ran: the delivery wrote Metal registers the
     oracle never touched. *)
  Alcotest.(check bool) "handler delivery visible in mregs" true
    (verdict <> Inject.Masked);
  ignore snap

(* ------------------------------------------------------------------ *)
(* The mverify-style integrity re-check: corrupt MRAM code from a
   normal-mode boundary with integrity armed; the next menter must
   trip Detected/Integrity_menter before the corrupted mroutine
   retires. *)
let test_integrity_trip ~predecode () =
  let config = config_of ~predecode in
  let prepare = prepare_ping ~irq:None in
  let plan =
    [ { Inject.trigger = Inject.At_user_cycle 100;
        Inject.fault = Inject.Mram_code { word = 2; bit = 20 } } ]
  in
  let verdict, applied, stop, _, _ =
    Tutil.run_injected ~config ~integrity:true ~fuel:100_000 ~plan prepare
  in
  Alcotest.(check int) "applied" 1 applied;
  (* Cycle 107 is the first menter after the flip; pinned so that the
     cached [Mram.checksum_code] trips on exactly the cycle the
     recomputing check did. *)
  (match stop with
   | Inject.Integrity_trip { cycle } ->
     Alcotest.(check int) "trip cycle" 107 cycle
   | _ -> Alcotest.fail "integrity check did not trip on menter");
  match verdict with
  | Inject.Detected Inject.Integrity_menter -> ()
  | v ->
    Alcotest.failf "expected Detected/Integrity_menter, got %s (%s)"
      (Inject.verdict_to_string v) (Inject.verdict_detail v)

(* ------------------------------------------------------------------ *)
(* Predecode coherence regression: by cycle 100 the ping mroutine's
   words are hot in the predecode cache.  Flipping any bit of word 2
   (the [addi]) must behave identically on the fast stepper and the
   predecode-free slow oracle — if the fast stepper served a stale
   cached decode of the pre-fault word, it would mask a flip the slow
   stepper observes.  Integrity is OFF so nothing hides the
   divergence. *)
let test_predecode_coherence () =
  let prepare = prepare_ping ~irq:None in
  let non_masked = ref 0 in
  for bit = 0 to 31 do
    let plan =
      [ { Inject.trigger = Inject.At_user_cycle 100;
          Inject.fault = Inject.Mram_code { word = 2; bit } } ]
    in
    let describe (verdict, applied, _, _, _) =
      Printf.sprintf "%s applied=%d [%s]"
        (Inject.verdict_to_string verdict)
        applied
        (Inject.verdict_detail verdict)
    in
    let fast =
      Tutil.run_injected ~config:(config_of ~predecode:true) ~fuel:100_000
        ~plan prepare
    in
    let slow =
      Tutil.run_injected ~config:(config_of ~predecode:false) ~fuel:100_000
        ~plan prepare
    in
    if describe fast <> describe slow then
      Alcotest.failf
        "word 2 bit %d: fast stepper %s vs slow oracle %s — stale predecode?"
        bit (describe fast) (describe slow);
    (match fast with
     | Inject.Masked, _, _, _, _ -> ()
     | _ -> incr non_masked)
  done;
  Alcotest.(check bool) "some bit flip is architecturally visible" true
    (!non_masked > 0)

(* ------------------------------------------------------------------ *)
(* PRNG and spec parsing units. *)

let test_prng_determinism () =
  let a = Inject.Prng.create ~seed:7 ~stream:3 in
  let b = Inject.Prng.create ~seed:7 ~stream:3 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream replays" (Inject.Prng.next a)
      (Inject.Prng.next b)
  done;
  let c = Inject.Prng.create ~seed:7 ~stream:4 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Inject.Prng.next a <> Inject.Prng.next c then differs := true
  done;
  Alcotest.(check bool) "streams are independent" true !differs;
  let d = Inject.Prng.create ~seed:1 ~stream:0 in
  for _ = 1 to 1000 do
    let n = Inject.Prng.int d ~bound:7 in
    if n < 0 || n >= 7 then Alcotest.failf "int out of bounds: %d" n
  done

let test_spec_parsing () =
  (match Inject.spec_of_string "seed:7,runs:3,classes:mreg+load,no-integrity,user-only" with
   | Ok s ->
     Alcotest.(check int) "seed" 7 s.Inject.seed;
     Alcotest.(check int) "runs" 3 s.Inject.runs;
     Alcotest.(check (list string)) "classes" [ "mreg"; "load" ]
       (List.map Inject.class_to_string s.Inject.classes);
     Alcotest.(check bool) "integrity" false s.Inject.integrity;
     Alcotest.(check bool) "user_only" true s.Inject.user_only
   | Error e -> Alcotest.fail e);
  (match Inject.spec_of_string (Inject.spec_to_string Inject.default_spec) with
   | Ok s ->
     Alcotest.(check string) "round trip"
       (Inject.spec_to_string Inject.default_spec)
       (Inject.spec_to_string s)
   | Error e -> Alcotest.fail e);
  (match Inject.spec_of_string "classes:bogus" with
   | Ok _ -> Alcotest.fail "bogus class accepted"
   | Error e ->
     Alcotest.(check bool) "error lists valid classes" true
       (Tutil.contains e "valid:" && Tutil.contains e "mram-code"));
  (match Inject.spec_of_string "frobnicate:9" with
   | Ok _ -> Alcotest.fail "unknown key accepted"
   | Error e ->
     Alcotest.(check bool) "error lists valid keys" true
       (Tutil.contains e "seed:N"));
  (match Inject.spec_of_string "runs:0" with
   | Ok _ -> Alcotest.fail "runs:0 accepted"
   | Error _ -> ());
  match Inject.spec_of_string "" with
  | Ok _ -> Alcotest.fail "empty spec accepted"
  | Error _ -> ()

let test_verdict_json () =
  let w =
    corpus_workload ~predecode:true 0
      (image_of (Lazy.force corpus_programs).(0))
  in
  let spec = { Inject.default_spec with Inject.runs = 4 } in
  let c = campaign_exn ~spec w in
  let j = Inject.to_json c in
  List.iter
    (fun needle ->
       Alcotest.(check bool) (needle ^ " present") true (Tutil.contains j needle))
    [ "\"schema\": \"metal-inject-v1\""; "\"summary\""; "\"per_class\"";
      "\"records\""; "\"oracle_cycles\"" ];
  let masked, corrected, detected, silent = Inject.summary c in
  Alcotest.(check int) "summary covers every run" 4
    (masked + corrected + detected + silent)

(* The trace layer renders inject events symbolically without a
   dependency on lib/inject, so it keeps its own copy of the class
   table ([Event.inject_class_name]).  Pin the two tables together:
   a class added or renamed on one side must update the other. *)
let test_event_class_names () =
  List.iter
    (fun cls ->
       Alcotest.(check string)
         (Printf.sprintf "class code %d" (Inject.class_code cls))
         (Inject.class_to_string cls)
         (Metal_trace.Event.inject_class_name (Inject.class_code cls)))
    Inject.all_classes

(* ------------------------------------------------------------------ *)
(* Snapshot cost: [Snapshot.take] hashes only the pages
   [Phys_mem.page_touched] reports and substitutes the zero-page hash
   for the rest.  That is only sound if every writer marks what it
   writes, so drive random sequences over every writer — the three
   store widths (including page-straddling addresses), image chunks
   spanning several pages, [corrupt_bit], DMA ticks, the loader and
   page-table updates — and check the snapshot against an independent
   hash of every page, and every unmarked page for all-zero bytes. *)

module Phys_mem = Metal_hw.Phys_mem

let touched_pages = 64

let check_touched_map label m =
  let mem = Metal_hw.Bus.memory m.Machine.bus in
  let ps = Phys_mem.page_size in
  let snap = Inject.Snapshot.take m ~console:"" ~halt:None in
  Alcotest.(check int) (label ^ ": page count") touched_pages
    (Array.length snap.Inject.Snapshot.page_hashes);
  for p = 0 to touched_pages - 1 do
    let h = Phys_mem.hash mem ~pos:(p * ps) ~len:ps in
    if snap.Inject.Snapshot.page_hashes.(p) <> h then
      Alcotest.failf "%s: snapshot hash of page %d differs from a full hash"
        label p;
    if not (Phys_mem.page_touched mem p) then
      for a = p * ps to ((p + 1) * ps) - 1 do
        if Phys_mem.read8 mem a <> 0 then
          Alcotest.failf "%s: page %d unmarked but byte 0x%x is 0x%02x" label
            p a (Phys_mem.read8 mem a)
      done
  done

let test_touched_page_map () =
  let ps = Phys_mem.page_size in
  let size = touched_pages * ps in
  let config = { Config.default with Config.mem_size = size } in
  for seed = 0 to 39 do
    let prng = Inject.Prng.create ~seed ~stream:0 in
    let int bound = Inject.Prng.int prng ~bound in
    let sys = System.create ~config () in
    let m = sys.System.machine in
    let mem = Metal_hw.Bus.memory m.Machine.bus in
    (* Frames for the loader and page tables come from the top half. *)
    let alloc =
      Metal_kernel.Frame_alloc.create ~base:(size / 2) ~limit:size
    in
    let space =
      match Metal_kernel.Addr_space.create m ~asid:1 ~alloc with
      | Ok s -> s
      | Error e -> Alcotest.fail e
    in
    (* Mostly the last 1–3 bytes of a page, else anywhere; [width]
       bytes must fit. *)
    let addr width =
      if Inject.Prng.bool prng then
        (int (touched_pages - 1) * ps) + ps - 1 - int 3
      else int (size - width + 1)
    in
    (* Every byte written is non-zero, so a write whose page is left
       unmarked always shows up as a non-zero unmarked page. *)
    let bytes n = String.init n (fun _ -> Char.chr (1 + int 255)) in
    let word () = int 0x1_0000_0000 lor 0x01010101 in
    let label = Printf.sprintf "seed %d" seed in
    for step = 0 to 29 do
      (match int 9 with
       | 0 -> Phys_mem.write8 mem (addr 1) (1 + int 255)
       | 1 -> Phys_mem.write16 mem (addr 2) (word () land 0xFFFF)
       | 2 -> Phys_mem.write32 mem (addr 4) (word ())
       | 3 ->
         let len = 1 + int (3 * ps) in
         ignore
           (Phys_mem.blit_string mem ~addr:(int (size - len + 1)) (bytes len))
       | 4 ->
         let chunks =
           List.init (1 + int 3) (fun _ ->
               let len = 1 + int (2 * ps) in
               (int (size - len + 1), bytes len))
         in
         ignore
           (Phys_mem.load_image mem
              { Metal_asm.Image.chunks; symbols = []; mentries = [];
                mbounds = []; listing = [] })
       | 5 ->
         ignore
           (Phys_mem.corrupt_bit mem ~addr:(4 * int (size / 4)) ~bit:(int 32))
       | 6 ->
         let writes =
           List.init (1 + int 4) (fun c ->
               (c, 4 * int (size / 4), word ()))
         in
         let dma = Metal_hw.Devices.Dma.create ~mem ~writes in
         (Metal_hw.Devices.Dma.device dma).Metal_hw.Bus.tick ~cycle:8
       | 7 ->
         (* May run out of frames part-way; the writes made so far
            must still be marked. *)
         let vaddr = int 0x40_0000 in
         ignore
           (Metal_kernel.Loader.load m ~space ~alloc
              { Metal_asm.Image.chunks = [ (vaddr, bytes (1 + int ps)) ];
                symbols = []; mentries = []; mbounds = []; listing = [] })
       | _ ->
         let vaddr = ps * int 0x400 in
         if Inject.Prng.bool prng then
           ignore
             (Metal_kernel.Addr_space.map space ~vaddr
                ~paddr:(ps * int touched_pages) Metal_kernel.Page_table.rw)
         else
           ignore
             (Metal_kernel.Page_table.unmap space.Metal_kernel.Addr_space.pt
                ~vaddr));
      if step mod 10 = 9 then
        check_touched_map (Printf.sprintf "%s step %d" label step) m
    done
  done

(* The integrity check re-reads [Mram.checksum_code] on every menter;
   the value is cached and must track the code segment exactly. *)
let test_mram_checksum_cache () =
  let code_words = 64 in
  let mram = Metal_hw.Mram.create ~ecc:true ~code_words ~data_bytes:256 () in
  let recompute () =
    let h = ref 0x811c9dc5 in
    for i = 0 to code_words - 1 do
      match Metal_hw.Mram.fetch mram ~addr:(4 * i) with
      | Some w -> h := (!h lxor w) * 0x01000193 land max_int
      | None -> Alcotest.fail "code word out of range"
    done;
    !h
  in
  let image words =
    { Metal_asm.Image.chunks =
        [ (0, String.concat "" (List.map (fun w ->
               String.init 4 (fun k -> Char.chr ((w lsr (8 * k)) land 0xFF)))
               words)) ];
      symbols = []; mentries = []; mbounds = []; listing = [] }
  in
  let load words =
    match Metal_hw.Mram.load_image mram (image words) with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  in
  let sum () = Metal_hw.Mram.checksum_code mram in
  load [ 0x13; 0x00500093; 0xdeadbeef ];
  let c0 = sum () in
  Alcotest.(check int) "loaded = recomputed" (recompute ()) c0;
  Alcotest.(check bool) "flip applied" true
    (Metal_hw.Mram.corrupt_code_bit mram ~word:1 ~bit:7);
  let c1 = sum () in
  Alcotest.(check bool) "flip changes the checksum" true (c1 <> c0);
  Alcotest.(check int) "flipped = recomputed" (recompute ()) c1;
  ignore (Metal_hw.Mram.corrupt_code_bit mram ~word:1 ~bit:7);
  Alcotest.(check int) "flip back restores" c0 (sum ());
  Alcotest.(check bool) "data store applied" true
    (Metal_hw.Mram.store_word mram ~addr:8 0x1234);
  Alcotest.(check bool) "data flip applied" true
    (Metal_hw.Mram.corrupt_data_bit mram ~addr:8 ~bit:3);
  Alcotest.(check int) "data writes keep the checksum" c0 (sum ());
  load [ 0x13; 0x13; 0x13; 0x13 ];
  let c2 = sum () in
  Alcotest.(check bool) "reload changes the checksum" true (c2 <> c0);
  Alcotest.(check int) "reloaded = recomputed" (recompute ()) c2

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "inject"
    [
      ( "zero-fault identity",
        [ Alcotest.test_case "300-program corpus (fast)" `Quick
            (test_zero_fault_corpus ~predecode:true);
          Alcotest.test_case "300-program corpus (slow)" `Quick
            (test_zero_fault_corpus ~predecode:false) ] );
      ( "campaign determinism",
        [ Alcotest.test_case "replay + fleet domains (fast)" `Quick
            (test_campaign_determinism ~predecode:true);
          Alcotest.test_case "replay + fleet domains (slow)" `Quick
            (test_campaign_determinism ~predecode:false) ] );
      ( "edge cases",
        [ Alcotest.test_case "transient flip sweep: stall + flush (fast)"
            `Quick (test_transient_sweep ~predecode:true);
          Alcotest.test_case "transient flip sweep: stall + flush (slow)"
            `Quick (test_transient_sweep ~predecode:false);
          Alcotest.test_case "spurious irq in menter window (fast)" `Quick
            (test_irq_in_metal_window ~predecode:true);
          Alcotest.test_case "spurious irq in menter window (slow)" `Quick
            (test_irq_in_metal_window ~predecode:false);
          Alcotest.test_case "integrity trip on menter (fast)" `Quick
            (test_integrity_trip ~predecode:true);
          Alcotest.test_case "integrity trip on menter (slow)" `Quick
            (test_integrity_trip ~predecode:false);
          Alcotest.test_case "predecode cache coherence under code flips"
            `Quick test_predecode_coherence ] );
      ( "snapshot cost",
        [ Alcotest.test_case "touched-page map completeness" `Quick
            test_touched_page_map;
          Alcotest.test_case "mram checksum cache" `Quick
            test_mram_checksum_cache ] );
      ( "units",
        [ Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
          Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
          Alcotest.test_case "verdict json" `Quick test_verdict_json;
          Alcotest.test_case "event class names stay in sync" `Quick
            test_event_class_names ] );
    ]
