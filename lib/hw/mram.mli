(** MRAM: the RAM collocated with the instruction fetch unit that
    stores mroutines (Section 2).

    The RAM partitions code and data into separate segments.  The code
    segment holds up to 64 mroutines addressed by a Metal-mode program
    counter (byte offset into the segment); the data segment holds
    mroutine private data accessed with [mld]/[mst].  MRAM contents are
    never cached and are invisible to normal-mode code. *)

type t

val create : ?ecc:bool -> code_words:int -> data_bytes:int -> unit -> t
(** [data_bytes] must be a multiple of 4.  With [~ecc:true] (default
    false) the data segment carries SECDED Hamming(39,32) check bits
    per word ({!Ecc}): regenerated on {!store_word}, verified on every
    read.  The code segment is already covered by {!checksum_code}. *)

val ecc : t -> bool
(** Whether the data segment carries ECC check bits. *)

val code_bytes : t -> int
val data_bytes : t -> int

val version : t -> int
(** Reconfiguration counter: incremented on [load_image], [set_entry]
    and [store_word].  The CPU's predecoded-instruction cache compares
    this against the value captured at fill time to invalidate stale
    Metal-mode entries. *)

val max_entries : int
(** 64 mroutine entries. *)

val load_image : t -> Metal_asm.Image.t -> (unit, string) result
(** Load an assembled mcode image: chunk addresses are byte offsets
    into the code segment; every [.mentry] in the image is registered.
    Loading is additive — several images may be loaded at disjoint
    offsets (e.g. with [.org]) as long as entries do not collide. *)

val set_entry : t -> entry:int -> addr:int -> (unit, string) result
(** Register entry [entry] at code offset [addr] directly. *)

val entry_addr : t -> int -> int option
(** Code offset of an mroutine entry, if registered. *)

val entries : t -> (int * int) list
(** All registered (entry, offset) pairs, sorted. *)

val fetch : t -> addr:int -> Word.t option
(** Instruction fetch at a byte offset ([None] when out of segment or
    unaligned). *)

val load_word : t -> addr:int -> Word.t option
(** [mld]: word read from the data segment.  With ECC armed this is
    the *corrected view*: a single-bit upset is repaired silently (no
    event, no scrub of the stored bytes); an uncorrectable word is
    returned raw.  Use {!load_word_checked} where the decode status
    matters (the pipeline consumption points). *)

val load_word_checked : t -> addr:int -> (Word.t * Ecc.result) option
(** Like {!load_word} but also reports what the SECDED decoder saw.
    The returned word is always the corrected view; with ECC off the
    status is always [Ecc.Clean].  [None] only for out-of-segment or
    unaligned addresses. *)

val store_word : t -> addr:int -> Word.t -> bool
(** [mst]: word write to the data segment; false when out of range. *)

val clear_data : t -> unit
(** Zero the data segment (used between benchmark runs). *)

(** {2 Fault injection}

    Narrow mutation surface for [lib/inject]: single-bit upsets in the
    stored arrays.  Both mutators bump {!version}, so cached derived
    state (the CPU's predecode cache) is invalidated exactly as for a
    legitimate write — a flipped code word must be re-fetched and
    re-decoded, never served from a stale predecode entry. *)

val corrupt_code_bit : t -> word:int -> bit:int -> bool
(** Flip bit [bit] of code-segment word index [word]; [false] (and no
    change) when either is out of range. *)

val corrupt_data_bit : t -> addr:int -> bit:int -> bool
(** Flip bit [bit] of the data-segment word at byte offset [addr]
    (word-aligned); [false] when out of range.  The flip lands on the
    *stored* bytes underneath the ECC encoder (check bits untouched),
    so with ECC armed the upset remains visible to the decoder. *)

val checksum_code : t -> int
(** FNV-1a hash of the full code segment.  {!Metal_cpu.Machine} records
    it at [load_mcode] time and re-checks it on Metal-mode entry when
    integrity checking is enabled (the dynamic analogue of the static
    mverify pass).  The value is cached: only the code-segment
    mutators {!load_image} and {!corrupt_code_bit} invalidate it, and
    the next call recomputes it, so repeated checks cost O(1) until
    the code changes.  Data-segment writes ({!store_word},
    {!corrupt_data_bit}, {!clear_data}) and {!set_entry} bump
    {!version} but keep the cached value. *)
