(** Byte-addressed physical memory (little-endian). *)

type t

val create : size:int -> t
(** [create ~size] allocates [size] zeroed bytes.  [size] must be a
    positive multiple of 4. *)

val size : t -> int

val version : t -> int
(** Write-version counter: incremented on every mutation ([write8],
    [write16], [write32], [blit_string]/[load_image], including DMA
    writes that go through these accessors).  Consumers that cache
    derived views of memory — e.g. the CPU's predecoded-instruction
    cache — compare the version they captured at fill time against the
    current one to detect (possibly irrelevant) intervening writes. *)

(** {2 Touched pages}

    Memory keeps one flag per {!page_size} page.  Every mutator sets
    the flag of each page it writes: [write8], [write16] and [write32]
    mark the pages of both their first and last byte (alignment is not
    enforced, so a [write32] at [0x…FFE] covers two pages), and
    [blit_string]/[load_image] mark every page of the chunk.  Flags are
    never cleared.  [t] is abstract, so nothing else can write memory:
    {!corrupt_bit}, DMA, the loader and page-table writes all go through
    these mutators.  Invariant: a page whose flag is unset is all-zero,
    as {!create} left it.  Fault-injection snapshots use this to hash
    only the pages a run touched. *)

val page_size : int
(** 4096 bytes. *)

val page_touched : t -> int -> bool
(** [page_touched t p]: some mutator has written page [p] (byte range
    [\[p * page_size, (p + 1) * page_size)]) since {!create}.  [false]
    for page indices outside memory. *)

val in_range : t -> addr:int -> width:int -> bool

val read8 : t -> int -> int
val read16 : t -> int -> int
val read32 : t -> int -> Word.t

val write8 : t -> int -> int -> unit
val write16 : t -> int -> int -> unit
val write32 : t -> int -> Word.t -> unit

(** All accessors assume the address is in range ([in_range] checked by
    the bus); they raise [Invalid_argument] otherwise. *)

val load_image : t -> Metal_asm.Image.t -> (unit, string) result
(** Copy every chunk of an assembled image into memory at its absolute
    address. *)

val blit_string : t -> addr:int -> string -> (unit, string) result

val corrupt_bit : t -> addr:int -> bit:int -> Word.t
(** Fault injection ([lib/inject]): flip bit [bit] (0–31) of the
    aligned word at [addr] and return the resulting word.  Bumps
    {!version} like any other write.  Raises [Invalid_argument] when
    out of range. *)

val hash : t -> pos:int -> len:int -> int
(** FNV-1a hash of [len] bytes starting at [pos] (fault-injection
    verdicts compare per-page hashes instead of copying memory). *)

val zero_page_hash : int
(** [hash] of {!page_size} zero bytes: the hash of every full page
    that {!page_touched} reports unwritten. *)
