(* [touched] holds one byte per [page_size] page, set by every mutator
   on each page it writes and never cleared: a page whose byte is still
   zero has never been written since [create] and so is all-zero. *)
type t = { data : Bytes.t; touched : Bytes.t; mutable version : int }

let page_bits = 12
let page_size = 1 lsl page_bits

let create ~size =
  if size <= 0 || size land 3 <> 0 then
    invalid_arg "Phys_mem.create: size must be a positive multiple of 4";
  { data = Bytes.make size '\000';
    touched = Bytes.make ((size + page_size - 1) lsr page_bits) '\000';
    version = 0 }

let size t = Bytes.length t.data

let version t = t.version

let page_touched t p =
  p >= 0 && p < Bytes.length t.touched && Bytes.get t.touched p <> '\000'

(* Callers have range-checked [addr]. *)
let touch t addr = Bytes.unsafe_set t.touched (addr lsr page_bits) '\001'

let in_range t ~addr ~width =
  addr >= 0 && addr + width <= Bytes.length t.data

let check t addr width =
  if not (in_range t ~addr ~width) then
    invalid_arg
      (Printf.sprintf "Phys_mem: out-of-range access 0x%08x/%d" addr width)

let read8 t addr =
  check t addr 1;
  Char.code (Bytes.get t.data addr)

let read16 t addr =
  check t addr 2;
  Char.code (Bytes.get t.data addr)
  lor (Char.code (Bytes.get t.data (addr + 1)) lsl 8)

let read32 t addr =
  check t addr 4;
  Char.code (Bytes.get t.data addr)
  lor (Char.code (Bytes.get t.data (addr + 1)) lsl 8)
  lor (Char.code (Bytes.get t.data (addr + 2)) lsl 16)
  lor (Char.code (Bytes.get t.data (addr + 3)) lsl 24)

let write8 t addr v =
  check t addr 1;
  t.version <- t.version + 1;
  touch t addr;
  Bytes.set t.data addr (Char.chr (v land 0xFF))

let write16 t addr v =
  check t addr 2;
  t.version <- t.version + 1;
  touch t addr;
  touch t (addr + 1);
  Bytes.set t.data addr (Char.chr (v land 0xFF));
  Bytes.set t.data (addr + 1) (Char.chr ((v lsr 8) land 0xFF))

let write32 t addr v =
  check t addr 4;
  t.version <- t.version + 1;
  touch t addr;
  touch t (addr + 3);
  Bytes.set t.data addr (Char.chr (v land 0xFF));
  Bytes.set t.data (addr + 1) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set t.data (addr + 2) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set t.data (addr + 3) (Char.chr ((v lsr 24) land 0xFF))

let blit_string t ~addr s =
  if not (in_range t ~addr ~width:(String.length s)) then
    Error
      (Printf.sprintf "image chunk [0x%08x, 0x%08x) outside physical memory"
         addr
         (addr + String.length s))
  else begin
    let len = String.length s in
    t.version <- t.version + 1;
    if len > 0 then
      Bytes.fill t.touched (addr lsr page_bits)
        (((addr + len - 1) lsr page_bits) - (addr lsr page_bits) + 1)
        '\001';
    Bytes.blit_string s 0 t.data addr len;
    Ok ()
  end

let load_image t (img : Metal_asm.Image.t) =
  List.fold_left
    (fun acc (addr, data) ->
       match acc with
       | Error _ as e -> e
       | Ok () -> blit_string t ~addr data)
    (Ok ()) img.Metal_asm.Image.chunks

(* Fault injection (lib/inject): single-bit upset of an aligned word.
   Goes through read32/write32 so the version counter advances exactly
   as for a legitimate store (the predecode cache must re-sync). *)
let corrupt_bit t ~addr ~bit =
  if bit < 0 || bit > 31 then invalid_arg "Phys_mem.corrupt_bit: bit";
  let v = read32 t addr lxor (1 lsl bit) in
  write32 t addr v;
  v

let[@inline] fnv_step h byte = (h lxor byte) * 0x01000193 land max_int

let hash t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length t.data then
    invalid_arg "Phys_mem.hash: range";
  let h = ref 0x811c9dc5 in
  for i = pos to pos + len - 1 do
    h := fnv_step !h (Char.code (Bytes.unsafe_get t.data i))
  done;
  !h

(* Folded over the zero byte rather than hashing a zeroed buffer: no
   allocation at module init, and no [Lazy.t] for fleet domains to
   force concurrently. *)
let zero_page_hash =
  let h = ref 0x811c9dc5 in
  for _ = 1 to page_size do
    h := fnv_step !h 0
  done;
  !h
