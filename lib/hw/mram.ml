type t = {
  code : Word.t array;  (** one slot per instruction word *)
  data : Bytes.t;
  check : Bytes.t;
      (** SECDED check storage: one 7-bit check byte per data-segment
          word when ECC is armed; empty when it is off.  [Ecc.encode 0
          = 0], so the zero fill is consistent with the zeroed data. *)
  entry_table : int array;  (** -1 = unregistered *)
  mutable version : int;  (** bumped on any reconfiguration or write *)
  mutable code_sum : int;
      (** memoised [checksum_code]; -1 when stale.  Only the two
          code-segment mutators ([load_image], [corrupt_code_bit])
          invalidate it. *)
}

let max_entries = 64

let create ?(ecc = false) ~code_words ~data_bytes () =
  if code_words <= 0 then invalid_arg "Mram.create: code_words";
  if data_bytes <= 0 || data_bytes land 3 <> 0 then
    invalid_arg "Mram.create: data_bytes must be a positive multiple of 4";
  {
    code = Array.make code_words 0;
    data = Bytes.make data_bytes '\000';
    check = (if ecc then Bytes.make (data_bytes / 4) '\000' else Bytes.empty);
    entry_table = Array.make max_entries (-1);
    version = 0;
    code_sum = -1;
  }

let ecc t = Bytes.length t.check > 0

let version t = t.version

let code_bytes t = 4 * Array.length t.code

let data_bytes t = Bytes.length t.data

let set_entry t ~entry ~addr =
  if entry < 0 || entry >= max_entries then
    Error (Printf.sprintf "mroutine entry %d out of range" entry)
  else if addr < 0 || addr >= code_bytes t || addr land 3 <> 0 then
    Error (Printf.sprintf "mroutine entry %d at invalid offset 0x%x" entry addr)
  else if t.entry_table.(entry) >= 0 && t.entry_table.(entry) <> addr then
    Error (Printf.sprintf "mroutine entry %d already registered" entry)
  else begin
    t.version <- t.version + 1;
    t.entry_table.(entry) <- addr;
    Ok ()
  end

let entry_addr t entry =
  if entry < 0 || entry >= max_entries then None
  else
    let a = t.entry_table.(entry) in
    if a < 0 then None else Some a

let entries t =
  let acc = ref [] in
  for e = max_entries - 1 downto 0 do
    if t.entry_table.(e) >= 0 then acc := (e, t.entry_table.(e)) :: !acc
  done;
  !acc

let load_image t (img : Metal_asm.Image.t) =
  let ( let* ) = Result.bind in
  let load_chunk (addr, data) =
    if addr land 3 <> 0 || String.length data land 3 <> 0 then
      Error (Printf.sprintf "mcode chunk at 0x%x not word-aligned" addr)
    else if addr < 0 || addr + String.length data > code_bytes t then
      Error
        (Printf.sprintf "mcode chunk [0x%x, 0x%x) exceeds MRAM code segment"
           addr
           (addr + String.length data))
    else begin
      t.version <- t.version + 1;
      t.code_sum <- -1;
      for i = 0 to (String.length data / 4) - 1 do
        let w =
          Char.code data.[4 * i]
          lor (Char.code data.[(4 * i) + 1] lsl 8)
          lor (Char.code data.[(4 * i) + 2] lsl 16)
          lor (Char.code data.[(4 * i) + 3] lsl 24)
        in
        t.code.((addr / 4) + i) <- w
      done;
      Ok ()
    end
  in
  let* () =
    List.fold_left
      (fun acc chunk -> Result.bind acc (fun () -> load_chunk chunk))
      (Ok ()) img.Metal_asm.Image.chunks
  in
  List.fold_left
    (fun acc (entry, addr) ->
       Result.bind acc (fun () -> set_entry t ~entry ~addr))
    (Ok ()) img.Metal_asm.Image.mentries

let fetch t ~addr =
  if addr < 0 || addr land 3 <> 0 || addr >= code_bytes t then None
  else Some t.code.(addr / 4)

let raw_word t addr =
  Char.code (Bytes.get t.data addr)
  lor (Char.code (Bytes.get t.data (addr + 1)) lsl 8)
  lor (Char.code (Bytes.get t.data (addr + 2)) lsl 16)
  lor (Char.code (Bytes.get t.data (addr + 3)) lsl 24)

let load_word_checked t ~addr =
  if addr < 0 || addr land 3 <> 0 || addr + 4 > Bytes.length t.data then None
  else
    let w = raw_word t addr in
    if Bytes.length t.check = 0 then Some (w, Ecc.Clean)
    else
      let r = Ecc.decode ~data:w ~check:(Char.code (Bytes.get t.check (addr / 4))) in
      match r with
      | Ecc.Clean | Ecc.Uncorrectable -> Some (w, r)
      | Ecc.Corrected { data; _ } -> Some (data, r)

let load_word t ~addr =
  match load_word_checked t ~addr with
  | None -> None
  | Some (w, _) -> Some w

let store_word t ~addr v =
  if addr < 0 || addr land 3 <> 0 || addr + 4 > Bytes.length t.data then false
  else begin
    t.version <- t.version + 1;
    Bytes.set t.data addr (Char.chr (v land 0xFF));
    Bytes.set t.data (addr + 1) (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set t.data (addr + 2) (Char.chr ((v lsr 16) land 0xFF));
    Bytes.set t.data (addr + 3) (Char.chr ((v lsr 24) land 0xFF));
    if Bytes.length t.check > 0 then
      Bytes.set t.check (addr / 4) (Char.chr (Ecc.encode v));
    true
  end

let clear_data t =
  Bytes.fill t.data 0 (Bytes.length t.data) '\000';
  if Bytes.length t.check > 0 then
    Bytes.fill t.check 0 (Bytes.length t.check) '\000'

(* Fault injection (lib/inject): flip one bit of a stored word.  Both
   mutators bump [version] exactly like a legitimate write would, so
   the predecoded-instruction cache re-syncs instead of serving a
   decode of the pre-fault word. *)

let corrupt_code_bit t ~word ~bit =
  if word < 0 || word >= Array.length t.code || bit < 0 || bit > 31 then false
  else begin
    t.version <- t.version + 1;
    t.code_sum <- -1;
    t.code.(word) <- t.code.(word) lxor (1 lsl bit);
    true
  end

let corrupt_data_bit t ~addr ~bit =
  if
    bit < 0 || bit > 31 || addr < 0 || addr land 3 <> 0
    || addr + 4 > Bytes.length t.data
  then false
  else begin
    (* Flip the *stored* byte directly: a fault lands under the ECC
       encoder, so the check bits keep describing the pre-fault word
       and the decoder can see (and correct) the upset.  Going through
       [store_word] would regenerate the check bits and neutralise the
       injection. *)
    t.version <- t.version + 1;
    let off = addr + (bit / 8) in
    Bytes.set t.data off
      (Char.chr (Char.code (Bytes.get t.data off) lxor (1 lsl (bit mod 8))));
    true
  end

let checksum_code t =
  if t.code_sum < 0 then begin
    let h = ref 0x811c9dc5 in
    Array.iter
      (fun w -> h := (!h lxor w) * 0x01000193 land max_int)
      t.code;
    t.code_sum <- !h
  end;
  t.code_sum
