type t = { buf : Bytes.t; capacity : int; mutable cardinal : int }

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { buf = Bytes.make ((n + 7) / 8) '\000'; capacity = n; cardinal = 0 }

let capacity t = t.capacity

let check t i = if i < 0 || i >= t.capacity then invalid_arg "Bitset: out of range"

let get_byte t i = Char.code (Bytes.unsafe_get t.buf (i lsr 3))

let mem t i =
  check t i;
  get_byte t i land (1 lsl (i land 7)) <> 0

let set t i =
  check t i;
  let b = get_byte t i and bit = 1 lsl (i land 7) in
  if b land bit = 0 then begin
    Bytes.unsafe_set t.buf (i lsr 3) (Char.unsafe_chr (b lor bit));
    t.cardinal <- t.cardinal + 1
  end

let clear t i =
  check t i;
  let b = get_byte t i and bit = 1 lsl (i land 7) in
  if b land bit <> 0 then begin
    Bytes.unsafe_set t.buf (i lsr 3) (Char.unsafe_chr (b land lnot bit));
    t.cardinal <- t.cardinal - 1
  end

let cardinal t = t.cardinal

let check_range t start len =
  if start < 0 || len < 0 || start > t.capacity - len then invalid_arg "Bitset: range out of range"

let copy t = { buf = Bytes.copy t.buf; capacity = t.capacity; cardinal = t.cardinal }

let popcount_table =
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  table

let popcount_byte b = Array.unsafe_get popcount_table b

(* Bits [lo, hi) of one byte, 0 <= lo < hi <= 8. *)
let byte_mask lo hi = ((1 lsl (hi - lo)) - 1) lsl lo

let or_byte t b mask =
  let old = Char.code (Bytes.unsafe_get t.buf b) in
  let fresh = mask land lnot old in
  if fresh <> 0 then begin
    Bytes.unsafe_set t.buf b (Char.unsafe_chr (old lor mask));
    t.cardinal <- t.cardinal + popcount_byte fresh
  end

let has_byte t b mask = Char.code (Bytes.unsafe_get t.buf b) land mask = mask

(* Both range kernels split [start, start + len), len > 0, into a head
   byte [b0], whole bytes and a tail byte [b1]; when [b0 = b1] the one
   byte's mask is [head land tail]. *)
let set_range t start len =
  check_range t start len;
  if len > 0 then begin
    let last = start + len - 1 in
    let b0 = start lsr 3 and b1 = last lsr 3 in
    let head = byte_mask (start land 7) 8 and tail = byte_mask 0 ((last land 7) + 1) in
    if b0 = b1 then or_byte t b0 (head land tail)
    else begin
      or_byte t b0 head;
      for b = b0 + 1 to b1 - 1 do
        or_byte t b 0xFF
      done;
      or_byte t b1 tail
    end
  end

let range_full t start len =
  check_range t start len;
  len = 0
  ||
  let last = start + len - 1 in
  let b0 = start lsr 3 and b1 = last lsr 3 in
  let head = byte_mask (start land 7) 8 and tail = byte_mask 0 ((last land 7) + 1) in
  if b0 = b1 then has_byte t b0 (head land tail)
  else
    has_byte t b0 head && has_byte t b1 tail
    &&
    let b = ref (b0 + 1) in
    while !b < b1 && has_byte t !b 0xFF do
      incr b
    done;
    !b = b1

let iter_runs t f =
  let run = ref (-1) in
  let close pos =
    if !run >= 0 then begin
      f !run (pos - !run);
      run := -1
    end
  in
  for b = 0 to Bytes.length t.buf - 1 do
    match Char.code (Bytes.unsafe_get t.buf b) with
    | 0 -> close (b lsl 3)
    | 0xFF -> if !run < 0 then run := b lsl 3
    | byte ->
      for k = 0 to 7 do
        let pos = (b lsl 3) + k in
        if byte land (1 lsl k) = 0 then close pos else if !run < 0 then run := pos
      done
  done;
  close t.capacity

let write_packed t dst pos = Bytes.blit t.buf 0 dst pos (Bytes.length t.buf)

let read_packed n src pos =
  let t = create n in
  let len = Bytes.length t.buf in
  Bytes.blit src pos t.buf 0 len;
  if n land 7 <> 0 then
    Bytes.set_uint8 t.buf (len - 1) (Bytes.get_uint8 t.buf (len - 1) land byte_mask 0 (n land 7));
  let card = ref 0 in
  for b = 0 to len - 1 do
    card := !card + popcount_byte (Char.code (Bytes.unsafe_get t.buf b))
  done;
  t.cardinal <- !card;
  t

let union_into dst src =
  if dst.capacity <> src.capacity then invalid_arg "Bitset.union_into: capacity mismatch";
  let n = Bytes.length dst.buf in
  let card = ref 0 in
  for i = 0 to n - 1 do
    let d = Char.code (Bytes.unsafe_get dst.buf i) and s = Char.code (Bytes.unsafe_get src.buf i) in
    let u = d lor s in
    Bytes.unsafe_set dst.buf i (Char.unsafe_chr u);
    card := !card + popcount_byte u
  done;
  dst.cardinal <- !card

let inter_cardinal a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset.inter_cardinal: capacity mismatch";
  let n = Bytes.length a.buf in
  let card = ref 0 in
  for i = 0 to n - 1 do
    card :=
      !card
      + popcount_byte (Char.code (Bytes.unsafe_get a.buf i) land Char.code (Bytes.unsafe_get b.buf i))
  done;
  !card

let diff_cardinal a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset.diff_cardinal: capacity mismatch";
  let n = Bytes.length a.buf in
  let card = ref 0 in
  for i = 0 to n - 1 do
    card :=
      !card
      + popcount_byte
          (Char.code (Bytes.unsafe_get a.buf i) land lnot (Char.code (Bytes.unsafe_get b.buf i)) land 0xFF)
  done;
  !card

let iter t f =
  for i = 0 to t.capacity - 1 do
    if get_byte t i land (1 lsl (i land 7)) <> 0 then f i
  done

let is_empty t = t.cardinal = 0

let equal a b = a.capacity = b.capacity && Bytes.equal a.buf b.buf

let subset a b =
  a.capacity = b.capacity
  &&
  let n = Bytes.length a.buf in
  let ok = ref true in
  for i = 0 to n - 1 do
    let x = Char.code (Bytes.unsafe_get a.buf i) and y = Char.code (Bytes.unsafe_get b.buf i) in
    if x land lnot y land 0xFF <> 0 then ok := false
  done;
  !ok
