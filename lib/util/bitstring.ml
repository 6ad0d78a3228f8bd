type t = { bits : bytes; len : int }

let byte_len len = (len + 7) / 8

let create len =
  if len < 0 then invalid_arg "Bitstring.create: negative length";
  { bits = Bytes.make (byte_len len) '\000'; len }

let length t = t.len

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Bitstring: index out of range"

let unsafe_get t i =
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let get t i =
  check t i;
  unsafe_get t i

let unsafe_set t i b =
  let j = i lsr 3 in
  let mask = 1 lsl (i land 7) in
  let c = Char.code (Bytes.unsafe_get t.bits j) in
  let c = if b then c lor mask else c land lnot mask in
  Bytes.unsafe_set t.bits j (Char.unsafe_chr c)

let set t i b =
  check t i;
  unsafe_set t i b

let blit_int64 t ~pos ~bits w =
  if bits < 0 || bits > 64 then
    invalid_arg "Bitstring.blit_int64: bits must be within [0, 64]";
  if pos < 0 || pos + bits > t.len then
    invalid_arg "Bitstring.blit_int64: range out of bounds";
  if bits > 0 then
    if pos land 7 = 0 then begin
      (* Byte-aligned fast path: the word's little-endian bytes land
         directly, LSB-first matching the bit order above. *)
      let j0 = pos lsr 3 in
      let full = bits lsr 3 in
      let w' = ref w in
      for k = 0 to full - 1 do
        Bytes.unsafe_set t.bits (j0 + k)
          (Char.unsafe_chr (Int64.to_int !w' land 0xFF));
        w' := Int64.shift_right_logical !w' 8
      done;
      let rem = bits land 7 in
      if rem <> 0 then begin
        let j = j0 + full in
        let keep = Char.code (Bytes.unsafe_get t.bits j) land lnot ((1 lsl rem) - 1) in
        Bytes.unsafe_set t.bits j
          (Char.unsafe_chr (keep lor (Int64.to_int !w' land ((1 lsl rem) - 1))))
      end
    end
    else begin
      let w' = ref w in
      for i = 0 to bits - 1 do
        unsafe_set t (pos + i) (Int64.logand !w' 1L = 1L);
        w' := Int64.shift_right_logical !w' 1
      done
    end

let blit ~src ~src_pos dst ~dst_pos ~len =
  if
    len < 0 || src_pos < 0 || dst_pos < 0
    || src_pos + len > src.len
    || dst_pos + len > dst.len
  then invalid_arg "Bitstring.blit: range out of bounds";
  if src_pos land 7 = 0 && dst_pos land 7 = 0 then begin
    Bytes.blit src.bits (src_pos lsr 3) dst.bits (dst_pos lsr 3) (len lsr 3);
    for i = len land lnot 7 to len - 1 do
      unsafe_set dst (dst_pos + i) (unsafe_get src (src_pos + i))
    done
  end
  else
    for i = 0 to len - 1 do
      unsafe_set dst (dst_pos + i) (unsafe_get src (src_pos + i))
    done

let flip t i =
  check t i;
  unsafe_set t i (not (unsafe_get t i))

let copy t = { bits = Bytes.copy t.bits; len = t.len }

(* Unused bits past [len] in the final byte are kept at zero by every
   mutation above, so byte-level comparison and parity are valid. *)
let equal a b = a.len = b.len && Bytes.equal a.bits b.bits

let of_bool_list bs =
  let t = create (List.length bs) in
  List.iteri (fun i b -> unsafe_set t i b) bs;
  t

let to_bool_list t =
  List.init t.len (fun i -> unsafe_get t i)

let of_string s =
  let t = create (String.length s) in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> unsafe_set t i true
      | _ -> invalid_arg "Bitstring.of_string: expected '0' or '1'")
    s;
  t

let to_string t =
  String.init t.len (fun i -> if unsafe_get t i then '1' else '0')

let of_bytes b n =
  if byte_len n > Bytes.length b then invalid_arg "Bitstring.of_bytes: short";
  let t = create n in
  Bytes.blit b 0 t.bits 0 (byte_len n);
  (* Clear bits past [n] so [equal]/[parity] stay byte-wise. *)
  if n land 7 <> 0 then begin
    let j = byte_len n - 1 in
    let keep = (1 lsl (n land 7)) - 1 in
    Bytes.set t.bits j (Char.chr (Char.code (Bytes.get t.bits j) land keep))
  end;
  t

let to_bytes t = Bytes.copy t.bits

let xor_into ~src dst =
  if src.len <> dst.len then invalid_arg "Bitstring.xor_into: length mismatch";
  for j = 0 to Bytes.length dst.bits - 1 do
    Bytes.unsafe_set dst.bits j
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get dst.bits j)
         lxor Char.code (Bytes.unsafe_get src.bits j)))
  done

let xor a b =
  let r = copy a in
  xor_into ~src:b r;
  r

let popcount_byte =
  let tbl = Array.make 256 0 in
  for i = 1 to 255 do
    tbl.(i) <- tbl.(i lsr 1) + (i land 1)
  done;
  fun c -> Array.unsafe_get tbl (Char.code c)

let popcount t =
  let n = ref 0 in
  Bytes.iter (fun c -> n := !n + popcount_byte c) t.bits;
  !n

let parity t = popcount t land 1 = 1

let parity_masked t mask =
  if t.len <> mask.len then invalid_arg "Bitstring.parity_masked";
  let n = ref 0 in
  for j = 0 to Bytes.length t.bits - 1 do
    let c =
      Char.code (Bytes.unsafe_get t.bits j)
      land Char.code (Bytes.unsafe_get mask.bits j)
    in
    n := !n + popcount_byte (Char.unsafe_chr c)
  done;
  !n land 1 = 1

(* Trailing bits past [len] in the last byte stay zero — [hamming_distance]
   and [parity] scan whole bytes and rely on that. *)
let mask_tail r =
  let rem = r.len land 7 in
  if rem <> 0 then begin
    let last = byte_len r.len - 1 in
    Bytes.unsafe_set r.bits last
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get r.bits last) land ((1 lsl rem) - 1)))
  end

let fill t b =
  Bytes.fill t.bits 0 (Bytes.length t.bits) (if b then '\xff' else '\000');
  mask_tail t

let sub t pos len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Bitstring.sub";
  let r = create len in
  if pos land 7 = 0 then begin
    (* Byte-aligned: one blit instead of a bit-by-bit copy. *)
    Bytes.blit t.bits (pos lsr 3) r.bits 0 (byte_len len);
    mask_tail r
  end
  else
    for i = 0 to len - 1 do
      unsafe_set r i (unsafe_get t (pos + i))
    done;
  r

let concat a b =
  let r = create (a.len + b.len) in
  for i = 0 to a.len - 1 do
    unsafe_set r i (unsafe_get a i)
  done;
  for i = 0 to b.len - 1 do
    unsafe_set r (a.len + i) (unsafe_get b i)
  done;
  r

let concat_list ts =
  let total = List.fold_left (fun acc t -> acc + t.len) 0 ts in
  let r = create total in
  let off = ref 0 in
  let blit t =
    if !off land 7 = 0 then begin
      (* The blitted source byte's tail bits past [t.len] are zero, so
         an unaligned continuation can fill that shared byte bit by
         bit without clobbering. *)
      Bytes.blit t.bits 0 r.bits (!off lsr 3) (byte_len t.len);
      off := !off + t.len
    end
    else begin
      for i = 0 to t.len - 1 do
        unsafe_set r (!off + i) (unsafe_get t i)
      done;
      off := !off + t.len
    end
  in
  List.iter blit ts;
  r

let extract t idxs =
  let r = create (Array.length idxs) in
  Array.iteri (fun i j -> unsafe_set r i (get t j)) idxs;
  r

let hamming_distance a b =
  if a.len <> b.len then invalid_arg "Bitstring.hamming_distance";
  let n = ref 0 in
  for j = 0 to Bytes.length a.bits - 1 do
    let c =
      Char.code (Bytes.unsafe_get a.bits j)
      lxor Char.code (Bytes.unsafe_get b.bits j)
    in
    n := !n + popcount_byte (Char.unsafe_chr c)
  done;
  !n

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (unsafe_get t i)
  done

let foldi f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc i (unsafe_get t i)
  done;
  !acc

let append_bit t b =
  let r = create (t.len + 1) in
  for i = 0 to t.len - 1 do
    unsafe_set r i (unsafe_get t i)
  done;
  unsafe_set r t.len b;
  r

let pp ppf t =
  if t.len <= 64 then Format.pp_print_string ppf (to_string t)
  else
    Format.fprintf ppf "%s…(%d bits)" (to_string (sub t 0 64)) t.len
