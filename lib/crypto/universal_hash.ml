module Bitstring = Qkd_util.Bitstring
module Rng = Qkd_util.Rng

type pa_params = {
  n : int;
  m : int;
  modulus_terms : int list;
  multiplier : Bitstring.t;
  addend : Bitstring.t;
}

let pa_round_up len = max 32 ((len + 31) / 32 * 32)

let pa_choose rng ~input_len ~m =
  let n = pa_round_up input_len in
  if m <= 0 || m > n then invalid_arg "Universal_hash.pa_choose: bad output size";
  let field = Gf2.Field.create n in
  {
    n;
    m;
    modulus_terms = Gf2.Field.modulus_terms field;
    multiplier = Rng.bits rng n;
    addend = Rng.bits rng m;
  }

let pa_apply params x =
  if Bitstring.length x > params.n then
    invalid_arg "Universal_hash.pa_apply: input longer than field degree";
  let field = Gf2.Field.create params.n in
  (* Both sides must use the same modulus; [params.modulus_terms] is
     what travelled on the wire, so check agreement rather than trust
     the cache blindly. *)
  if Gf2.Field.modulus_terms field <> params.modulus_terms then
    invalid_arg "Universal_hash.pa_apply: modulus mismatch";
  let xe = Gf2.Field.element_of_bits field x in
  let a = Gf2.Field.element_of_bits field params.multiplier in
  let product = Gf2.Field.mul field a xe in
  let truncated = Bitstring.sub (Gf2.Field.bits_of_element field product) 0 params.m in
  Bitstring.xor truncated params.addend

type wc_tag = Bitstring.t

let tag_bits = 64
let key_bits_per_tag = 64 + tag_bits

(* Wegman–Carter arithmetic lives in GF(2^64) with the modulus of
   [Gf2.known_moduli], x^64 + x^4 + x^3 + x + 1, one int64 per element
   (bit i = coefficient of x^i).  Shifting past x^63 folds back through
   x^64 = x^4 + x^3 + x + 1: [fold.(b)] is the byte [b] times that
   low part, at most 12 bits wide. *)
let fold = Array.init 256 (fun b -> b lxor (b lsl 1) lxor (b lsl 3) lxor (b lsl 4))

(* [k_table k] holds j·k for every byte j, eight bytes per entry, so a
   product by the fixed point k takes eight table steps. *)
let k_table k =
  let t = Bytes.make (256 * 8) '\000' in
  Bytes.set_int64_le t 8 k;
  for j = 2 to 255 do
    let e =
      if j land 1 = 1 then Int64.logxor (Bytes.get_int64_le t ((j - 1) * 8)) k
      else begin
        (* j·k = x·((j/2)·k) *)
        let h = Bytes.get_int64_le t (j / 2 * 8) in
        let s = Int64.shift_left h 1 in
        if Int64.compare h 0L < 0 then Int64.logxor s 0x1BL else s
      end
    in
    Bytes.set_int64_le t (j * 8) e
  done;
  t

(* a·k mod the field modulus, Horner over the bytes of [a], top first. *)
let[@inline] mul_k t a =
  let acc = ref 0L in
  for i = 7 downto 0 do
    let b = Int64.to_int (Int64.shift_right_logical a (8 * i)) land 0xFF in
    let top = Int64.to_int (Int64.shift_right_logical !acc 56) in
    acc :=
      Int64.logxor
        (Int64.logxor (Int64.shift_left !acc 8) (Int64.of_int (Array.unsafe_get fold top)))
        (Bytes.get_int64_le t (b * 8))
  done;
  !acc

(* Polynomial-evaluation hash: message split into 64-bit little-endian
   chunks m_1..m_l (last chunk zero-padded), evaluated by Horner at the
   secret point k, with a final multiply so the constant term is never
   exposed directly:  h = ((m_1 k + m_2) k + ...) k.  The byte length
   is folded in as one more chunk, so messages differing only in
   trailing zero padding hash differently. *)
let poly_eval k msg =
  let t = k_table k in
  let nbytes = Bytes.length msg in
  let full = nbytes / 8 in
  let acc = ref 0L in
  for i = 0 to full - 1 do
    acc := mul_k t (Int64.logxor !acc (Bytes.get_int64_le msg (8 * i)))
  done;
  if nbytes > 8 * full then begin
    let last = ref 0L in
    for j = nbytes - 1 downto 8 * full do
      last :=
        Int64.logor (Int64.shift_left !last 8) (Int64.of_int (Char.code (Bytes.get msg j)))
    done;
    acc := mul_k t (Int64.logxor !acc !last)
  end;
  mul_k t (Int64.logxor !acc (Int64.of_int nbytes))

let wc_tag ~key msg =
  if Bitstring.length key <> key_bits_per_tag then
    invalid_arg "Universal_hash.wc_tag: key must be key_bits_per_tag bits";
  let kb = Bitstring.to_bytes key in
  let tag = Bitstring.create tag_bits in
  Bitstring.blit_int64 tag ~pos:0 ~bits:tag_bits
    (Int64.logxor (poly_eval (Bytes.get_int64_le kb 0) msg) (Bytes.get_int64_le kb 8));
  tag

let wc_verify ~key ~tag msg = Bitstring.equal tag (wc_tag ~key msg)
