(* splitmix64, with the 64-bit state carried as two 32-bit halves in
   immediate native ints.  A [{ mutable state : int64 }] record boxes a
   fresh [Int64.t] on every state store (3 minor words per draw under
   the non-flambda compiler), which was the last allocation left on the
   ESP dataplane's per-packet IV draw.  Halves stored as immediates
   allocate nothing; the mix itself is reconstructed into [Int64]
   locals whose uses are all unboxing contexts, so cmmgen keeps the
   whole step in registers.  The output stream is bit-identical to the
   historical int64-state implementation. *)
type t = { mutable hi : int; mutable lo : int }

let mask32 = 0xFFFFFFFF
let golden_gamma = 0x9E3779B97F4A7C15L
let gamma_hi = 0x9E3779B9
let gamma_lo = 0x7F4A7C15

let of_int64 seed =
  {
    hi = Int64.to_int (Int64.shift_right_logical seed 32);
    lo = Int64.to_int (Int64.logand seed 0xFFFFFFFFL);
  }

let create seed = of_int64 seed

(* splitmix64 output function (Steele, Lea & Flood 2014).  Inlined so
   the native compiler keeps the Int64 intermediates unboxed in the
   per-pulse hot loops. *)
let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* state <- state + golden_gamma (mod 2^64), in native halves with an
   explicit carry — immediate stores, no boxing. *)
let[@inline] advance t =
  let l = t.lo + gamma_lo in
  t.lo <- l land mask32;
  t.hi <- (t.hi + gamma_hi + (l lsr 32)) land mask32

let[@inline] current t =
  Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo)

let[@inline] int64 t =
  advance t;
  mix (current t)

let split t = of_int64 (int64 t)

(* Double-mixing decorrelates nearby (seed, index) pairs: distinct
   indexes land ~one golden-gamma apart before mixing, exactly the
   spacing splitmix64 is designed to scramble. *)
let derive seed index =
  of_int64 (mix (Int64.add (mix seed) (Int64.mul golden_gamma index)))

let[@inline] float t =
  (* Top 53 bits scaled to [0,1). *)
  let x = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float x *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (int64 t) 1L = 1L

let[@inline] bernoulli t p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t < p

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub Int64.max_int (Int64.rem Int64.max_int bound64) in
  let rec draw () =
    let x = Int64.shift_right_logical (int64 t) 1 in
    if x >= limit then draw () else Int64.to_int (Int64.rem x bound64)
  in
  draw ()

let poisson t mu =
  if mu < 0.0 then invalid_arg "Rng.poisson: negative mean";
  if mu = 0.0 then 0
  else begin
    (* Inversion by sequential search; fine for the mu <= O(10) used by
       weak-coherent sources. *)
    let l = exp (-.mu) in
    let rec go k p =
      let p = p *. float t in
      if p <= l then k else go (k + 1) p
    in
    go 0 1.0
  end

let exponential t rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  -.log (1.0 -. float t) /. rate

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let fill t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Rng.fill";
  (* Whole words go down with one little-endian store; the word is an
     unboxed argument of the store primitive, so the draw stays off the
     minor heap. *)
  let full = len / 8 in
  for j = 0 to full - 1 do
    advance t;
    Bytes.set_int64_le b (pos + (8 * j)) (mix (current t))
  done;
  let tail = pos + (8 * full) and rest = len - (8 * full) in
  if rest > 0 then begin
    advance t;
    let w = mix (current t) in
    (* low 56 bits as a native int: byte k for k < 7 *)
    let lo = Int64.to_int (Int64.logand w 0xFFFFFFFFFFFFFFL) in
    for k = 0 to rest - 1 do
      Bytes.unsafe_set b (tail + k) (Char.unsafe_chr ((lo lsr (8 * k)) land 0xFF))
    done
  end

let bytes t n =
  let b = Bytes.create n in
  fill t b ~pos:0 ~len:n;
  b

(* [fill] lays each word down least significant byte first, which is
   [Bitstring]'s bit order, and draws one word per 64 bits: the same
   string a word-at-a-time [Bitstring.blit_int64] fill would build,
   without boxing a word per draw. *)
let bits t n =
  if n < 0 then invalid_arg "Rng.bits: negative length";
  Bitstring.of_bytes (bytes t ((n + 7) / 8)) n
