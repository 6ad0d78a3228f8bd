(* Tests for qkd_crypto: GF(2^n), ciphers and hashes against published
   vectors, universal hashing, bignum/DH, PRF. *)

module Gf2 = Qkd_crypto.Gf2
module Aes = Qkd_crypto.Aes
module Des = Qkd_crypto.Des
module Sha1 = Qkd_crypto.Sha1
module Sha256 = Qkd_crypto.Sha256
module Hmac = Qkd_crypto.Hmac
module Otp = Qkd_crypto.Otp
module Uh = Qkd_crypto.Universal_hash
module Bignum = Qkd_crypto.Bignum
module Dh = Qkd_crypto.Dh
module Prf = Qkd_crypto.Prf
module Bs = Qkd_util.Bitstring
module Rng = Qkd_util.Rng
module Hex = Qkd_util.Hex

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let hex b = Hex.encode b
let qcheck = QCheck_alcotest.to_alcotest

(* -- Gf2.Poly -- *)

let test_poly_of_terms_degree () =
  let p = Gf2.Poly.of_terms [ 5; 2; 0 ] in
  check_int "degree" 5 (Gf2.Poly.degree p);
  check_int "zero degree" (-1) (Gf2.Poly.degree Gf2.Poly.zero)

let test_poly_add_self_cancels () =
  let p = Gf2.Poly.of_terms [ 7; 3; 1 ] in
  check "p + p = 0" true (Gf2.Poly.is_zero (Gf2.Poly.add p p))

let test_poly_mul_known () =
  (* (x+1)(x+1) = x^2+1 over GF(2) *)
  let xp1 = Gf2.Poly.of_terms [ 1; 0 ] in
  check "square" true
    (Gf2.Poly.equal (Gf2.Poly.mul xp1 xp1) (Gf2.Poly.of_terms [ 2; 0 ]));
  (* (x^2+x)(x+1) = x^3+x *)
  check "product" true
    (Gf2.Poly.equal
       (Gf2.Poly.mul (Gf2.Poly.of_terms [ 2; 1 ]) xp1)
       (Gf2.Poly.of_terms [ 3; 1 ]))

let test_poly_mul_zero_one () =
  let p = Gf2.Poly.of_terms [ 9; 4 ] in
  check "x*0" true (Gf2.Poly.is_zero (Gf2.Poly.mul p Gf2.Poly.zero));
  check "x*1" true (Gf2.Poly.equal p (Gf2.Poly.mul p Gf2.Poly.one))

let test_poly_square_matches_mul () =
  let rng = Rng.create 21L in
  for _ = 1 to 20 do
    let p = Gf2.Poly.of_bitstring (Rng.bits rng 200) in
    check "square = mul self" true
      (Gf2.Poly.equal (Gf2.Poly.square p) (Gf2.Poly.mul p p))
  done

let test_poly_rem () =
  (* x^3 mod (x^2+1) = x (since x^3 = x(x^2+1) + x) *)
  let r = Gf2.Poly.rem (Gf2.Poly.of_terms [ 3 ]) (Gf2.Poly.of_terms [ 2; 0 ]) in
  check "x^3 mod x^2+1" true (Gf2.Poly.equal r (Gf2.Poly.of_terms [ 1 ]))

let test_poly_rem_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Gf2.Poly.rem Gf2.Poly.one Gf2.Poly.zero))

let test_poly_gcd () =
  (* gcd(x^2+1, x+1) = x+1 over GF(2) since x^2+1 = (x+1)^2 *)
  let g = Gf2.Poly.gcd (Gf2.Poly.of_terms [ 2; 0 ]) (Gf2.Poly.of_terms [ 1; 0 ]) in
  check "gcd" true (Gf2.Poly.equal g (Gf2.Poly.of_terms [ 1; 0 ]))

let test_irreducible_small () =
  (* x^2+x+1 irreducible; x^2+1 = (x+1)^2 reducible; x^4+x+1
     irreducible; x^4+x^2+1 = (x^2+x+1)^2 reducible. *)
  check "x2+x+1" true (Gf2.Poly.is_irreducible (Gf2.Poly.of_terms [ 2; 1; 0 ]));
  check "x2+1" false (Gf2.Poly.is_irreducible (Gf2.Poly.of_terms [ 2; 0 ]));
  check "x4+x+1" true (Gf2.Poly.is_irreducible (Gf2.Poly.of_terms [ 4; 1; 0 ]));
  check "x4+x2+1" false (Gf2.Poly.is_irreducible (Gf2.Poly.of_terms [ 4; 2; 0 ]))

let test_known_moduli_irreducible () =
  (* Re-verify a sample of the built-in table with the Rabin test
     (the full table takes minutes; these cover the common sizes). *)
  List.iter
    (fun n ->
      let terms = List.assoc n Gf2.known_moduli in
      check
        (Printf.sprintf "degree %d" n)
        true
        (Gf2.Poly.is_irreducible (Gf2.Poly.of_terms terms)))
    [ 32; 64; 96; 128; 160; 256 ]

let test_find_modulus () =
  let terms = Gf2.find_modulus 20 in
  check_int "degree" 20 (List.hd terms);
  check "irreducible" true (Gf2.Poly.is_irreducible (Gf2.Poly.of_terms terms))

let test_field_mul_commutative_associative () =
  let f = Gf2.Field.create 64 in
  let rng = Rng.create 31L in
  for _ = 1 to 20 do
    let a = Gf2.Field.element_of_bits f (Rng.bits rng 64) in
    let b = Gf2.Field.element_of_bits f (Rng.bits rng 64) in
    let c = Gf2.Field.element_of_bits f (Rng.bits rng 64) in
    check "comm" true
      (Gf2.Poly.equal (Gf2.Field.mul f a b) (Gf2.Field.mul f b a));
    check "assoc" true
      (Gf2.Poly.equal
         (Gf2.Field.mul f (Gf2.Field.mul f a b) c)
         (Gf2.Field.mul f a (Gf2.Field.mul f b c)));
    check "distrib" true
      (Gf2.Poly.equal
         (Gf2.Field.mul f a (Gf2.Field.add b c))
         (Gf2.Field.add (Gf2.Field.mul f a b) (Gf2.Field.mul f a c)))
  done

let test_field_element_roundtrip () =
  let f = Gf2.Field.create 96 in
  let rng = Rng.create 32L in
  let bits = Rng.bits rng 96 in
  let e = Gf2.Field.element_of_bits f bits in
  check "roundtrip" true (Bs.equal bits (Gf2.Field.bits_of_element f e))

let test_field_too_many_bits () =
  let f = Gf2.Field.create 32 in
  Alcotest.check_raises "33 bits"
    (Invalid_argument "Gf2.Field.element_of_bits: too many bits") (fun () ->
      ignore (Gf2.Field.element_of_bits f (Bs.create 33)))

(* -- SHA-1 / SHA-256 / HMAC: FIPS and RFC vectors -- *)

let test_sha1_vectors () =
  check_str "abc" "a9993e364706816aba3e25717850c26c9cd0d89d"
    (hex (Sha1.digest_string "abc"));
  check_str "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709"
    (hex (Sha1.digest_string ""));
  check_str "two blocks" "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (hex (Sha1.digest_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))

let test_sha1_incremental () =
  let ctx = Sha1.init () in
  let data = Bytes.of_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq" in
  (* Feed in awkward pieces to cross block boundaries. *)
  Sha1.feed ctx data ~pos:0 ~len:10;
  Sha1.feed ctx data ~pos:10 ~len:37;
  Sha1.feed ctx data ~pos:47 ~len:(Bytes.length data - 47);
  check_str "incremental" "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (hex (Sha1.finalize ctx))

let test_sha1_million_a () =
  let chunk = Bytes.make 1000 'a' in
  let ctx = Sha1.init () in
  for _ = 1 to 1000 do
    Sha1.feed ctx chunk ~pos:0 ~len:1000
  done;
  check_str "million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f" (hex (Sha1.finalize ctx))

let test_sha1_finalize_twice () =
  let ctx = Sha1.init () in
  ignore (Sha1.finalize ctx);
  Alcotest.check_raises "reuse" (Invalid_argument "Sha1.finalize: context finalised")
    (fun () -> ignore (Sha1.finalize ctx))

let test_sha256_vectors () =
  check_str "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex (Sha256.digest_string "abc"));
  check_str "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex (Sha256.digest_string ""));
  check_str "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (hex (Sha256.digest_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))

let test_hmac_sha1_rfc2202 () =
  check_str "case 1" "b617318655057264e28bc0b6fb378c8ef146be00"
    (hex (Hmac.mac ~hash:Hmac.SHA1 ~key:(Bytes.make 20 '\x0b') (Bytes.of_string "Hi There")));
  check_str "case 2" "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
    (hex
       (Hmac.mac ~hash:Hmac.SHA1 ~key:(Bytes.of_string "Jefe")
          (Bytes.of_string "what do ya want for nothing?")));
  (* long key (80 bytes) forces the key-hash path *)
  check_str "case 6" "aa4ae5e15272d00e95705637ce8a3b55ed402112"
    (hex
       (Hmac.mac ~hash:Hmac.SHA1 ~key:(Bytes.make 80 '\xaa')
          (Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First")))

let test_hmac_sha256_rfc4231 () =
  check_str "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (Hmac.mac ~hash:Hmac.SHA256 ~key:(Bytes.make 20 '\x0b') (Bytes.of_string "Hi There")))

let test_hmac_verify () =
  let key = Bytes.of_string "secret" in
  let msg = Bytes.of_string "message" in
  let tag = Hmac.mac_96 ~hash:Hmac.SHA1 ~key msg in
  check "verifies" true (Hmac.verify ~hash:Hmac.SHA1 ~key ~tag msg);
  check "rejects" false (Hmac.verify ~hash:Hmac.SHA1 ~key ~tag (Bytes.of_string "Message"))

(* -- AES: FIPS-197 / SP 800-38A vectors -- *)

let test_aes_fips197 () =
  let pt = Hex.decode "00112233445566778899aabbccddeeff" in
  let cases =
    [
      ("000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a");
      ("000102030405060708090a0b0c0d0e0f1011121314151617", "dda97ca4864cdfe06eaf70a0ec0d7191");
      ( "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "8ea2b7ca516745bfeafc49904b496089" );
    ]
  in
  List.iter
    (fun (k, expect) ->
      let key = Aes.expand_key (Hex.decode k) in
      let ct = Aes.encrypt_block key pt in
      check_str ("enc " ^ k) expect (hex ct);
      check_str ("dec " ^ k) (hex pt) (hex (Aes.decrypt_block key ct)))
    cases

let test_aes_cbc_roundtrip () =
  let key = Aes.expand_key (Hex.decode "2b7e151628aed2a6abf7158809cf4f3c") in
  let iv = Hex.decode "000102030405060708090a0b0c0d0e0f" in
  let pt = Bytes.of_string "The DARPA Quantum Network delivers keys" in
  let ct = Aes.encrypt_cbc key ~iv pt in
  check "ct differs" false (Bytes.equal ct pt);
  check "roundtrip" true (Bytes.equal pt (Aes.decrypt_cbc key ~iv ct));
  check_int "padded to blocks" 0 (Bytes.length ct mod 16)

let test_aes_cbc_sp800_38a () =
  (* SP 800-38A F.2.1 CBC-AES128, first block *)
  let key = Aes.expand_key (Hex.decode "2b7e151628aed2a6abf7158809cf4f3c") in
  let iv = Hex.decode "000102030405060708090a0b0c0d0e0f" in
  let pt = Hex.decode "6bc1bee22e409f96e93d7e117393172a" in
  let ct = Aes.encrypt_cbc key ~iv pt in
  check_str "first block" "7649abac8119b246cee98e9b12e9197d" (hex (Bytes.sub ct 0 16))

let test_aes_ctr_involution () =
  let key = Aes.expand_key (Hex.decode "2b7e151628aed2a6abf7158809cf4f3c") in
  let nonce = Hex.decode "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff" in
  let pt = Bytes.of_string "counter mode is its own inverse, any length" in
  let ct = Aes.ctr key ~nonce pt in
  check "roundtrip" true (Bytes.equal pt (Aes.ctr key ~nonce ct))

let test_aes_ctr_sp800_38a () =
  (* SP 800-38A F.5.1 CTR-AES128, first block *)
  let key = Aes.expand_key (Hex.decode "2b7e151628aed2a6abf7158809cf4f3c") in
  let nonce = Hex.decode "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff" in
  let pt = Hex.decode "6bc1bee22e409f96e93d7e117393172a" in
  check_str "ctr block" "874d6191b620e3261bef6864990db6ce" (hex (Aes.ctr key ~nonce pt))

let test_aes_bad_key () =
  Alcotest.check_raises "15 bytes"
    (Invalid_argument "Aes.expand_key: key must be 16, 24 or 32 bytes") (fun () ->
      ignore (Aes.expand_key (Bytes.create 15)))

let test_aes_bad_padding () =
  let key = Aes.expand_key (Bytes.make 16 'k') in
  let iv = Bytes.make 16 'i' in
  Alcotest.check_raises "garbage ct" (Invalid_argument "Aes: bad padding") (fun () ->
      ignore (Aes.decrypt_cbc key ~iv (Bytes.make 16 '\x00')))

(* -- DES / 3DES -- *)

let test_des_classic_vector () =
  let key = Des.des_key (Hex.decode "133457799bbcdff1") in
  let ct = Des.encrypt_block key (Hex.decode "0123456789abcdef") in
  check_str "encrypt" "85e813540f0ab405" (hex ct);
  check_str "decrypt" "0123456789abcdef" (hex (Des.decrypt_block key ct))

let test_des_weak_key_property () =
  (* All-zero key (weak): E(E(x)) = x. *)
  let key = Des.des_key (Bytes.make 8 '\000') in
  let pt = Hex.decode "0123456789abcdef" in
  check "involution" true
    (Bytes.equal pt (Des.encrypt_block key (Des.encrypt_block key pt)))

let test_3des_degenerates_to_des () =
  (* K1 = K2 = K3 makes EDE equal to single DES. *)
  let k = Hex.decode "133457799bbcdff1" in
  let tdes = Des.ede3_key (Bytes.concat Bytes.empty [ k; k; k ]) in
  let des = Des.des_key k in
  let pt = Hex.decode "0123456789abcdef" in
  check "matches single DES" true
    (Bytes.equal (Des.encrypt_block des pt) (Des.encrypt_block tdes pt))

let test_3des_cbc_roundtrip () =
  let key = Des.ede3_key (Qkd_util.Rng.bytes (Rng.create 77L) 24) in
  let iv = Bytes.make 8 'v' in
  let pt = Bytes.of_string "three keys walk into a Feistel network" in
  check "roundtrip" true (Bytes.equal pt (Des.decrypt_cbc key ~iv (Des.encrypt_cbc key ~iv pt)))

let test_des_complement_property () =
  (* DES(~k, ~p) = ~DES(k, p) *)
  let knot b = Bytes.map (fun c -> Char.chr (lnot (Char.code c) land 0xFF)) b in
  let kraw = Hex.decode "133457799bbcdff1" in
  let p = Hex.decode "0123456789abcdef" in
  let c1 = Des.encrypt_block (Des.des_key kraw) p in
  let c2 = Des.encrypt_block (Des.des_key (knot kraw)) (knot p) in
  check "complement" true (Bytes.equal (knot c1) c2)

(* -- OTP -- *)

let test_otp_roundtrip () =
  let rng = Rng.create 41L in
  let bits = Rng.bits rng 512 in
  let pa = Otp.pad_of_bits (Bs.copy bits) in
  let pb = Otp.pad_of_bits bits in
  let msg = Bytes.of_string "pad me" in
  let ct = Otp.encrypt pa msg in
  check "ct differs" false (Bytes.equal ct msg);
  check "decrypts" true (Bytes.equal msg (Otp.decrypt pb ct));
  check_int "both consumed" (512 - 48) (Otp.remaining pa);
  check_int "sync" (Otp.remaining pa) (Otp.remaining pb)

let test_otp_exhaustion_atomic () =
  let pad = Otp.pad_of_bits (Rng.bits (Rng.create 42L) 40) in
  Alcotest.check_raises "exhausted" Otp.Exhausted (fun () ->
      ignore (Otp.encrypt pad (Bytes.of_string "too long message")));
  (* failed encryption must not consume pad *)
  check_int "untouched" 40 (Otp.remaining pad)

let test_otp_refill () =
  let pad = Otp.pad_of_bits (Rng.bits (Rng.create 43L) 8) in
  Otp.refill pad (Rng.bits (Rng.create 44L) 8);
  check_int "refilled" 16 (Otp.remaining pad);
  ignore (Otp.encrypt pad (Bytes.of_string "ab"));
  check_int "consumed across chunks" 0 (Otp.remaining pad)

(* -- Universal hashing -- *)

let test_pa_round_up () =
  check_int "1" 32 (Uh.pa_round_up 1);
  check_int "32" 32 (Uh.pa_round_up 32);
  check_int "33" 64 (Uh.pa_round_up 33);
  check_int "1000" 1024 (Uh.pa_round_up 1000)

let test_pa_agreement () =
  let rng = Rng.create 51L in
  let x = Rng.bits rng 700 in
  let params = Uh.pa_choose rng ~input_len:700 ~m:300 in
  let y1 = Uh.pa_apply params x in
  let y2 = Uh.pa_apply params x in
  check_int "length m" 300 (Bs.length y1);
  check "agree" true (Bs.equal y1 y2)

let test_pa_different_inputs_differ () =
  let rng = Rng.create 52L in
  let params = Uh.pa_choose rng ~input_len:256 ~m:128 in
  let x1 = Rng.bits rng 256 in
  let x2 = Rng.bits rng 256 in
  check "outputs differ" false (Bs.equal (Uh.pa_apply params x1) (Uh.pa_apply params x2))

let test_pa_linear_structure () =
  (* h(x1) xor h(x2) = multiplier*(x1 xor x2) truncated (the addend
     cancels) — the linearity privacy amplification relies on. *)
  let rng = Rng.create 53L in
  let params = Uh.pa_choose rng ~input_len:128 ~m:64 in
  let x1 = Rng.bits rng 128 and x2 = Rng.bits rng 128 in
  let lhs = Bs.xor (Uh.pa_apply params x1) (Uh.pa_apply params x2) in
  let params_no_addend = { params with Uh.addend = Bs.create 64 } in
  let rhs = Uh.pa_apply params_no_addend (Bs.xor x1 x2) in
  check "linear" true (Bs.equal lhs rhs)

let test_pa_bad_m () =
  let rng = Rng.create 54L in
  Alcotest.check_raises "m too big"
    (Invalid_argument "Universal_hash.pa_choose: bad output size") (fun () ->
      ignore (Uh.pa_choose rng ~input_len:64 ~m:100))

let test_wc_tag_verify () =
  let rng = Rng.create 55L in
  let key = Rng.bits rng Uh.key_bits_per_tag in
  let msg = Bytes.of_string "authenticate this sift message" in
  let tag = Uh.wc_tag ~key msg in
  check "verify ok" true (Uh.wc_verify ~key ~tag msg);
  check "reject altered" false
    (Uh.wc_verify ~key ~tag (Bytes.of_string "authenticate this sift messagE"))

let test_wc_key_sensitivity () =
  let rng = Rng.create 56L in
  let key1 = Rng.bits rng Uh.key_bits_per_tag in
  let key2 = Rng.bits rng Uh.key_bits_per_tag in
  let msg = Bytes.of_string "message" in
  check "different keys, different tags" false
    (Bs.equal (Uh.wc_tag ~key:key1 msg) (Uh.wc_tag ~key:key2 msg))

let test_wc_length_extension_guard () =
  (* trailing zero bytes must change the tag (length is hashed in) *)
  let rng = Rng.create 57L in
  let key = Rng.bits rng Uh.key_bits_per_tag in
  let m1 = Bytes.of_string "abc" in
  let m2 = Bytes.of_string "abc\000" in
  check "padded differs" false (Bs.equal (Uh.wc_tag ~key m1) (Uh.wc_tag ~key m2))

let test_wc_bad_key_size () =
  Alcotest.check_raises "short key"
    (Invalid_argument "Universal_hash.wc_tag: key must be key_bits_per_tag bits")
    (fun () -> ignore (Uh.wc_tag ~key:(Bs.create 10) (Bytes.of_string "x")))

(* Known answers pinned from the original per-chunk GF(2^64) field
   arithmetic: any faster evaluation must reproduce these tags bit for
   bit.  29 528 bytes is the size of a 2M-pulse sift report. *)
let wc_known_answers =
  [
    (0, "d03684e8b34eda89");
    (1, "e89686753a0bd42d");
    (7, "73539c8fdeb05cd6");
    (8, "ddd1f3202e695b55");
    (9, "65ca649de4fd2602");
    (64, "a7187f353aee10ce");
    (29_528, "476e704f7c494590");
  ]

let test_wc_known_answers () =
  let rng = Rng.create 59L in
  let key = Rng.bits rng Uh.key_bits_per_tag in
  let msg = Rng.bytes rng 29_528 in
  List.iter
    (fun (len, expected) ->
      let tag = Uh.wc_tag ~key (Bytes.sub msg 0 len) in
      check_str (Printf.sprintf "%d-byte tag" len) expected (hex (Bs.to_bytes tag));
      check "verifies" true (Uh.wc_verify ~key ~tag (Bytes.sub msg 0 len)))
    wc_known_answers

let prop_wc_forgery_resistance =
  QCheck.Test.make ~name:"wc tags differ across messages" ~count:100
    QCheck.(pair string string)
    (fun (s1, s2) ->
      QCheck.assume (s1 <> s2);
      let key = Rng.bits (Rng.create 58L) Uh.key_bits_per_tag in
      not (Bs.equal (Uh.wc_tag ~key (Bytes.of_string s1)) (Uh.wc_tag ~key (Bytes.of_string s2))))

(* -- Bignum / DH -- *)

let test_bignum_arith_matches_int () =
  let rng = Rng.create 61L in
  for _ = 1 to 200 do
    let a = Rng.int rng 1_000_000 and b = Rng.int rng 1_000_000 in
    let ba = Bignum.of_int a and bb = Bignum.of_int b in
    check "add" true (Bignum.to_int_opt (Bignum.add ba bb) = Some (a + b));
    check "mul" true (Bignum.to_int_opt (Bignum.mul ba bb) = Some (a * b));
    if b > 0 then begin
      let q, r = Bignum.divmod ba bb in
      check "divmod" true
        (Bignum.to_int_opt q = Some (a / b) && Bignum.to_int_opt r = Some (a mod b))
    end
  done

let test_bignum_sub_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Bignum.sub: negative result")
    (fun () -> ignore (Bignum.sub Bignum.one Bignum.two))

let test_bignum_bytes_roundtrip () =
  let rng = Rng.create 62L in
  for _ = 1 to 50 do
    let b = Qkd_util.Rng.bytes rng 37 in
    let n = Bignum.of_bytes_be b in
    let b' = Bignum.to_bytes_be ~len:37 n in
    check "roundtrip" true (Bytes.equal b b')
  done

let test_bignum_hex () =
  check "hex" true (Bignum.to_int_opt (Bignum.of_hex "ff 00") = Some 0xFF00)

let test_bignum_modpow_small () =
  let m =
    Bignum.mod_pow ~base:(Bignum.of_int 5) ~exponent:(Bignum.of_int 117)
      ~modulus:(Bignum.of_int 19)
  in
  check "5^117 mod 19" true (Bignum.to_int_opt m = Some 1)

let test_bignum_modpow_fermat () =
  (* a^(p-1) = 1 mod p for prime p = 1_000_003 *)
  let p = Bignum.of_int 1_000_003 in
  let m =
    Bignum.mod_pow ~base:(Bignum.of_int 2) ~exponent:(Bignum.of_int 1_000_002) ~modulus:p
  in
  check "fermat" true (Bignum.to_int_opt m = Some 1)

(* Miller-Rabin over our own bignum, used to verify the transcribed
   Oakley primes really are prime. *)
let miller_rabin n rounds rng =
  let two = Bignum.two in
  let n_minus_1 = Bignum.sub n Bignum.one in
  (* n-1 = 2^s * d *)
  let rec split d s =
    let q, r = Bignum.divmod d two in
    if Bignum.is_zero r then split q (s + 1) else (d, s)
  in
  let d, s = split n_minus_1 0 in
  let witness a =
    let x = ref (Bignum.mod_pow ~base:a ~exponent:d ~modulus:n) in
    if Bignum.equal !x Bignum.one || Bignum.equal !x n_minus_1 then false
    else begin
      let composite = ref true in
      for _ = 1 to s - 1 do
        if !composite then begin
          x := Bignum.mod_pow ~base:!x ~exponent:two ~modulus:n;
          if Bignum.equal !x n_minus_1 then composite := false
        end
      done;
      !composite
    end
  in
  let rec go i =
    if i = rounds then true
    else begin
      let a = Bignum.add two (Bignum.rem (Bignum.random rng ~bits:64) (Bignum.sub n (Bignum.of_int 4))) in
      if witness a then false else go (i + 1)
    end
  in
  go 0

let test_oakley1_prime () =
  let rng = Rng.create 63L in
  check "768-bit prime" true (miller_rabin (Dh.prime Dh.Oakley1) 2 rng)

let test_dh_agreement () =
  let rng = Rng.create 64L in
  let ka = Dh.generate rng Dh.Oakley1 in
  let kb = Dh.generate rng Dh.Oakley1 in
  let sa = Dh.shared_secret Dh.Oakley1 ~secret:ka.Dh.secret ~peer_public:kb.Dh.public in
  let sb = Dh.shared_secret Dh.Oakley1 ~secret:kb.Dh.secret ~peer_public:ka.Dh.public in
  check "agree" true (Bytes.equal sa sb);
  check_int "96 bytes" 96 (Bytes.length sa)

let test_dh_distinct_sessions () =
  let rng = Rng.create 65L in
  let k1 = Dh.generate rng Dh.Oakley1 in
  let k2 = Dh.generate rng Dh.Oakley1 in
  check "fresh secrets" false (Bignum.equal k1.Dh.secret k2.Dh.secret)

(* -- Prf -- *)

let test_prf_expand_length () =
  let key = Bytes.of_string "k" and seed = Bytes.of_string "s" in
  check_int "17" 17 (Bytes.length (Prf.expand ~key ~seed ~len:17));
  check_int "100" 100 (Bytes.length (Prf.expand ~key ~seed ~len:100))

let test_prf_expand_deterministic_prefix () =
  let key = Bytes.of_string "key" and seed = Bytes.of_string "seed" in
  let a = Prf.expand ~key ~seed ~len:40 in
  let b = Prf.expand ~key ~seed ~len:60 in
  check "prefix stable" true (Bytes.equal a (Bytes.sub b 0 40))

let test_keymat_qbits_matter () =
  let skeyid_d = Bytes.make 20 'd' in
  let nonces = Bytes.of_string "NiNr" in
  let k1 =
    Prf.keymat ~skeyid_d ~qbits:(Bytes.of_string "quantum!") ~protocol:50 ~spi:7l
      ~nonces ~len:36
  in
  let k2 =
    Prf.keymat ~skeyid_d ~qbits:(Bytes.of_string "QUANTUM!") ~protocol:50 ~spi:7l
      ~nonces ~len:36
  in
  let k3 = Prf.keymat ~skeyid_d ~qbits:Bytes.empty ~protocol:50 ~spi:7l ~nonces ~len:36 in
  check "qbits change keymat" false (Bytes.equal k1 k2);
  check "empty differs too" false (Bytes.equal k1 k3)

let test_keymat_spi_matters () =
  let skeyid_d = Bytes.make 20 'd' in
  let nonces = Bytes.of_string "NiNr" in
  let q = Bytes.of_string "q" in
  let k1 = Prf.keymat ~skeyid_d ~qbits:q ~protocol:50 ~spi:7l ~nonces ~len:36 in
  let k2 = Prf.keymat ~skeyid_d ~qbits:q ~protocol:50 ~spi:8l ~nonces ~len:36 in
  check "per-SPI keys" false (Bytes.equal k1 k2)

(* -- cross-cutting property tests -- *)

let bytes_gen = QCheck.map Bytes.of_string QCheck.string

let prop_aes_cbc_roundtrip =
  QCheck.Test.make ~name:"aes cbc roundtrip any plaintext" ~count:100 bytes_gen
    (fun pt ->
      let key = Aes.expand_key (Bytes.make 16 'k') in
      let iv = Bytes.make 16 'v' in
      Bytes.equal pt (Aes.decrypt_cbc key ~iv (Aes.encrypt_cbc key ~iv pt)))

let prop_aes_ctr_involution =
  QCheck.Test.make ~name:"aes ctr involution" ~count:100 bytes_gen (fun pt ->
      let key = Aes.expand_key (Bytes.make 32 'K') in
      let nonce = Bytes.make 16 'n' in
      Bytes.equal pt (Aes.ctr key ~nonce (Aes.ctr key ~nonce pt)))

let prop_3des_cbc_roundtrip =
  QCheck.Test.make ~name:"3des cbc roundtrip" ~count:50 bytes_gen (fun pt ->
      let key = Des.ede3_key (Bytes.make 24 'd') in
      let iv = Bytes.make 8 'v' in
      Bytes.equal pt (Des.decrypt_cbc key ~iv (Des.encrypt_cbc key ~iv pt)))

let prop_sha1_incremental_equals_oneshot =
  QCheck.Test.make ~name:"sha1 incremental = one-shot" ~count:100
    QCheck.(pair string small_nat)
    (fun (s, k) ->
      let b = Bytes.of_string s in
      let k = if Bytes.length b = 0 then 0 else k mod (Bytes.length b + 1) in
      let ctx = Sha1.init () in
      Sha1.feed ctx b ~pos:0 ~len:k;
      Sha1.feed ctx b ~pos:k ~len:(Bytes.length b - k);
      Bytes.equal (Sha1.finalize ctx) (Sha1.digest b))

let prop_hmac_keys_separate =
  QCheck.Test.make ~name:"hmac distinct keys distinct tags" ~count:50
    QCheck.(pair string string)
    (fun (k1, k2) ->
      QCheck.assume (k1 <> k2);
      let msg = Bytes.of_string "fixed message" in
      not
        (Bytes.equal
           (Hmac.mac ~hash:Hmac.SHA1 ~key:(Bytes.of_string k1) msg)
           (Hmac.mac ~hash:Hmac.SHA1 ~key:(Bytes.of_string k2) msg)))

let prop_bignum_mul_commutative =
  QCheck.Test.make ~name:"bignum mul commutative" ~count:100
    QCheck.(pair (list (int_bound 255)) (list (int_bound 255)))
    (fun (xs, ys) ->
      let of_list l = Bignum.of_bytes_be (Bytes.of_string (String.init (List.length l) (fun i -> Char.chr (List.nth l i)))) in
      let a = of_list xs and b = of_list ys in
      Bignum.equal (Bignum.mul a b) (Bignum.mul b a))

let prop_bignum_divmod_identity =
  QCheck.Test.make ~name:"bignum a = q*b + r" ~count:100
    QCheck.(pair (int_bound 1_000_000_000) (int_range 1 1_000_000))
    (fun (a, b) ->
      let ba = Bignum.of_int a and bb = Bignum.of_int b in
      let q, r = Bignum.divmod ba bb in
      Bignum.equal ba (Bignum.add (Bignum.mul q bb) r)
      && Bignum.compare r bb < 0)

let prop_gf2_mul_degree =
  QCheck.Test.make ~name:"gf2 deg(a*b) = deg a + deg b" ~count:100
    QCheck.(pair (list bool) (list bool))
    (fun (xs, ys) ->
      let a = Gf2.Poly.of_bitstring (Bs.of_bool_list xs) in
      let b = Gf2.Poly.of_bitstring (Bs.of_bool_list ys) in
      QCheck.assume (not (Gf2.Poly.is_zero a) && not (Gf2.Poly.is_zero b));
      Gf2.Poly.degree (Gf2.Poly.mul a b) = Gf2.Poly.degree a + Gf2.Poly.degree b)

(* -- dataplane kernels vs their allocating wrappers -- *)

let prop_otp_refill_preserves_order =
  (* the pad is a two-list queue: interleaving refills with takes must
     still hand out bits in exactly the order they were offered *)
  QCheck.Test.make ~name:"otp refill preserves pad order" ~count:100
    QCheck.(
      list_of_size
        Gen.(int_range 1 10)
        (pair (int_range 1 32) (int_range 0 16)))
    (fun steps ->
      let rng = Rng.create 4242L in
      let chunks = List.map (fun (c, _) -> Rng.bits rng (8 * c)) steps in
      let reference = Otp.pad_of_bits (Bs.concat_list (List.map Bs.copy chunks)) in
      let incremental = Otp.pad_of_bits (Bs.create 0) in
      List.for_all2
        (fun (_, take) chunk ->
          Otp.refill incremental chunk;
          (* encrypting zeros exposes the raw pad bytes *)
          take = 0
          || Otp.remaining incremental < 8 * take
          ||
          let src = Bytes.make (take + 2) '\000' in
          let dst = Bytes.make (take + 3) '\xAA' in
          Otp.encrypt_into incremental ~src ~src_pos:1 ~len:take ~dst ~dst_pos:3;
          Bytes.equal (Bytes.sub dst 3 take)
            (Otp.encrypt reference (Bytes.make take '\000')))
        steps chunks)

let prop_hmac_sha1_96_into_matches_mac96 =
  QCheck.Test.make ~name:"hmac sha1-96 kernels = mac_96" ~count:100
    QCheck.(pair (string_of_size Gen.(int_range 0 100)) string)
    (fun (key, msg) ->
      let key = Bytes.of_string key and msg = Bytes.of_string msg in
      let k = Hmac.sha1_key key in
      let len = Bytes.length msg in
      let expect = Hmac.mac_96 ~hash:Hmac.SHA1 ~key msg in
      let dst = Bytes.make 16 '\xAA' in
      Hmac.sha1_96_into k ~msg ~pos:0 ~len ~dst ~dst_pos:2;
      let matches = Bytes.equal expect (Bytes.sub dst 2 12) in
      (* the key's context is reusable across packets *)
      let again = Bytes.make 12 '\000' in
      Hmac.sha1_96_into k ~msg ~pos:0 ~len ~dst:again ~dst_pos:0;
      let reuse_ok = Bytes.equal expect again in
      let verify_ok = Hmac.sha1_96_verify k ~msg ~pos:0 ~len ~tag:dst ~tag_pos:2 in
      Bytes.set dst 5 (Char.chr (Char.code (Bytes.get dst 5) lxor 0x10));
      let tampered_rejected =
        not (Hmac.sha1_96_verify k ~msg ~pos:0 ~len ~tag:dst ~tag_pos:2)
      in
      matches && reuse_ok && verify_ok && tampered_rejected)

let prop_aes_cbc_into_matches_wrapper =
  QCheck.Test.make ~name:"aes cbc into-kernels = wrappers" ~count:100
    QCheck.(pair bytes_gen (int_bound 24))
    (fun (pt, off) ->
      let key = Aes.expand_key (Bytes.make 16 'k') in
      let scratch = Array.make 16 0 in
      let iv = Bytes.init 16 (fun i -> Char.chr (i * 7 land 0xFF)) in
      let len = Bytes.length pt in
      let src = Bytes.make (off + len) '\000' in
      Bytes.blit pt 0 src off len;
      let dst = Bytes.make (off + len + 16) '\000' in
      let n =
        Aes.encrypt_cbc_into key ~scratch ~src ~src_pos:off ~len ~iv ~iv_pos:0
          ~dst ~dst_pos:off
      in
      let expect = Aes.encrypt_cbc key ~iv pt in
      let back = Bytes.make (off + n) '\000' in
      let m =
        Aes.decrypt_cbc_into key ~scratch ~src:dst ~src_pos:off ~len:n ~iv
          ~iv_pos:0 ~dst:back ~dst_pos:off
      in
      n = Bytes.length expect
      && Bytes.equal expect (Bytes.sub dst off n)
      && m = len
      && Bytes.equal pt (Bytes.sub back off m)
      (* a truncated ciphertext reports -1 instead of raising *)
      && Aes.decrypt_cbc_into key ~scratch ~src:dst ~src_pos:off ~len:(n - 1)
           ~iv ~iv_pos:0 ~dst:back ~dst_pos:off
         = -1)

let prop_des_cbc_into_matches_wrapper =
  QCheck.Test.make ~name:"3des cbc into-kernels = wrappers" ~count:50
    QCheck.(pair bytes_gen (int_bound 16))
    (fun (pt, off) ->
      let key = Des.ede3_key (Bytes.make 24 'd') in
      let iv = Bytes.init 8 (fun i -> Char.chr (i * 31 land 0xFF)) in
      let len = Bytes.length pt in
      let src = Bytes.make (off + len) '\000' in
      Bytes.blit pt 0 src off len;
      let dst = Bytes.make (off + len + 8) '\000' in
      let n =
        Des.encrypt_cbc_into key ~src ~src_pos:off ~len ~iv ~iv_pos:0 ~dst
          ~dst_pos:off
      in
      let expect = Des.encrypt_cbc key ~iv pt in
      let back = Bytes.make (off + n) '\000' in
      let m =
        Des.decrypt_cbc_into key ~src:dst ~src_pos:off ~len:n ~iv ~iv_pos:0
          ~dst:back ~dst_pos:off
      in
      n = Bytes.length expect
      && Bytes.equal expect (Bytes.sub dst off n)
      && m = len
      && Bytes.equal pt (Bytes.sub back off m)
      && Des.decrypt_cbc_into key ~src:dst ~src_pos:off ~len:(n - 1) ~iv
           ~iv_pos:0 ~dst:back ~dst_pos:off
         = -1)

let prop_sha1_reset_reuse_matches_digest =
  QCheck.Test.make ~name:"sha1 reset/finalize_into = digest" ~count:100
    QCheck.(pair string string)
    (fun (s1, s2) ->
      let b1 = Bytes.of_string s1 and b2 = Bytes.of_string s2 in
      let ctx = Sha1.init () in
      let out = Bytes.make 24 '\xFF' in
      Sha1.feed ctx b1 ~pos:0 ~len:(Bytes.length b1);
      Sha1.finalize_into ctx ~dst:out ~pos:4;
      let first = Bytes.equal (Sha1.digest b1) (Bytes.sub out 4 20) in
      Sha1.reset ctx;
      Sha1.feed ctx b2 ~pos:0 ~len:(Bytes.length b2);
      first && Bytes.equal (Sha1.finalize ctx) (Sha1.digest b2))

let () =
  Alcotest.run "qkd_crypto"
    [
      ( "gf2",
        [
          Alcotest.test_case "of_terms degree" `Quick test_poly_of_terms_degree;
          Alcotest.test_case "add cancels" `Quick test_poly_add_self_cancels;
          Alcotest.test_case "mul known" `Quick test_poly_mul_known;
          Alcotest.test_case "mul zero/one" `Quick test_poly_mul_zero_one;
          Alcotest.test_case "square = mul" `Quick test_poly_square_matches_mul;
          Alcotest.test_case "rem" `Quick test_poly_rem;
          Alcotest.test_case "rem by zero" `Quick test_poly_rem_by_zero;
          Alcotest.test_case "gcd" `Quick test_poly_gcd;
          Alcotest.test_case "irreducible small" `Quick test_irreducible_small;
          Alcotest.test_case "table irreducible" `Slow test_known_moduli_irreducible;
          Alcotest.test_case "find modulus" `Quick test_find_modulus;
          Alcotest.test_case "field laws" `Quick test_field_mul_commutative_associative;
          Alcotest.test_case "element roundtrip" `Quick test_field_element_roundtrip;
          Alcotest.test_case "too many bits" `Quick test_field_too_many_bits;
        ] );
      ( "hashes",
        [
          Alcotest.test_case "sha1 vectors" `Quick test_sha1_vectors;
          Alcotest.test_case "sha1 incremental" `Quick test_sha1_incremental;
          Alcotest.test_case "sha1 million a" `Slow test_sha1_million_a;
          Alcotest.test_case "sha1 finalize twice" `Quick test_sha1_finalize_twice;
          Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "hmac-sha1 rfc2202" `Quick test_hmac_sha1_rfc2202;
          Alcotest.test_case "hmac-sha256 rfc4231" `Quick test_hmac_sha256_rfc4231;
          Alcotest.test_case "hmac verify" `Quick test_hmac_verify;
        ] );
      ( "aes",
        [
          Alcotest.test_case "fips-197" `Quick test_aes_fips197;
          Alcotest.test_case "cbc roundtrip" `Quick test_aes_cbc_roundtrip;
          Alcotest.test_case "cbc sp800-38a" `Quick test_aes_cbc_sp800_38a;
          Alcotest.test_case "ctr involution" `Quick test_aes_ctr_involution;
          Alcotest.test_case "ctr sp800-38a" `Quick test_aes_ctr_sp800_38a;
          Alcotest.test_case "bad key" `Quick test_aes_bad_key;
          Alcotest.test_case "bad padding" `Quick test_aes_bad_padding;
        ] );
      ( "des",
        [
          Alcotest.test_case "classic vector" `Quick test_des_classic_vector;
          Alcotest.test_case "weak key" `Quick test_des_weak_key_property;
          Alcotest.test_case "3des degenerates" `Quick test_3des_degenerates_to_des;
          Alcotest.test_case "3des cbc" `Quick test_3des_cbc_roundtrip;
          Alcotest.test_case "complement property" `Quick test_des_complement_property;
        ] );
      ( "otp",
        [
          Alcotest.test_case "roundtrip" `Quick test_otp_roundtrip;
          Alcotest.test_case "exhaustion atomic" `Quick test_otp_exhaustion_atomic;
          Alcotest.test_case "refill" `Quick test_otp_refill;
        ] );
      ( "universal-hash",
        [
          Alcotest.test_case "round up" `Quick test_pa_round_up;
          Alcotest.test_case "pa agreement" `Quick test_pa_agreement;
          Alcotest.test_case "pa inputs differ" `Quick test_pa_different_inputs_differ;
          Alcotest.test_case "pa linearity" `Quick test_pa_linear_structure;
          Alcotest.test_case "pa bad m" `Quick test_pa_bad_m;
          Alcotest.test_case "wc tag/verify" `Quick test_wc_tag_verify;
          Alcotest.test_case "wc key sensitivity" `Quick test_wc_key_sensitivity;
          Alcotest.test_case "wc length guard" `Quick test_wc_length_extension_guard;
          Alcotest.test_case "wc bad key size" `Quick test_wc_bad_key_size;
          Alcotest.test_case "wc known answers" `Quick test_wc_known_answers;
          qcheck prop_wc_forgery_resistance;
        ] );
      ( "bignum-dh",
        [
          Alcotest.test_case "arith vs int" `Quick test_bignum_arith_matches_int;
          Alcotest.test_case "sub negative" `Quick test_bignum_sub_negative;
          Alcotest.test_case "bytes roundtrip" `Quick test_bignum_bytes_roundtrip;
          Alcotest.test_case "hex" `Quick test_bignum_hex;
          Alcotest.test_case "modpow small" `Quick test_bignum_modpow_small;
          Alcotest.test_case "modpow fermat" `Quick test_bignum_modpow_fermat;
          Alcotest.test_case "oakley1 prime" `Slow test_oakley1_prime;
          Alcotest.test_case "dh agreement" `Quick test_dh_agreement;
          Alcotest.test_case "dh fresh secrets" `Quick test_dh_distinct_sessions;
        ] );
      ( "properties",
        [
          qcheck prop_aes_cbc_roundtrip;
          qcheck prop_aes_ctr_involution;
          qcheck prop_3des_cbc_roundtrip;
          qcheck prop_sha1_incremental_equals_oneshot;
          qcheck prop_hmac_keys_separate;
          qcheck prop_bignum_mul_commutative;
          qcheck prop_bignum_divmod_identity;
          qcheck prop_gf2_mul_degree;
          qcheck prop_otp_refill_preserves_order;
          qcheck prop_hmac_sha1_96_into_matches_mac96;
          qcheck prop_aes_cbc_into_matches_wrapper;
          qcheck prop_des_cbc_into_matches_wrapper;
          qcheck prop_sha1_reset_reuse_matches_digest;
        ] );
      ( "prf",
        [
          Alcotest.test_case "expand length" `Quick test_prf_expand_length;
          Alcotest.test_case "expand prefix" `Quick test_prf_expand_deterministic_prefix;
          Alcotest.test_case "keymat qbits" `Quick test_keymat_qbits_matter;
          Alcotest.test_case "keymat spi" `Quick test_keymat_spi_matters;
        ] );
    ]
