let put_varint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let low = !n land 0x7F in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr low);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (low lor 0x80))
  done

(* Counts and runs fit in 56 bits; a ninth byte can only come from a
   corrupt or hostile encoding. *)
let get_varint b pos =
  let n = ref 0 and shift = ref 0 and p = ref pos and continue = ref true in
  while !continue do
    if !p >= Bytes.length b then invalid_arg "Rle: truncated varint";
    if !shift > 49 then invalid_arg "Rle: varint too long";
    let c = Char.code (Bytes.get b !p) in
    incr p;
    n := !n lor ((c land 0x7F) lsl !shift);
    shift := !shift + 7;
    if c land 0x80 = 0 then continue := false
  done;
  (!n, !p)

type writer = {
  runs : Buffer.t;
  mutable total : int;
  mutable sym : int;  (** symbol of the pending run *)
  mutable run : int;  (** its length; 0 = none pending *)
}

let writer () = { runs = Buffer.create 64; total = 0; sym = 0; run = 0 }

let put_run buf sym run =
  Buffer.add_char buf (Char.chr sym);
  put_varint buf run

let add_run w sym len =
  if sym < 0 || sym > 255 then invalid_arg "Rle: symbol out of byte range";
  if len < 0 then invalid_arg "Rle: negative run length";
  if len > 0 then begin
    if w.run > 0 && sym = w.sym then w.run <- w.run + len
    else begin
      if w.run > 0 then put_run w.runs w.sym w.run;
      w.sym <- sym;
      w.run <- len
    end;
    w.total <- w.total + len
  end

let contents w =
  let out = Buffer.create (Buffer.length w.runs + 16) in
  put_varint out w.total;
  Buffer.add_buffer out w.runs;
  if w.run > 0 then put_run out w.sym w.run;
  Buffer.to_bytes out

let iter_runs symbols f =
  let n = Array.length symbols in
  let i = ref 0 in
  while !i < n do
    let sym = symbols.(!i) in
    if sym < 0 || sym > 255 then invalid_arg "Rle: symbol out of byte range";
    let j = ref (!i + 1) in
    while !j < n && symbols.(!j) = sym do
      incr j
    done;
    f sym (!j - !i);
    i := !j
  done

let encode symbols =
  let w = writer () in
  iter_runs symbols (add_run w);
  contents w

let varint_size n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let encoded_size symbols =
  let size = ref (varint_size (Array.length symbols)) in
  iter_runs symbols (fun _ run -> size := !size + 1 + varint_size run);
  !size

let count b = fst (get_varint b 0)

let fold_runs b f init =
  let total, pos = get_varint b 0 in
  let acc = ref init and i = ref 0 and p = ref pos in
  while !i < total do
    if !p >= Bytes.length b then invalid_arg "Rle: truncated run";
    let sym = Char.code (Bytes.get b !p) in
    let run, p' = get_varint b (!p + 1) in
    if run = 0 || run > total - !i then invalid_arg "Rle: bad run length";
    acc := f !acc ~pos:!i sym run;
    i := !i + run;
    p := p'
  done;
  if !p <> Bytes.length b then invalid_arg "Rle: trailing bytes";
  !acc

let decode b =
  let out = Array.make (count b) 0 in
  fold_runs b (fun () ~pos sym run -> Array.fill out pos run sym) ();
  out

let encode_bits bits =
  encode
    (Array.init (Bitstring.length bits) (fun i ->
         if Bitstring.get bits i then 1 else 0))

let decode_bits b =
  let symbols = decode b in
  let bits = Bitstring.create (Array.length symbols) in
  Array.iteri (fun i s -> Bitstring.set bits i (s <> 0)) symbols;
  bits
