(** Run-length encoding for sifting messages.

    The paper's Appendix lists run-length encoding as the sifting
    technique: the detection report Bob sends Alice is overwhelmingly
    "no detection" (99 % of slots at metro distances), so encoding runs
    of identical symbols compresses it dramatically.

    The wire format is a sequence of (symbol, run-length) pairs with
    run-lengths as LEB128-style varints, preceded by the total symbol
    count. *)

(** [encode symbols] compresses a symbol sequence.  Symbols must fit in
    a byte (0..255).
    @raise Invalid_argument otherwise. *)
val encode : int array -> bytes

(** [decode b] recovers the symbol sequence.  It allocates the count
    [b] declares; use [count] and [fold_runs] on untrusted input.
    @raise Invalid_argument on malformed input (as [fold_runs]). *)
val decode : bytes -> int array

(** [encoded_size symbols] is [Bytes.length (encode symbols)] without
    materialising the encoding — used by channel-traffic accounting. *)
val encoded_size : int array -> int

(** {1 Streaming}

    The sift exchange never materialises a per-slot symbol array: Bob
    appends runs straight from his sorted detections and Alice walks
    the runs of his report. *)

(** Accumulates runs; adjacent runs of the same symbol merge, so the
    output is byte-identical to [encode] of the concatenated runs. *)
type writer

val writer : unit -> writer

(** [add_run w sym len] appends [len] copies of [sym]; [len = 0] is a
    no-op.
    @raise Invalid_argument if [sym] is outside 0..255 or [len < 0]. *)
val add_run : writer -> int -> int -> unit

(** [contents w] is the encoding of everything appended so far. *)
val contents : writer -> bytes

(** [count b] is the symbol count an encoding declares, read from its
    prefix alone — check it before walking runs of a hostile input.
    @raise Invalid_argument on a truncated or over-long varint. *)
val count : bytes -> int

(** [fold_runs b f init] walks the runs in order, calling
    [f acc ~pos sym run] with [pos] the index of the run's first
    symbol, without allocating per symbol.  Every run [f] sees lies
    within the declared count.
    @raise Invalid_argument on a truncated or over-long varint, a zero
    run, runs that overshoot or fall short of the declared count, or
    trailing bytes. *)
val fold_runs : bytes -> ('a -> pos:int -> int -> int -> 'a) -> 'a -> 'a

(** [encode_bits bits] specialises to a bit string (symbols 0/1). *)
val encode_bits : Bitstring.t -> bytes

val decode_bits : bytes -> Bitstring.t
