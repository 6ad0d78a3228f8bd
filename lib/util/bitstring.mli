(** Packed bit strings.

    A [Bitstring.t] is a fixed-length sequence of bits stored eight to a
    byte, least-significant bit first within each byte.  All QKD key
    material — raw, sifted, error-corrected and distilled bits — flows
    through this type, so the operations below are the ones the protocol
    stack actually needs: parity, XOR, sub-ranges, popcount and
    serialisation. *)

type t

(** [create n] is an all-zero bit string of length [n].  [n] may be 0. *)
val create : int -> t

(** [length t] is the number of bits in [t]. *)
val length : t -> int

(** [get t i] is bit [i].  @raise Invalid_argument if [i] is out of range. *)
val get : t -> int -> bool

(** [set t i b] sets bit [i] to [b] in place. *)
val set : t -> int -> bool -> unit

(** [flip t i] inverts bit [i] in place. *)
val flip : t -> int -> unit

(** [fill t b] sets every bit of [t] to [b]. *)
val fill : t -> bool -> unit

(** [blit_int64 t ~pos ~bits w] writes the low [bits] bits of [w] into
    [t] starting at [pos], least-significant bit first — the word-level
    counterpart of [bits] calls to [set].  Byte-aligned [pos] takes a
    whole-byte fast path.
    @raise Invalid_argument if [bits] is outside [\[0, 64\]] or the
    range [pos .. pos + bits - 1] is out of bounds. *)
val blit_int64 : t -> pos:int -> bits:int -> int64 -> unit

(** [blit ~src ~src_pos dst ~dst_pos ~len] copies [len] bits from
    [src] into [dst].  When both offsets are byte-aligned the copy is
    byte-wise.  @raise Invalid_argument on an out-of-bounds range. *)
val blit : src:t -> src_pos:int -> t -> dst_pos:int -> len:int -> unit

(** [copy t] is a fresh bit string equal to [t]. *)
val copy : t -> t

(** [equal a b] is true when [a] and [b] have the same length and bits. *)
val equal : t -> t -> bool

(** [of_bool_list bs] packs [bs] in order. *)
val of_bool_list : bool list -> t

val to_bool_list : t -> bool list

(** [of_string s] parses a string of ['0']/['1'] characters.
    @raise Invalid_argument on any other character. *)
val of_string : string -> t

(** [to_string t] renders [t] as ['0']/['1'] characters, bit 0 first. *)
val to_string : t -> string

(** [of_bytes b n] interprets the first [n] bits of [b].
    @raise Invalid_argument if [b] is too short. *)
val of_bytes : bytes -> int -> t

(** [to_bytes t] is the packed representation; unused high bits of the
    final byte are zero. *)
val to_bytes : t -> bytes

(** [xor a b] is the bitwise exclusive-or.
    @raise Invalid_argument on length mismatch. *)
val xor : t -> t -> t

(** [xor_into ~src dst] xors [src] into [dst] in place. *)
val xor_into : src:t -> t -> unit

(** [popcount t] is the number of set bits. *)
val popcount : t -> int

(** [parity t] is true when [t] has an odd number of set bits. *)
val parity : t -> bool

(** [parity_masked t mask] is the parity of [t] restricted to the
    positions set in [mask].  Lengths must match. *)
val parity_masked : t -> t -> bool

(** [sub t pos len] is the [len]-bit substring starting at [pos]. *)
val sub : t -> int -> int -> t

(** [concat a b] is [a] followed by [b]. *)
val concat : t -> t -> t

(** [concat_list ts] concatenates in order. *)
val concat_list : t list -> t

(** [extract t idxs] gathers the bits of [t] at the given positions,
    in order. *)
val extract : t -> int array -> t

(** [hamming_distance a b] is the number of differing positions.
    @raise Invalid_argument on length mismatch. *)
val hamming_distance : t -> t -> int

(** [iteri f t] applies [f i bit] for each position in order. *)
val iteri : (int -> bool -> unit) -> t -> unit

(** [foldi f init t] folds over positions in order. *)
val foldi : ('a -> int -> bool -> 'a) -> 'a -> t -> 'a

(** [append_bit t b] is [t] with [b] appended (fresh string). *)
val append_bit : t -> bool -> t

(** [pp] prints as ['0']/['1'] characters, truncated with an ellipsis
    beyond 64 bits. *)
val pp : Format.formatter -> t -> unit
