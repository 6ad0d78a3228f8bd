(** Sifting: winnowing failed qubits (paper §5).

    Bob reports which slots produced a single click and in which basis
    (run-length encoded — almost all slots are "no detection", per the
    Appendix); Alice answers with the subset whose basis matched hers.
    Both sides then hold the same ordered list of sifted slots, Alice
    reading values from her modulator record and Bob from his
    detectors.  Double clicks and basis mismatches are discarded.

    The exchange is expressed as real [Wire] messages so channel-byte
    accounting is exact. *)

module Bitstring = Qkd_util.Bitstring

(** Per-slot symbols of the sift report. *)
val symbol_none : int

val symbol_basis0 : int
val symbol_basis1 : int
val symbol_double : int

(** [bob_report link] builds Bob's detection-report message from his
    receiver record: one symbol per slot, run-length encoded straight
    from the sorted detections, never as a per-slot array. *)
val bob_report : Qkd_photonics.Link.result -> Wire.msg

(** [alice_response link report] computes Alice's accept/reject reply
    by walking the report's runs.  A report from the wire is untrusted:
    work and allocation are bounded by [link]'s slot count and the
    report's size, whatever it claims.
    @raise Wire.Malformed if [report] is not a sift report, does not
    start at slot 0, declares a slot count other than [link.pulses], or
    carries an unknown symbol, a zero-length run, runs that overshoot
    or fall short of its count, a truncated or over-long varint, or
    trailing bytes. *)
val alice_response : Qkd_photonics.Link.result -> Wire.msg -> Wire.msg

type outcome = {
  slots : int array;  (** sifted slot numbers, ascending *)
  alice_bits : Bitstring.t;  (** Alice's sifted key *)
  bob_bits : Bitstring.t;  (** Bob's sifted key (may contain errors) *)
  detections : int;  (** single clicks reported *)
  double_clicks : int;
  basis_mismatches : int;
  report_bytes : int;  (** wire size of Bob's report *)
  response_bytes : int;  (** wire size of Alice's reply *)
  report_payload : bytes;  (** Bob's report as framed by [Wire.encode] *)
  response_payload : bytes;  (** Alice's reply as framed by [Wire.encode] *)
}

(** [sift link] runs the full exchange: report, response, and both
    sides' extraction, in time and space linear in the detections.
    The encoded messages come back with the outcome, so the engine
    authenticates them without encoding them again.  The returned [alice_bits]/[bob_bits] differ
    exactly where channel noise or Eve flipped an outcome. *)
val sift : Qkd_photonics.Link.result -> outcome

(** [qber outcome] is the fraction of sifted positions where the two
    sides disagree — the measured quantum bit error rate (only
    observable in simulation or after error correction; the protocols
    estimate it from disclosed parities). 0 on an empty sift. *)
val qber : outcome -> float
