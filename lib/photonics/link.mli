(** A complete quantum-cryptographic link: Alice's transmitter, the
    fiber (with Eve on it), and Bob's receiver (Fig 3).

    [run] plays a batch of clock triggers and returns both endpoints'
    raw views — exactly the material the QKD protocol stack starts
    from: Alice's (basis, value) per slot, and Bob's sparse detection
    events with his basis choices.  Neither side sees the other's
    data; everything downstream must travel through protocol
    messages. *)

type config = {
  source : Source.t;
  fiber : Fiber.t;
  detector : Detector.config;
  timing : Timing.t;
  eve : Eve.strategy;
  pulse_rate_hz : float;  (** trigger rate, 1 MHz in the paper *)
  stabilization : Stabilization.config option;
      (** interferometer drift + OPC servo; [None] = ideally stable
          optics (drift folded into the static visibility figure) *)
}

(** [darpa_default] models the paper's operating point: 1 MHz trigger,
    weak-coherent mu = 0.1, 10 km spool (plus receiver insertion loss),
    cooled APDs — chosen so the measured QBER lands in the paper's
    6–8 % band. *)
val darpa_default : config

(** [research_grade] models the stabilised long-haul systems of §1
    (refs [3,4]): visibility 0.98, quieter detectors — reaches ~70 km
    where the DARPA configuration dies around 50 km. *)
val research_grade : config

(** [entangled_default] models the planned second-generation link
    (§3): an SPDC pair source in the middle of the same 10 km plant.
    Alice measures her half of each pair locally (through a detector
    with the same efficiency as Bob's), so her key bit is a measured
    outcome rather than a modulator setting, and slots she missed are
    rejected during sifting.  The multi-pair exposure follows the
    entangled accounting of §6. *)
val entangled_default : config

(** [textbook_example] reproduces §5's illustrative sifting numbers:
    ~1 % of transmitted photons detected, negligible noise. *)
val textbook_example : config

(** Execution strategy for [run].

    - [Reference]: the original one-pulse-at-a-time loop over a single
      split RNG lineage.  Kept as the semantic baseline and the
      statistical oracle; slow.
    - [Batched { domains }]: the skip-ahead kernel.  Each transmission
      frame draws from its own stream, [Rng.derive seed frame_index],
      frames are sharded across [domains] OCaml domains (clamped to
      [\[1, frames\]]), and the per-frame outputs are merged in frame
      order — so the result is {b bit-identical for any domain count,
      including 1}.  Within a frame the kernel bulk-fills basis/value
      bits 64 per RNG word, jumps between candidate slots (a possible
      click, dark count, Eve action or entangled-source coincidence)
      with geometric gaps, resolves each from its exact conditional
      law, and plays the full per-pulse model only while the receiver
      is not quiescent ([Detector.quiescent]) after a click.  Frame
      boundaries re-arm the APDs ([Detector.reset]) and advance the
      stabilization walk at frame granularity.  The two modes agree in
      distribution, not draw for draw. *)
type mode = Reference | Batched of { domains : int }

(** [Batched { domains = 1 }] — the fast path, single-domain. *)
val default_mode : mode

(** One detection event on Bob's side. *)
type detection = {
  slot : int;
  bob_basis : Qubit.basis;
  outcome : Detector.outcome;  (** never [No_click] *)
}

type result = {
  config : config;
  pulses : int;
  gated_pulses : int;
      (** pulses in frames whose annunciation arrived — the only slots
          on which Bob's APDs were gated at all.  [pulses] minus the
          slots of lost frames. *)
  alice_bases : Qkd_util.Bitstring.t;  (** bit i set = Basis1 *)
  alice_values : Qkd_util.Bitstring.t;
  alice_detected : Qkd_util.Bitstring.t;
      (** slots where Alice's side actually registered a value: all
          ones for a weak-coherent transmitter, her own detector's
          clicks for an entangled source.  Sifting rejects the rest. *)
  detections : detection array;  (** ascending slot order *)
  frames_lost : int;
  eve : Eve.t;
  elapsed_s : float;
      (** simulated wall-clock, pulses / rate — exactly 0 when the
          configured rate is [infinity], so per-second consumers must
          guard the division *)
}

(** [run ?seed ?mode config ~pulses] simulates a batch.  [mode]
    defaults to [default_mode].
    @raise Invalid_argument if [pulses <= 0] or the configured
    [pulse_rate_hz] is not positive ([infinity] is allowed). *)
val run : ?seed:int64 -> ?mode:mode -> config -> pulses:int -> result

(** [alice_basis r slot] / [alice_value r slot] decode Alice's record. *)
val alice_basis : result -> int -> Qubit.basis

val alice_value : result -> int -> Qubit.value

(** [detection_rate r] is detections per {e gated} pulse — the
    channel + receiver yield, with frame loss factored out.  0 if every
    frame was lost. *)
val detection_rate : result -> float

(** [raw_detection_rate r] is detections per {e emitted} pulse,
    conflating frame loss with channel loss — the figure a naive
    counter on Bob's side would report. *)
val raw_detection_rate : result -> float
