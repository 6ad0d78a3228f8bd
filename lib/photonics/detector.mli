(** Gated single-photon avalanche detectors (APDs) and Bob's receiver.

    Bob's pair of cooled APDs runs in Geiger gated mode (paper §4):
    around each expected arrival the bias is raised, an absorbed photon
    triggers an avalanche, and the detector then needs a dead interval.
    The model captures the four behaviours the protocols see: quantum
    efficiency, dark counts per gate, afterpulsing, and dead-time
    gates.  The receiver routes each arriving photon through Bob's
    interferometer (given his basis choice) to one of the APDs. *)

type config = {
  efficiency : float;  (** P(avalanche | photon), typ. 0.1 InGaAs *)
  dark_count_per_gate : float;  (** P(spurious click) per gate *)
  afterpulse_probability : float;
      (** P(click | this APD clicked on the previous gate).  A blanked
          gate clears that memory, so with [dead_time_gates >= 1] the
          gate after a click is always blanked and afterpulsing never
          fires — including at [default], where dead time is 2.  Only
          [dead_time_gates = 0] lets afterpulses (and chains of them)
          through. *)
  dead_time_gates : int;  (** gates blanked after a click *)
  visibility : float;  (** interferometer fringe visibility *)
  d1_efficiency_factor : float;
      (** D1's efficiency relative to D0 (1.0 = matched APDs).  A
          mismatch biases the raw key toward one bit value — §6's
          "detector bias" example of non-randomness. *)
}

(** The DARPA link's operating point: eta 0.10, dark 3e-5 per gate,
    afterpulse 1e-3, 2 dead gates, visibility 0.88 (the drifty lab
    interferometers that put the paper's QBER at 6-8 %), matched
    APDs. *)
val default : config

(** @raise Invalid_argument if any probability is outside [0,1] or
    dead time is negative. *)
val validate : config -> unit

(** Receiver state (per-APD dead-time and afterpulse bookkeeping). *)
type t

val create : config -> t

(** [reset t] returns the receiver to its post-[create] state: both
    APDs live, afterpulse memory and the dark-count tally cleared.
    The batched link kernel calls this at each frame boundary — the
    annunciation gap is long enough for the APDs to recover, so frames
    are independent acquisitions. *)
val reset : t -> unit

(** Outcome of one gate. *)
type outcome =
  | No_click
  | Click of Qubit.value  (** exactly one APD fired: D0 = false/0, D1 = true/1 *)
  | Double_click  (** both fired; sifting discards these *)

(** [detect t rng ?phase_offset ?visibility_scale ~bob_basis pulse]
    plays one gate: the pulse's photons interfere according to
    [bob_basis], APDs fire with efficiency, dark counts and afterpulses
    included, and dead time suppresses gates after a click.
    [phase_offset] (radians, default 0) models interferometer drift
    added to the phase difference; [visibility_scale] (default 1)
    models polarization misalignment scaling the fringe contrast —
    both supplied per-gate by [Stabilization]. *)
val detect :
  t ->
  Qkd_util.Rng.t ->
  ?phase_offset:float ->
  ?visibility_scale:float ->
  bob_basis:Qubit.basis ->
  Pulse.t ->
  outcome

(** [quiescent t] holds when neither APD is dead nor carries afterpulse
    memory.  In that state every gate follows the same click law and a
    gate that does not click leaves the state unchanged, which is what
    lets the link kernel skip such gates without playing them. *)
val quiescent : t -> bool

(** [record t ~d0 ~d1 ~dark] books one gate played on a quiescent
    receiver whose outcome the caller drew itself: [d0]/[d1] say which
    APDs fired and [dark] how many of them fired with no photon
    arriving.  Dead time, afterpulse memory and the dark-count tally
    move exactly as {!detect} would move them. *)
val record : t -> d0:bool -> d1:bool -> dark:int -> outcome

val pp_outcome : Format.formatter -> outcome -> unit

val dark_clicks : t -> int
(** Clicks that fired on a gate with no arriving photons and no armed
    afterpulse — attributable to dark counts alone.  (Dark counts that
    coincide with a live pulse are not separable without extra random
    draws, so this undercounts slightly.) *)
