(** Eavesdropping models (paper §6).

    Eve sits on the quantum channel between Alice's interferometer and
    the fiber, limited only by physics: she measures perfectly,
    transports losslessly, and re-emits pulses indistinguishable from
    Alice's except where the no-cloning theorem forbids.

    - {b Intercept–resend}: she measures a fraction of pulses in a
      random basis and re-emits what she saw.  Wrong-basis
      interceptions randomise Bob's outcome, inducing 25 % QBER on the
      attacked fraction — the disturbance QKD is designed to expose.
    - {b Breidbart intercept}: she measures in the intermediate basis
      (phase π/4), guessing the bit with probability cos²(π/8) ≈ 0.854
      instead of 0.75, at the same 25 % induced QBER.  This is the
      attack family Bennett et al.'s 4e/√2 defense function prices.
    - {b Beam-splitting / PNS}: she siphons one photon off each
      multi-photon pulse and stores it until bases are revealed during
      sifting; error-free, detectable only through privacy
      amplification's multi-photon accounting. *)

type strategy =
  | Passive
  | Intercept_resend of float  (** fraction of pulses attacked, [0,1] *)
  | Intercept_breidbart of float  (** same, in the intermediate basis *)
  | Beamsplit
  | Intercept_and_beamsplit of float

type t

(** [create strategy rng] — @raise Invalid_argument if a fraction is
    outside [0,1]. *)
val create : strategy -> Qkd_util.Rng.t -> t

val strategy : t -> strategy

(** [tap t ~slot pulse] passes one pulse through Eve's apparatus and
    returns what continues toward Bob. *)
val tap : t -> slot:int -> Pulse.t -> Pulse.t

(** [intercept_fraction s] is the per-pulse probability that Eve
    measures and re-emits (0 for [Passive] and [Beamsplit]).  Her coin
    is independent of the pulse's photon number. *)
val intercept_fraction : strategy -> float

(** [splits s] holds when Eve siphons one photon off every multi-photon
    pulse. *)
val splits : strategy -> bool

(** [apply t ~slot ~intercept pulse] is [tap] with the per-pulse coin
    already decided: [intercept] says whether Eve measures this pulse
    (ignored by strategies that never do).  The link kernel decides the
    coin itself when it draws which slots Eve touches. *)
val apply : t -> slot:int -> intercept:bool -> Pulse.t -> Pulse.t

(** [absorb t src] folds the knowledge and counters gathered by [src]
    into [t].  The batched link kernel gives each transmission frame
    its own Eve instance (so frames can run on any domain) and merges
    them; slots never overlap between frames, so the merge is
    order-independent.
    @raise Invalid_argument if the strategies differ. *)
val absorb : t -> t -> unit

(** What Eve ends up knowing about one slot. *)
type slot_knowledge =
  | Stored_photon  (** PNS: exact bit once the basis is announced *)
  | Measured of Qubit.basis * Qubit.value  (** intercept-resend outcome *)
  | Breidbart_guess of Qubit.value  (** intermediate-basis best guess *)

(** [knowledge t] maps attacked slots to what Eve holds.  Consumed by
    the experiment harness to score her information against the
    entropy estimate. *)
val knowledge : t -> (int, slot_knowledge) Hashtbl.t

(** [stored_photons t] counts PNS captures. *)
val stored_photons : t -> int

(** [intercepted t] counts intercept-resend measurements. *)
val intercepted : t -> int

(** [bits_known t ~alice_basis ~alice_value ~sifted_slots] scores Eve's
    exact knowledge of the sifted key: stored photons always reveal the
    bit; interceptions reveal it when her basis matched Alice's; a
    Breidbart guess counts when it happens to be right (her per-bit hit
    rate is cos²(π/8) ≈ 0.854). *)
val bits_known :
  t ->
  alice_basis:(int -> Qubit.basis) ->
  alice_value:(int -> Qubit.value) ->
  sifted_slots:int list ->
  int
