module Bitstring = Qkd_util.Bitstring
module Rng = Qkd_util.Rng

type config = {
  source : Source.t;
  fiber : Fiber.t;
  detector : Detector.config;
  timing : Timing.t;
  eve : Eve.strategy;
  pulse_rate_hz : float;
  stabilization : Stabilization.config option;
}

let darpa_default =
  {
    source = Source.weak_coherent ~mu:0.1;
    (* 10 km spool at 0.2 dB/km plus ~3 dB of receiver interferometer
       and coupler insertion loss. *)
    fiber = Fiber.make ~length_km:10.0 ~insertion_loss_db:3.0 ();
    detector = Detector.default;
    timing = Timing.make ~pulses_per_frame:4096 ();
    eve = Eve.Passive;
    pulse_rate_hz = 1e6;
    stabilization = None;
  }

(* Stabilised interferometers and quieter detectors, modelling the
   plug-and-play systems of refs [3,4] that reached ~70 km. *)
let research_grade =
  {
    darpa_default with
    fiber = Fiber.make ~length_km:10.0 ~insertion_loss_db:2.0 ();
    detector =
      {
        Detector.default with
        Detector.visibility = 0.98;
        dark_count_per_gate = 2e-5;
      };
  }

let textbook_example =
  {
    source = Source.weak_coherent ~mu:0.1;
    fiber = Fiber.make ~length_km:0.0 ();
    detector =
      {
        Detector.efficiency = 0.105;
        dark_count_per_gate = 0.0;
        afterpulse_probability = 0.0;
        dead_time_gates = 0;
        visibility = 1.0;
        d1_efficiency_factor = 1.0;
      };
    timing = Timing.make ~pulses_per_frame:4096 ();
    eve = Eve.Passive;
    pulse_rate_hz = 1e6;
    stabilization = None;
  }

let entangled_default =
  { darpa_default with source = Source.entangled_pair ~mu:0.1 }

type mode = Reference | Batched of { domains : int }

let default_mode = Batched { domains = 1 }

type detection = {
  slot : int;
  bob_basis : Qubit.basis;
  outcome : Detector.outcome;
}

type result = {
  config : config;
  pulses : int;
  gated_pulses : int;
  alice_bases : Bitstring.t;
  alice_values : Bitstring.t;
  alice_detected : Bitstring.t;
  detections : detection array;
  frames_lost : int;
  eve : Eve.t;
  elapsed_s : float;
}

let is_entangled config =
  match config.source.Source.kind with
  | Source.Entangled_pair -> true
  | Source.Weak_coherent -> false

(* Alice's own half of an entangled pair: she holds the bit only when
   her local detector (same efficiency as Bob's) fired on it. *)
let alice_coincidence config rng (pulse : Pulse.t) =
  let eta = config.detector.Detector.efficiency in
  let p_alice = 1.0 -. ((1.0 -. eta) ** float_of_int pulse.Pulse.photons) in
  Rng.bernoulli rng p_alice

(* Final servo state → health series.  The gauge carries |phase error|
   at the end of the run — the signal the stabilization-drift alert
   watches — and the counter accumulates servo actuations.  Nothing is
   recorded when stabilization is not modelled, so default-config runs
   leave the registry (and the golden snapshot) untouched. *)
let record_stabilization = function
  | None -> ()
  | Some s ->
      let open Qkd_obs in
      Gauge.set
        (Registry.gauge "photonics_stabilization_phase_error_rad"
           ~help:"Interferometer phase error at end of last run (abs, rad)")
        (Float.abs (Stabilization.phase_error s));
      Counter.add
        (Registry.counter "photonics_stabilization_corrections_total"
           ~help:"Optical-process-control servo actuations")
        (Stabilization.corrections s)

(* Obs emission + result assembly shared by both execution modes. *)
let finish config ~pulses ~gated_pulses ~alice_bases ~alice_values
    ~alice_detected ~detections ~frames_lost ~dark_clicks ~eve =
  let double_clicks =
    Array.fold_left
      (fun n d ->
        match d.outcome with Detector.Double_click -> n + 1 | _ -> n)
      0 detections
  in
  let open Qkd_obs in
  Counter.add
    (Registry.counter "photonics_pulses_total"
       ~help:"Optical pulses emitted by Alice's source")
    pulses;
  Counter.add
    (Registry.counter "photonics_gated_pulses_total"
       ~help:"Pulses in frames whose annunciation arrived (Bob gated)")
    gated_pulses;
  Counter.add
    (Registry.counter "photonics_detections_total"
       ~help:"Gates on which at least one of Bob's APDs fired")
    (Array.length detections);
  Counter.add
    (Registry.counter "photonics_double_clicks_total"
       ~help:"Gates on which both APDs fired (discarded by sifting)")
    double_clicks;
  Counter.add
    (Registry.counter "photonics_dark_counts_total"
       ~help:"Clicks attributable to dark counts alone")
    dark_clicks;
  Counter.add
    (Registry.counter "photonics_frames_lost_total"
       ~help:"Transmission frames lost to missed annunciation")
    frames_lost;
  Trace.record_sim "link_run" (float_of_int pulses /. config.pulse_rate_hz);
  {
    config;
    pulses;
    gated_pulses;
    alice_bases;
    alice_values;
    alice_detected;
    detections;
    frames_lost;
    eve;
    elapsed_s = float_of_int pulses /. config.pulse_rate_hz;
  }

(* -- Reference implementation: one pulse at a time, one RNG lineage.
   Kept as the semantic baseline the batched kernel's property tests
   compare against (statistically — the draw orders differ). -- *)

let run_reference ~seed (config : config) ~pulses =
  let master = Rng.create seed in
  (* Independent streams so adding Eve does not perturb Alice's or
     Bob's random choices. *)
  let alice_rng = Rng.split master in
  let bob_rng = Rng.split master in
  let channel_rng = Rng.split master in
  let eve_rng = Rng.split master in
  let frame_rng = Rng.split master in
  let eve = Eve.create config.eve eve_rng in
  let receiver = Detector.create config.detector in
  let drift_rng = Rng.split master in
  let stabilization = Option.map Stabilization.create config.stabilization in
  let slot_dt = 1.0 /. config.pulse_rate_hz in
  let alice_bases = Bitstring.create pulses in
  let alice_values = Bitstring.create pulses in
  let alice_detected = Bitstring.create pulses in
  let entangled = is_entangled config in
  let detections = ref [] in
  let frames_lost = ref 0 in
  let gated_pulses = ref 0 in
  let current_frame = ref (-1) in
  let frame_ok = ref true in
  for slot = 0 to pulses - 1 do
    let frame = Timing.frame_of_slot config.timing slot in
    if frame <> !current_frame then begin
      current_frame := frame;
      frame_ok := Timing.frame_alive config.timing frame_rng;
      if not !frame_ok then incr frames_lost
    end;
    let basis = Qubit.random_basis alice_rng in
    let value = Qubit.random_value alice_rng in
    Bitstring.set alice_bases slot (basis = Qubit.Basis1);
    Bitstring.set alice_values slot value;
    let pulse = Source.emit config.source alice_rng ~basis ~value in
    (* Weak-coherent: Alice set the modulator, so she always "has" her
       value.  Entangled: [value] is the outcome her own detector read
       off her half of the pair(s) — she only has it when that
       detector fired. *)
    (if entangled then begin
       if alice_coincidence config alice_rng pulse then
         Bitstring.set alice_detected slot true
     end
     else Bitstring.set alice_detected slot true);
    let pulse = Eve.tap eve ~slot pulse in
    let pulse = Fiber.transmit config.fiber channel_rng pulse in
    let phase_offset, visibility_scale =
      match stabilization with
      | None -> (0.0, 1.0)
      | Some s ->
          Stabilization.advance s drift_rng ~dt:slot_dt;
          (Stabilization.phase_error s, Stabilization.visibility_scale s)
    in
    if !frame_ok then begin
      incr gated_pulses;
      (* Without the annunciation pulse Bob's APDs are never gated, so
         a lost frame yields no events (not even dark counts). *)
      let bob_basis = Qubit.random_basis bob_rng in
      match
        Detector.detect receiver bob_rng ~phase_offset ~visibility_scale
          ~bob_basis pulse
      with
      | Detector.No_click -> ()
      | outcome -> detections := { slot; bob_basis; outcome } :: !detections
    end
  done;
  let detections = Array.of_list (List.rev !detections) in
  record_stabilization stabilization;
  finish config ~pulses ~gated_pulses:!gated_pulses ~alice_bases ~alice_values
    ~alice_detected ~detections ~frames_lost:!frames_lost
    ~dark_clicks:(Detector.dark_clicks receiver)
    ~eve

(* -- Batched: the skip-ahead kernel.

   Determinism contract: every transmission frame draws from its own
   splitmix stream, [Rng.derive seed frame_index], so a frame's output
   depends only on (seed, config, frame index) — never on which domain
   ran it or in what order.  Results are bit-identical for any domain
   count, including 1.  Auxiliary whole-run streams (stabilization
   walk, the merged Eve's own entropy) use negative indexes no frame
   can occupy.

   Per-frame independence is also physical: the annunciation gap
   between frames re-arms the APDs (dead time and afterpulse memory do
   not cross a frame boundary) and is when the interferometer servo
   snapshot applies, so the stabilization walk advances frame-by-frame
   (a Gaussian walk over dt is distributionally the same as its
   per-pulse refinement) and holds within a frame (4 ms at the DARPA
   operating point, where the walk moves ~0.02 rad).

   Within a frame the kernel simulates clicks, not pulses.  While the
   receiver is quiescent ([Detector.quiescent]) every slot follows one
   law that depends only on the slot's class — Alice's basis and value
   and Bob's basis, all bulk-filled up front — and most slots are
   trivial: no APD fires, Eve does nothing, and (entangled source)
   Alice's own detector stays dark.  A trivial slot changes no state,
   so the kernel jumps over runs of them with geometric gaps and
   resolves each candidate slot from its exact law conditioned on
   being non-trivial.  After a click the receiver is not quiescent and
   the full per-pulse model plays each slot until it is again, which
   is exactly the [dead_time_gates] slots after the click when dead
   time blanks afterpulse memory.

   The candidate law rests on two facts.  Poisson photon numbers split
   into independent per-photon fates (Alice's mark, lost, arriving at
   D0 or D1, detected or not), so given n photons the slot is trivial
   exactly when neither dark count fires and no photon is detected by
   Bob or marked by Alice.  Eve's coin is independent of the photon
   number, so the slots she measures (coin and n >= 1) and the
   multi-photon pulses she splits are candidates in their own right;
   such slots play the full per-pulse model from their photon number. *)

let stab_stream = -1L
let eve_stream = -2L

(* A categorical over [0 .. last] from unnormalised cumulative weights;
   [last] is the last category of positive weight, so a draw rounding
   past the total can never land on an impossible one. *)
type categorical = { cum : float array; last : int }

let categorical weights =
  let cum = Array.make (Array.length weights) 0.0 in
  let acc = ref 0.0 and last = ref 0 in
  Array.iteri
    (fun k w ->
      acc := !acc +. w;
      cum.(k) <- !acc;
      if w > 0.0 then last := k)
    weights;
  { cum; last = !last }

let draw rng c =
  let u = Rng.float rng *. c.cum.(c.last) in
  let k = ref 0 in
  while !k < c.last && u >= c.cum.(!k) do
    incr k
  done;
  !k

(* Photon fates: [alice_mark * 5 + f], f = lost, D0 arrived undetected,
   D0 detected, D1 arrived undetected, D1 detected. *)
let quiet_fate k = k = 0 || k = 1 || k = 3

(* The quiescent law of one slot class. *)
type slot_law = {
  q : float;  (** P(slot non-trivial) *)
  photons : categorical;  (** n given non-trivial *)
  attacked : float array;  (** P(Eve acts | n, non-trivial) *)
  silent : float array;  (** P(no dark count, no marked photon | n) *)
  dark : float;  (** dark count per APD per gate *)
  marked : float;  (** P(one photon detected by Bob or marked by Alice) *)
  fate : categorical;
  fate_quiet : categorical;  (** given unmarked *)
  fate_marked : categorical;  (** given marked *)
}

(* Poisson weights of n = 0 .. nmax, cut where the tail is below any
   float the sequential-search sampler could resolve. *)
let poisson_weights mu =
  let rec go n p acc =
    if float_of_int n > mu && p < 1e-17 then Array.of_list (List.rev acc)
    else go (n + 1) (p *. mu /. float_of_int (n + 1)) (p :: acc)
  in
  go 0 (exp (-.mu)) []

let slot_law (config : config) ~alive ~p_d1 =
  let det = config.detector in
  let eta_a =
    if is_entangled config then det.Detector.efficiency else 0.0
  in
  (* A lost frame gates no APD: only Alice's side and Eve can act. *)
  let t = if alive then Fiber.transmittance config.fiber else 0.0 in
  let dark = if alive then det.Detector.dark_count_per_gate else 0.0 in
  let eta0 = det.Detector.efficiency in
  let eta1 = eta0 *. det.Detector.d1_efficiency_factor in
  let fates =
    [|
      1.0 -. t;
      t *. (1.0 -. p_d1) *. (1.0 -. eta0);
      t *. (1.0 -. p_d1) *. eta0;
      t *. p_d1 *. (1.0 -. eta1);
      t *. p_d1 *. eta1;
    |]
  in
  let w =
    Array.init 10 (fun k -> (if k >= 5 then eta_a else 1.0 -. eta_a) *. fates.(k mod 5))
  in
  let only keep = Array.mapi (fun k x -> if keep k then x else 0.0) w in
  (* Written so matched APDs give every class the same figure. *)
  let unmarked =
    let d1_loss = 1.0 -. det.Detector.d1_efficiency_factor in
    (1.0 -. eta_a) *. (1.0 -. (t *. eta0 *. (1.0 -. (p_d1 *. d1_loss))))
  in
  let f = Eve.intercept_fraction config.eve and splits = Eve.splits config.eve in
  let pi = poisson_weights config.source.Source.mean_photon_number in
  let nmax = Array.length pi - 1 in
  let silent =
    Array.init (nmax + 1) (fun n -> ((1.0 -. dark) ** 2.0) *. (unmarked ** float_of_int n))
  in
  let attacked = Array.make (nmax + 1) 0.0 in
  let weights =
    Array.init (nmax + 1) (fun n ->
        let a = if splits && n >= 2 then 1.0 else if n >= 1 then f else 0.0 in
        let loud = a +. ((1.0 -. a) *. (1.0 -. silent.(n))) in
        if loud > 0.0 then attacked.(n) <- a /. loud;
        pi.(n) *. loud)
  in
  let photons = categorical weights in
  {
    q = photons.cum.(nmax);
    photons;
    attacked;
    silent;
    dark;
    marked = 1.0 -. unmarked;
    fate = categorical w;
    fate_quiet = categorical (only quiet_fate);
    fate_marked = categorical (only (fun k -> not (quiet_fate k)));
  }

(* Slot class = Alice's basis bit, value bit and Bob's basis bit. *)
type frame_law = { classes : slot_law array; q_max : float }

let frame_law (config : config) ~alive ~stab:(phase_offset, visibility_scale) =
  let det = config.detector in
  let visibility =
    Float.max 0.0 (Float.min 1.0 (det.Detector.visibility *. visibility_scale))
  in
  let classes =
    Array.init 8 (fun c ->
        let basis b = if b then Qubit.Basis1 else Qubit.Basis0 in
        let delta =
          Qubit.alice_phase (basis (c land 1 = 1)) (c land 2 = 2)
          -. Qubit.bob_phase (basis (c land 4 = 4))
          +. phase_offset
        in
        slot_law config ~alive ~p_d1:(Qubit.detector_d1_probability ~visibility ~delta))
  in
  { classes; q_max = Array.fold_left (fun m l -> Float.max m l.q) 0.0 classes }

type frame_out = {
  fo_lost : bool;
  fo_bases : Bitstring.t;
  fo_values : Bitstring.t;
  fo_detected : Bitstring.t;
  fo_detections : detection array;
  fo_dark : int;
  fo_eve : Eve.t option;
}

let no_detection =
  { slot = 0; bob_basis = Qubit.Basis0; outcome = Detector.No_click }

(* Simulate frame [frame] covering slots [first .. first+len-1].
   [receiver] is reused across a worker's frames and reset here. *)
let simulate_frame (config : config) ~seed ~entangled ~receiver ~law ~frame ~first
    ~len ~stab:(phase_offset, visibility_scale) =
  Detector.reset receiver;
  let rng = Rng.derive seed (Int64.of_int frame) in
  let alive = Timing.frame_alive config.timing rng in
  let alice_rng = Rng.split rng in
  let bob_rng = Rng.split rng in
  let channel_rng = Rng.split rng in
  let eve_rng = Rng.split rng in
  let skip_rng = Rng.split rng in
  let law : frame_law = law ~alive in
  (* Bulk draws: one 64-bit word fills 64 basis or value bits. *)
  let bases = Rng.bits alice_rng len in
  let values = Rng.bits alice_rng len in
  let bob_bases = if alive then Rng.bits bob_rng len else bases in
  let detected = Bitstring.create len in
  if not entangled then Bitstring.fill detected true;
  let eve =
    match config.eve with
    | Eve.Passive -> None
    | strategy -> Some (Eve.create strategy eve_rng)
  in
  let dets = ref (Array.make 16 no_detection) in
  let n_dets = ref 0 in
  let push d =
    if !n_dets = Array.length !dets then begin
      let bigger = Array.make (2 * !n_dets) no_detection in
      Array.blit !dets 0 bigger 0 !n_dets;
      dets := bigger
    end;
    !dets.(!n_dets) <- d;
    incr n_dets
  in
  let bob_basis i =
    if Bitstring.get bob_bases i then Qubit.Basis1 else Qubit.Basis0
  in
  (* The full per-pulse model of slot [i] from its photon number;
     [intercept] = [None] lets Eve draw her own coin. *)
  let play i ~photons ~intercept =
    let basis = if Bitstring.get bases i then Qubit.Basis1 else Qubit.Basis0 in
    let value = Bitstring.get values i in
    let pulse = { Pulse.photons; phase = Qubit.alice_phase basis value; basis; value } in
    if entangled && alice_coincidence config alice_rng pulse then
      Bitstring.set detected i true;
    let pulse =
      match (eve, intercept) with
      | None, _ -> pulse
      | Some e, None -> Eve.tap e ~slot:(first + i) pulse
      | Some e, Some coin -> Eve.apply e ~slot:(first + i) ~intercept:coin pulse
    in
    if alive then begin
      let pulse = Fiber.transmit config.fiber channel_rng pulse in
      let bob_basis = bob_basis i in
      match
        Detector.detect receiver bob_rng ~phase_offset ~visibility_scale ~bob_basis pulse
      with
      | Detector.No_click -> ()
      | outcome -> push { slot = first + i; bob_basis; outcome }
    end
  in
  (* A slot Eve leaves alone, given n photons and that something
     happens: the first of the independent marks [dark D0; dark D1;
     photon 1 .. n] to fire is drawn from its conditional law; marks
     before it stay silent, marks after it are unconstrained. *)
  let resolve_unattacked i (l : slot_law) n =
    let u = Rng.float skip_rng *. (1.0 -. l.silent.(n)) in
    let first_mark = ref (-1) and last_possible = ref 0 in
    let acc = ref 0.0 and survive = ref 1.0 and j = ref 0 in
    while !first_mark < 0 && !j < n + 2 do
      let m = if !j < 2 then l.dark else l.marked in
      if m > 0.0 then last_possible := !j;
      let pj = !survive *. m in
      if u < !acc +. pj then first_mark := !j
      else begin
        acc := !acc +. pj;
        survive := !survive *. (1.0 -. m);
        incr j
      end
    done;
    let first_mark = if !first_mark < 0 then !last_possible else !first_mark in
    let fires j m =
      if j < first_mark then false else j = first_mark || Rng.bernoulli skip_rng m
    in
    let dark0 = fires 0 l.dark in
    let dark1 = fires 1 l.dark in
    let det0 = ref false and det1 = ref false in
    let arr0 = ref false and arr1 = ref false and alice = ref false in
    for k = 1 to n do
      let j = k + 1 in
      let c =
        draw skip_rng
          (if j < first_mark then l.fate_quiet
           else if j = first_mark then l.fate_marked
           else l.fate)
      in
      if c >= 5 then alice := true;
      match c mod 5 with
      | 1 -> arr0 := true
      | 2 ->
          arr0 := true;
          det0 := true
      | 3 -> arr1 := true
      | 4 ->
          arr1 := true;
          det1 := true
      | _ -> ()
    done;
    if !alice then Bitstring.set detected i true;
    let c0 = !det0 || dark0 and c1 = !det1 || dark1 in
    if c0 || c1 then begin
      (* [Detector.detect]'s attribution: a click with no photon at
         that APD (or one that cannot see photons) is a dark count. *)
      let det = config.detector in
      let eta0 = det.Detector.efficiency in
      let eta1 = eta0 *. det.Detector.d1_efficiency_factor in
      let dark_at c arr eta = if c && ((not arr) || eta = 0.0) then 1 else 0 in
      let dark = dark_at c0 !arr0 eta0 + dark_at c1 !arr1 eta1 in
      let bob_basis = bob_basis i in
      push
        {
          slot = first + i;
          bob_basis;
          outcome = Detector.record receiver ~d0:c0 ~d1:c1 ~dark;
        }
    end
  in
  let f = Eve.intercept_fraction config.eve and splits = Eve.splits config.eve in
  let resolve i (l : slot_law) =
    let n = draw skip_rng l.photons in
    if Rng.bernoulli skip_rng l.attacked.(n) then
      (* Split pulses carry an unconstrained coin; otherwise the coin
         is what made the slot a candidate. *)
      let coin = if splits && n >= 2 then Rng.bernoulli skip_rng f else true in
      play i ~photons:n ~intercept:(Some coin)
    else resolve_unattacked i l n
  in
  let mu = config.source.Source.mean_photon_number in
  let q_max = law.q_max in
  let log_quiet = Float.log1p (-.q_max) in
  let pos = ref 0 in
  while !pos < len do
    if not (Detector.quiescent receiver) then begin
      play !pos ~photons:(Rng.poisson alice_rng mu) ~intercept:None;
      incr pos
    end
    else if q_max <= 0.0 then pos := len
    else begin
      (* Trivial slots before the next candidate: geometric, by
         inversion (q_max = 1 makes [log_quiet] -inf and the gap 0). *)
      let gap = Float.log1p (-.Rng.float skip_rng) /. log_quiet in
      if gap >= float_of_int (len - !pos) then pos := len
      else begin
        let i = !pos + int_of_float gap in
        let cls =
          Bool.to_int (Bitstring.get bases i)
          lor (Bool.to_int (Bitstring.get values i) lsl 1)
          lor (Bool.to_int (Bitstring.get bob_bases i) lsl 2)
        in
        let l = law.classes.(cls) in
        (* Classes less likely than the densest are thinned. *)
        if Rng.bernoulli skip_rng (l.q /. q_max) then resolve i l;
        pos := i + 1
      end
    end
  done;
  {
    fo_lost = not alive;
    fo_bases = bases;
    fo_values = values;
    fo_detected = detected;
    fo_detections = Array.sub !dets 0 !n_dets;
    fo_dark = Detector.dark_clicks receiver;
    fo_eve = eve;
  }

let run_batched ~seed ~domains (config : config) ~pulses =
  let ppf = config.timing.Timing.pulses_per_frame in
  let n_frames = (pulses + ppf - 1) / ppf in
  let domains = max 1 (min domains n_frames) in
  let entangled = is_entangled config in
  (* The stabilization walk is sequential across frames by nature; it
     is cheap at frame granularity, so precompute the per-frame
     (phase, visibility) snapshots before fanning out. *)
  let stab_state, stab_table =
    match config.stabilization with
    | None -> (None, None)
    | Some scfg ->
        let s = Stabilization.create scfg in
        let rng = Rng.derive seed stab_stream in
        let frame_dt = float_of_int ppf /. config.pulse_rate_hz in
        let table =
          Array.init n_frames (fun _ ->
              let snap =
                (Stabilization.phase_error s, Stabilization.visibility_scale s)
              in
              Stabilization.advance s rng ~dt:frame_dt;
              snap)
        in
        (Some s, Some table)
  in
  let stab_of frame =
    match stab_table with None -> (0.0, 1.0) | Some t -> t.(frame)
  in
  let out = Array.make n_frames None in
  (* Contiguous frame ranges per worker; each [out] index is written by
     exactly one domain, and [Domain.join] publishes them to the merge. *)
  let worker d =
    let base = n_frames / domains and extra = n_frames mod domains in
    let lo = (d * base) + min d extra in
    let hi = lo + base + if d < extra then 1 else 0 in
    let receiver = Detector.create config.detector in
    (* The law depends on the frame only through its liveness and
       stabilization snapshot: without stabilization it is built once. *)
    let cache = ref [] in
    let law stab ~alive =
      match List.assoc_opt (alive, stab) !cache with
      | Some l -> l
      | None ->
          let l = frame_law config ~alive ~stab in
          let others = List.filter (fun ((a, _), _) -> a <> alive) !cache in
          cache := ((alive, stab), l) :: others;
          l
    in
    for frame = lo to hi - 1 do
      let first = frame * ppf in
      let len = min ppf (pulses - first) in
      let stab = stab_of frame in
      out.(frame) <-
        Some
          (simulate_frame config ~seed ~entangled ~receiver ~law:(law stab) ~frame
             ~first ~len ~stab)
    done
  in
  (if domains = 1 then worker 0
   else begin
     let spawned =
       List.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
     in
     worker 0;
     List.iter Domain.join spawned
   end);
  (* Deterministic sequential merge, in frame order. *)
  let alice_bases = Bitstring.create pulses in
  let alice_values = Bitstring.create pulses in
  let alice_detected = Bitstring.create pulses in
  let eve = Eve.create config.eve (Rng.derive seed eve_stream) in
  let frames_lost = ref 0 in
  let gated_pulses = ref 0 in
  let dark_clicks = ref 0 in
  let total_dets = ref 0 in
  Array.iter
    (fun fo ->
      total_dets := !total_dets + Array.length (Option.get fo).fo_detections)
    out;
  let detections = Array.make !total_dets no_detection in
  let off = ref 0 in
  Array.iteri
    (fun frame fo ->
      let fo = Option.get fo in
      let first = frame * ppf in
      let len = Bitstring.length fo.fo_bases in
      Bitstring.blit ~src:fo.fo_bases ~src_pos:0 alice_bases ~dst_pos:first ~len;
      Bitstring.blit ~src:fo.fo_values ~src_pos:0 alice_values ~dst_pos:first
        ~len;
      Bitstring.blit ~src:fo.fo_detected ~src_pos:0 alice_detected
        ~dst_pos:first ~len;
      if fo.fo_lost then incr frames_lost else gated_pulses := !gated_pulses + len;
      dark_clicks := !dark_clicks + fo.fo_dark;
      let n = Array.length fo.fo_detections in
      Array.blit fo.fo_detections 0 detections !off n;
      off := !off + n;
      match fo.fo_eve with None -> () | Some e -> Eve.absorb eve e)
    out;
  record_stabilization stab_state;
  finish config ~pulses ~gated_pulses:!gated_pulses ~alice_bases ~alice_values
    ~alice_detected ~detections ~frames_lost:!frames_lost
    ~dark_clicks:!dark_clicks ~eve

let run ?(seed = 1L) ?(mode = default_mode) (config : config) ~pulses =
  if pulses <= 0 then invalid_arg "Link.run: pulses must be positive";
  (* A non-positive or NaN pulse rate would poison every derived
     quantity (slot_dt, elapsed_s, throughput series) with inf/nan;
     +infinity is legal and models an instantaneous batch
     (elapsed_s = 0), which downstream consumers must guard. *)
  if not (config.pulse_rate_hz > 0.0) then
    invalid_arg "Link.run: pulse_rate_hz must be positive";
  match mode with
  | Reference -> run_reference ~seed config ~pulses
  | Batched { domains } -> run_batched ~seed ~domains config ~pulses

let alice_basis r slot =
  if Bitstring.get r.alice_bases slot then Qubit.Basis1 else Qubit.Basis0

let alice_value r slot = Bitstring.get r.alice_values slot

let detection_rate r =
  if r.gated_pulses = 0 then 0.0
  else float_of_int (Array.length r.detections) /. float_of_int r.gated_pulses

let raw_detection_rate r =
  float_of_int (Array.length r.detections) /. float_of_int r.pulses
