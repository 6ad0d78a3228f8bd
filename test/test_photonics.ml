(* Tests for qkd_photonics: qubit encoding, sources, fiber loss,
   detectors, Eve models, and the composed link's physics. *)

module Qubit = Qkd_photonics.Qubit
module Pulse = Qkd_photonics.Pulse
module Source = Qkd_photonics.Source
module Fiber = Qkd_photonics.Fiber
module Detector = Qkd_photonics.Detector
module Eve = Qkd_photonics.Eve
module Timing = Qkd_photonics.Timing
module Stabilization = Qkd_photonics.Stabilization
module Link = Qkd_photonics.Link
module Rng = Qkd_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* -- Qubit -- *)

let test_phase_encoding () =
  let half_pi = Float.pi /. 2.0 in
  checkf "basis0 value0" 0.0 (Qubit.alice_phase Qubit.Basis0 false);
  checkf "basis1 value0" half_pi (Qubit.alice_phase Qubit.Basis1 false);
  checkf "basis0 value1" Float.pi (Qubit.alice_phase Qubit.Basis0 true);
  checkf "basis1 value1" (3.0 *. half_pi) (Qubit.alice_phase Qubit.Basis1 true);
  checkf "bob basis0" 0.0 (Qubit.bob_phase Qubit.Basis0);
  checkf "bob basis1" half_pi (Qubit.bob_phase Qubit.Basis1)

let test_interference_law () =
  (* Delta = 0: all to D0; Delta = pi: all to D1; Delta = pi/2: 50/50 *)
  checkf "constructive D0" 0.0 (Qubit.detector_d1_probability ~visibility:1.0 ~delta:0.0);
  checkf "destructive D0" 1.0
    (Qubit.detector_d1_probability ~visibility:1.0 ~delta:Float.pi);
  Alcotest.(check (float 1e-6))
    "incompatible" 0.5
    (Qubit.detector_d1_probability ~visibility:1.0 ~delta:(Float.pi /. 2.0))

let test_visibility_softens_contrast () =
  let p = Qubit.detector_d1_probability ~visibility:0.9 ~delta:0.0 in
  checkf "error floor (1-V)/2" 0.05 p

let test_visibility_validation () =
  Alcotest.check_raises "V>1"
    (Invalid_argument "Qubit.detector_d1_probability: visibility out of range")
    (fun () -> ignore (Qubit.detector_d1_probability ~visibility:1.5 ~delta:0.0))

let test_random_basis_balanced () =
  let rng = Rng.create 1L in
  let n1 = ref 0 in
  for _ = 1 to 10_000 do
    if Qubit.basis_equal (Qubit.random_basis rng) Qubit.Basis1 then incr n1
  done;
  check "balanced" true (abs (!n1 - 5000) < 300)

(* -- Source -- *)

let test_source_poisson_stats () =
  let src = Source.weak_coherent ~mu:0.1 in
  let rng = Rng.create 2L in
  let n = 200_000 in
  let total = ref 0 and multi = ref 0 in
  for _ = 1 to n do
    let p = Source.emit src rng ~basis:Qubit.Basis0 ~value:false in
    total := !total + p.Pulse.photons;
    if p.Pulse.photons >= 2 then incr multi
  done;
  let mean = float_of_int !total /. float_of_int n in
  check "mean photon number" true (abs_float (mean -. 0.1) < 0.005);
  let p_multi = float_of_int !multi /. float_of_int n in
  check "multiphoton fraction" true
    (abs_float (p_multi -. Source.p_multiphoton src) < 0.002)

let test_source_probabilities () =
  let src = Source.weak_coherent ~mu:0.1 in
  Alcotest.(check (float 1e-9)) "p_nonvacuum" (1.0 -. exp (-0.1)) (Source.p_nonvacuum src);
  Alcotest.(check (float 1e-9))
    "p_multiphoton"
    (1.0 -. (exp (-0.1) *. 1.1))
    (Source.p_multiphoton src)

let test_source_validation () =
  Alcotest.check_raises "mu=0"
    (Invalid_argument "Source: mean photon number must be positive") (fun () ->
      ignore (Source.weak_coherent ~mu:0.0))

let test_source_encodes_phase () =
  let src = Source.weak_coherent ~mu:5.0 in
  let rng = Rng.create 3L in
  let p = Source.emit src rng ~basis:Qubit.Basis1 ~value:true in
  checkf "phase" (Qubit.alice_phase Qubit.Basis1 true) p.Pulse.phase

(* -- Fiber -- *)

let test_fiber_loss_budget () =
  let f = Fiber.make ~length_km:10.0 ~insertion_loss_db:3.0 () in
  checkf "loss" 5.0 (Fiber.total_loss_db f);
  Alcotest.(check (float 1e-9)) "transmittance" (10.0 ** -0.5) (Fiber.transmittance f)

let test_fiber_zero_length_lossless () =
  let f = Fiber.make ~length_km:0.0 () in
  checkf "transmittance 1" 1.0 (Fiber.transmittance f);
  let rng = Rng.create 4L in
  let p = { Pulse.photons = 5; phase = 0.0; basis = Qubit.Basis0; value = false } in
  check_int "all survive" 5 (Fiber.transmit f rng p).Pulse.photons

let test_fiber_thins_poissonian () =
  let f = Fiber.make ~length_km:15.05 () (* ~3 dB: T ~ 0.5 *) in
  let rng = Rng.create 5L in
  let survivors = ref 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    let p = { Pulse.photons = 2; phase = 0.0; basis = Qubit.Basis0; value = false } in
    survivors := !survivors + (Fiber.transmit f rng p).Pulse.photons
  done;
  let expected = 2.0 *. Fiber.transmittance f in
  let mean = float_of_int !survivors /. float_of_int trials in
  check "thinned mean" true (abs_float (mean -. expected) < 0.03)

let test_fiber_validation () =
  Alcotest.check_raises "negative" (Invalid_argument "Fiber.make: negative parameter")
    (fun () -> ignore (Fiber.make ~length_km:(-1.0) ()))

(* -- Detector -- *)

let perfect_detector =
  {
    Detector.efficiency = 1.0;
    dark_count_per_gate = 0.0;
    afterpulse_probability = 0.0;
    dead_time_gates = 0;
    visibility = 1.0;
    d1_efficiency_factor = 1.0;
  }

let pulse ~basis ~value ~photons =
  { Pulse.photons; phase = Qubit.alice_phase basis value; basis; value }

let test_detector_deterministic_when_compatible () =
  let d = Detector.create perfect_detector in
  let rng = Rng.create 6L in
  for _ = 1 to 100 do
    match
      Detector.detect d rng ~bob_basis:Qubit.Basis0
        (pulse ~basis:Qubit.Basis0 ~value:true ~photons:1)
    with
    | Detector.Click true -> ()
    | other -> Alcotest.failf "expected Click 1, got %a" Detector.pp_outcome other
  done

let test_detector_random_when_incompatible () =
  let d = Detector.create perfect_detector in
  let rng = Rng.create 7L in
  let ones = ref 0 in
  for _ = 1 to 10_000 do
    match
      Detector.detect d rng ~bob_basis:Qubit.Basis1
        (pulse ~basis:Qubit.Basis0 ~value:false ~photons:1)
    with
    | Detector.Click true -> incr ones
    | Detector.Click false -> ()
    | Detector.No_click | Detector.Double_click -> Alcotest.fail "lossless detector missed"
  done;
  check "50/50" true (abs (!ones - 5000) < 300)

let test_detector_vacuum_no_click () =
  let d = Detector.create perfect_detector in
  let rng = Rng.create 8L in
  for _ = 1 to 100 do
    match Detector.detect d rng ~bob_basis:Qubit.Basis0 Pulse.vacuum with
    | Detector.No_click -> ()
    | other -> Alcotest.failf "vacuum clicked: %a" Detector.pp_outcome other
  done

let test_detector_dark_counts () =
  let config = { perfect_detector with Detector.dark_count_per_gate = 0.01 } in
  let d = Detector.create config in
  let rng = Rng.create 9L in
  let clicks = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    match Detector.detect d rng ~bob_basis:Qubit.Basis0 Pulse.vacuum with
    | Detector.No_click -> ()
    | Detector.Click _ | Detector.Double_click -> incr clicks
  done;
  (* two APDs at ~1% each; dead time after each click lowers the
     effective rate a bit below 2% *)
  let rate = float_of_int !clicks /. float_of_int n in
  check "dark rate" true (rate > 0.015 && rate < 0.022)

let test_detector_dead_time () =
  let config = { perfect_detector with Detector.dead_time_gates = 3 } in
  let d = Detector.create config in
  let rng = Rng.create 10L in
  let p = pulse ~basis:Qubit.Basis0 ~value:false ~photons:1 in
  (match Detector.detect d rng ~bob_basis:Qubit.Basis0 p with
  | Detector.Click false -> ()
  | _ -> Alcotest.fail "first click");
  for i = 1 to 3 do
    match Detector.detect d rng ~bob_basis:Qubit.Basis0 p with
    | Detector.No_click -> ()
    | _ -> Alcotest.failf "gate %d should be dead" i
  done;
  match Detector.detect d rng ~bob_basis:Qubit.Basis0 p with
  | Detector.Click false -> ()
  | _ -> Alcotest.fail "recovered gate should click"

let test_detector_double_click () =
  let d = Detector.create perfect_detector in
  let rng = Rng.create 11L in
  let doubles = ref 0 in
  for _ = 1 to 1000 do
    match
      Detector.detect d rng ~bob_basis:Qubit.Basis1
        (pulse ~basis:Qubit.Basis0 ~value:false ~photons:10)
    with
    | Detector.Double_click -> incr doubles
    | _ -> ()
  done;
  check "mostly doubles" true (!doubles > 900)

(* The rule the skip-ahead kernel relies on: a blanked gate clears
   afterpulse memory, so afterpulses only fire with zero dead time. *)
let test_detector_afterpulse_chains () =
  let config = { perfect_detector with Detector.afterpulse_probability = 1.0 } in
  let d = Detector.create config in
  let rng = Rng.create 12L in
  (match
     Detector.detect d rng ~bob_basis:Qubit.Basis0
       (pulse ~basis:Qubit.Basis0 ~value:false ~photons:1)
   with
  | Detector.Click false -> ()
  | other -> Alcotest.failf "first click: %a" Detector.pp_outcome other);
  for i = 1 to 20 do
    match Detector.detect d rng ~bob_basis:Qubit.Basis0 Pulse.vacuum with
    | Detector.Click false -> ()
    | other -> Alcotest.failf "gate %d broke the chain: %a" i Detector.pp_outcome other
  done

let test_detector_dead_time_masks_afterpulse () =
  let outcomes afterpulse =
    let d =
      Detector.create
        { Detector.default with Detector.afterpulse_probability = afterpulse }
    in
    let rng = Rng.create 13L and src = Rng.create 14L in
    List.init 50_000 (fun _ ->
        let basis = Qubit.random_basis src in
        let p =
          pulse ~basis ~value:(Rng.bool src) ~photons:(Rng.poisson src 3.0)
        in
        Detector.detect d rng ~bob_basis:(Qubit.random_basis src) p)
  in
  let with_ap = outcomes 1.0 in
  check "clicks happen" true (List.exists (( <> ) Detector.No_click) with_ap);
  check "afterpulse 1.0 = afterpulse 0" true (with_ap = outcomes 0.0);
  (* the same holds for whole links, in both execution modes *)
  let link afterpulse mode =
    let config =
      {
        Link.darpa_default with
        Link.detector =
          { Detector.default with Detector.afterpulse_probability = afterpulse };
      }
    in
    (Link.run ~seed:15L ~mode config ~pulses:200_000).Link.detections
  in
  List.iter
    (fun mode -> check "link detections identical" true (link 1.0 mode = link 0.0 mode))
    [ Link.Reference; Link.default_mode ]

let test_detector_validation () =
  Alcotest.check_raises "bad efficiency"
    (Invalid_argument "Detector.validate: probability out of range") (fun () ->
      ignore (Detector.create { perfect_detector with Detector.efficiency = 1.5 }))

(* -- Eve -- *)

let test_eve_passive_transparent () =
  let eve = Eve.create Eve.Passive (Rng.create 12L) in
  let p = pulse ~basis:Qubit.Basis0 ~value:true ~photons:3 in
  let p' = Eve.tap eve ~slot:0 p in
  check "unchanged" true (p = p');
  check_int "knows nothing" 0 (Hashtbl.length (Eve.knowledge eve))

let test_eve_beamsplit_takes_one () =
  let eve = Eve.create Eve.Beamsplit (Rng.create 13L) in
  let p = pulse ~basis:Qubit.Basis0 ~value:true ~photons:3 in
  let p' = Eve.tap eve ~slot:5 p in
  check_int "one photon stolen" 2 p'.Pulse.photons;
  check_int "stored" 1 (Eve.stored_photons eve);
  let single = pulse ~basis:Qubit.Basis0 ~value:true ~photons:1 in
  let s' = Eve.tap eve ~slot:6 single in
  check_int "single untouched" 1 s'.Pulse.photons;
  check_int "still one stored" 1 (Eve.stored_photons eve)

let test_eve_intercept_full () =
  let eve = Eve.create (Eve.Intercept_resend 1.0) (Rng.create 14L) in
  let hits = ref 0 and total = 1000 in
  for slot = 0 to total - 1 do
    let p = pulse ~basis:Qubit.Basis0 ~value:true ~photons:1 in
    let p' = Eve.tap eve ~slot p in
    check_int "photon count preserved" 1 p'.Pulse.photons;
    if p'.Pulse.value = p.Pulse.value && Qubit.basis_equal p'.Pulse.basis p.Pulse.basis
    then incr hits
  done;
  check_int "all intercepted" total (Eve.intercepted eve);
  check "about half re-encoded faithfully" true (abs (!hits - 500) < 80)

let test_eve_intercept_fraction () =
  let eve = Eve.create (Eve.Intercept_resend 0.25) (Rng.create 15L) in
  for slot = 0 to 9_999 do
    ignore (Eve.tap eve ~slot (pulse ~basis:Qubit.Basis0 ~value:false ~photons:1))
  done;
  check "quarter intercepted" true (abs (Eve.intercepted eve - 2500) < 200)

let test_eve_breidbart_guess_rate () =
  let eve = Eve.create (Eve.Intercept_breidbart 1.0) (Rng.create 20L) in
  let correct = ref 0 and total = 10_000 in
  for slot = 0 to total - 1 do
    let p = pulse ~basis:Qubit.Basis0 ~value:(slot land 1 = 1) ~photons:1 in
    ignore (Eve.tap eve ~slot p);
    match Hashtbl.find_opt (Eve.knowledge eve) slot with
    | Some (Eve.Breidbart_guess g) -> if g = p.Pulse.value then incr correct
    | _ -> Alcotest.fail "no guess recorded"
  done;
  (* cos^2(pi/8) ~ 0.8536 *)
  let rate = float_of_int !correct /. float_of_int total in
  check "854 per mille" true (abs_float (rate -. 0.8536) < 0.02)

let test_eve_breidbart_induces_25pct_qber () =
  let config = { Link.darpa_default with Link.eve = Eve.Intercept_breidbart 1.0 } in
  let r = Link.run ~seed:120L config ~pulses:1_000_000 in
  let s = Qkd_protocol.Sifting.sift r in
  let q = Qkd_protocol.Sifting.qber s in
  (* same disturbance as naive intercept-resend: ~25% + link noise *)
  check "25%+noise" true (q > 0.24 && q < 0.36)

let test_eve_breidbart_knows_more_than_naive () =
  (* at equal disturbance, Breidbart harvests more bits *)
  let run strategy =
    let config = { Link.darpa_default with Link.eve = strategy } in
    let r = Link.run ~seed:121L config ~pulses:1_000_000 in
    let s = Qkd_protocol.Sifting.sift r in
    let known =
      Eve.bits_known r.Link.eve
        ~alice_basis:(Link.alice_basis r)
        ~alice_value:(Link.alice_value r)
        ~sifted_slots:(Array.to_list s.Qkd_protocol.Sifting.slots)
    in
    (known, Array.length s.Qkd_protocol.Sifting.slots)
  in
  let naive, n1 = run (Eve.Intercept_resend 1.0) in
  let breid, n2 = run (Eve.Intercept_breidbart 1.0) in
  let frac k n = float_of_int k /. float_of_int n in
  check "breidbart harvests more" true (frac breid n2 > frac naive n1 +. 0.05)

let test_eve_vacuum_not_intercepted () =
  let eve = Eve.create (Eve.Intercept_resend 1.0) (Rng.create 16L) in
  ignore (Eve.tap eve ~slot:0 Pulse.vacuum);
  check_int "nothing to measure" 0 (Eve.intercepted eve)

let test_eve_bad_fraction () =
  Alcotest.check_raises "f>1"
    (Invalid_argument "Eve.create: fraction must be within [0,1]") (fun () ->
      ignore (Eve.create (Eve.Intercept_resend 1.5) (Rng.create 17L)))

let test_eve_bits_known_accounting () =
  let eve = Eve.create Eve.Beamsplit (Rng.create 18L) in
  ignore (Eve.tap eve ~slot:3 (pulse ~basis:Qubit.Basis1 ~value:true ~photons:2));
  let known =
    Eve.bits_known eve
      ~alice_basis:(fun _ -> Qubit.Basis1)
      ~alice_value:(fun _ -> true)
      ~sifted_slots:[ 3; 4; 5 ]
  in
  check_int "stored photon counts once sifted" 1 known;
  let unknown =
    Eve.bits_known eve
      ~alice_basis:(fun _ -> Qubit.Basis1)
      ~alice_value:(fun _ -> true)
      ~sifted_slots:[ 4; 5 ]
  in
  check_int "unsifted slot invisible" 0 unknown

(* -- Timing -- *)

let test_timing_frames () =
  let t = Timing.make ~pulses_per_frame:100 () in
  check_int "slot 0" 0 (Timing.frame_of_slot t 0);
  check_int "slot 99" 0 (Timing.frame_of_slot t 99);
  check_int "slot 100" 1 (Timing.frame_of_slot t 100)

let test_timing_validation () =
  Alcotest.check_raises "zero frame"
    (Invalid_argument "Timing.make: frame size must be positive") (fun () ->
      ignore (Timing.make ~pulses_per_frame:0 ()))

let test_timing_loss_probability () =
  let t = Timing.make ~pulses_per_frame:10 ~frame_loss_probability:0.3 () in
  let rng = Rng.create 19L in
  let alive = ref 0 in
  for _ = 1 to 10_000 do
    if Timing.frame_alive t rng then incr alive
  done;
  check "70% alive" true (abs (!alive - 7000) < 300)

(* -- Stabilization -- *)

let test_stab_starts_aligned () =
  let s = Stabilization.create Stabilization.default in
  checkf "no phase error" 0.0 (Stabilization.phase_error s);
  checkf "full visibility" 1.0 (Stabilization.visibility_scale s)

let test_stab_drifts_without_servo () =
  let s = Stabilization.create Stabilization.uncontrolled in
  let rng = Rng.create 30L in
  for _ = 1 to 1000 do
    Stabilization.advance s rng ~dt:0.01
  done;
  (* after 10 s at 0.35 rad/sqrt(s) the walk is very unlikely near 0 *)
  check "phase wandered" true (abs_float (Stabilization.phase_error s) > 0.05);
  check_int "never corrected" 0 (Stabilization.corrections s)

let test_stab_servo_bounds_error () =
  let s = Stabilization.create Stabilization.default in
  let rng = Rng.create 31L in
  let worst = ref 0.0 in
  for _ = 1 to 10_000 do
    Stabilization.advance s rng ~dt:0.01;
    worst := Float.max !worst (abs_float (Stabilization.phase_error s))
  done;
  check "servo ran" true (Stabilization.corrections s > 900);
  (* between 10 Hz corrections the walk moves ~0.35*sqrt(0.1) ~ 0.11 rad *)
  check "error bounded" true (!worst < 0.8)

let test_stab_visibility_scale_range () =
  let s = Stabilization.create Stabilization.uncontrolled in
  let rng = Rng.create 32L in
  for _ = 1 to 1000 do
    Stabilization.advance s rng ~dt:0.05;
    let v = Stabilization.visibility_scale s in
    check "in [0,1]" true (v >= 0.0 && v <= 1.0)
  done

let test_stab_validation () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Stabilization.validate: negative parameter") (fun () ->
      ignore
        (Stabilization.create
           { Stabilization.default with Stabilization.control_residual_rad = -1.0 }))

let test_stab_link_qber_ramps_without_servo () =
  let drifting =
    { Link.darpa_default with Link.stabilization = Some Stabilization.uncontrolled }
  in
  let r = Link.run ~seed:77L drifting ~pulses:3_000_000 in
  (* compare error rate in the first vs last third of the run *)
  let s = Qkd_protocol.Sifting.sift r in
  let rate lo hi =
    let e = ref 0 and n = ref 0 in
    Array.iteri
      (fun j slot ->
        if slot >= lo && slot < hi then begin
          incr n;
          if
            Qkd_util.Bitstring.get s.Qkd_protocol.Sifting.alice_bits j
            <> Qkd_util.Bitstring.get s.Qkd_protocol.Sifting.bob_bits j
          then incr e
        end)
      s.Qkd_protocol.Sifting.slots;
    float_of_int !e /. float_of_int (max 1 !n)
  in
  check "late much worse than early" true
    (rate 2_000_000 3_000_000 > rate 0 1_000_000 +. 0.05)

let test_stab_link_servo_holds_band () =
  let servoed =
    { Link.darpa_default with Link.stabilization = Some Stabilization.default }
  in
  let r = Link.run ~seed:78L servoed ~pulses:2_000_000 in
  let s = Qkd_protocol.Sifting.sift r in
  let q = Qkd_protocol.Sifting.qber s in
  check "stays near band" true (q > 0.04 && q < 0.11)

(* -- Link -- *)

let measure_qber (r : Link.result) =
  let sifted = ref 0 and errors = ref 0 in
  Array.iter
    (fun (d : Link.detection) ->
      match d.Link.outcome with
      | Detector.Click v
        when Qubit.basis_equal d.Link.bob_basis (Link.alice_basis r d.Link.slot) ->
          incr sifted;
          if v <> Link.alice_value r d.Link.slot then incr errors
      | _ -> ())
    r.Link.detections;
  (!sifted, float_of_int !errors /. float_of_int (max 1 !sifted))

let test_link_darpa_operating_point () =
  let r = Link.run ~seed:100L Link.darpa_default ~pulses:1_000_000 in
  let sifted, qber = measure_qber r in
  check "qber in band" true (qber > 0.045 && qber < 0.095);
  let rate = float_of_int sifted /. r.Link.elapsed_s in
  check "sifted rate order 1kb/s" true (rate > 800.0 && rate < 3200.0)

let test_link_textbook_detection_rate () =
  let r = Link.run ~seed:101L Link.textbook_example ~pulses:200_000 in
  let rate = Link.detection_rate r in
  check "about 1%" true (rate > 0.008 && rate < 0.013)

let test_link_intercept_resend_qber () =
  let config = { Link.darpa_default with Link.eve = Eve.Intercept_resend 1.0 } in
  let r = Link.run ~seed:102L config ~pulses:1_000_000 in
  let _, qber = measure_qber r in
  check "25%+noise" true (qber > 0.24 && qber < 0.36)

let test_link_longer_fiber_fewer_detections () =
  let near = Link.run ~seed:103L Link.darpa_default ~pulses:300_000 in
  let far_cfg =
    {
      Link.darpa_default with
      Link.fiber = Fiber.make ~length_km:50.0 ~insertion_loss_db:3.0 ();
    }
  in
  let far = Link.run ~seed:103L far_cfg ~pulses:300_000 in
  check "loss reduces rate" true (Link.detection_rate far < Link.detection_rate near /. 2.0)

let test_link_frame_loss_drops_detections () =
  let lossy =
    {
      Link.darpa_default with
      Link.timing = Timing.make ~pulses_per_frame:1000 ~frame_loss_probability:0.5 ();
    }
  in
  let r = Link.run ~seed:104L lossy ~pulses:200_000 in
  check "frames lost" true (r.Link.frames_lost > 60 && r.Link.frames_lost < 140);
  let full = Link.run ~seed:104L Link.darpa_default ~pulses:200_000 in
  check "fewer detections" true
    (Array.length r.Link.detections < Array.length full.Link.detections)

let test_link_detections_sorted_and_valid () =
  let r = Link.run ~seed:105L Link.darpa_default ~pulses:100_000 in
  let last = ref (-1) in
  Array.iter
    (fun (d : Link.detection) ->
      check "ascending slots" true (d.Link.slot > !last);
      last := d.Link.slot;
      check "slot in range" true (d.Link.slot >= 0 && d.Link.slot < 100_000);
      match d.Link.outcome with
      | Detector.No_click -> Alcotest.fail "No_click recorded"
      | Detector.Click _ | Detector.Double_click -> ())
    r.Link.detections

let test_link_deterministic_by_seed () =
  let a = Link.run ~seed:106L Link.darpa_default ~pulses:50_000 in
  let b = Link.run ~seed:106L Link.darpa_default ~pulses:50_000 in
  check_int "same detections" (Array.length a.Link.detections)
    (Array.length b.Link.detections);
  check "same bases" true (Qkd_util.Bitstring.equal a.Link.alice_bases b.Link.alice_bases)

let test_link_research_grade_cleaner () =
  let darpa = Link.run ~seed:107L Link.darpa_default ~pulses:500_000 in
  let research = Link.run ~seed:107L Link.research_grade ~pulses:500_000 in
  let _, q_darpa = measure_qber darpa in
  let _, q_research = measure_qber research in
  check "research grade lower qber" true (q_research < q_darpa /. 2.0)

let test_link_entangled_coincidence_penalty () =
  (* entangled: Alice must detect her half too, so the sifted yield is
     ~eta times the weak-coherent link's *)
  let wcp = Link.run ~seed:108L Link.darpa_default ~pulses:500_000 in
  let ent = Link.run ~seed:108L Link.entangled_default ~pulses:500_000 in
  let sifted r = Array.length (Qkd_protocol.Sifting.sift r).Qkd_protocol.Sifting.slots in
  check "alice_detected sparse" true
    (Qkd_util.Bitstring.popcount ent.Link.alice_detected < 500_000 / 2);
  check "coincidence penalty" true (sifted ent * 4 < sifted wcp)

let test_link_wcp_alice_always_detected () =
  let r = Link.run ~seed:109L Link.darpa_default ~pulses:10_000 in
  check_int "all slots owned" 10_000 (Qkd_util.Bitstring.popcount r.Link.alice_detected)

let test_link_entangled_low_qber () =
  (* coincidences are post-selected on Alice detecting, so the
     entangled link's QBER is no worse than the WCP link's *)
  let ent = Link.run ~seed:110L Link.entangled_default ~pulses:2_000_000 in
  let s = Qkd_protocol.Sifting.sift ent in
  let q = Qkd_protocol.Sifting.qber s in
  check "entangled qber sane" true (q < 0.11)

let test_link_invalid_pulses () =
  Alcotest.check_raises "zero pulses"
    (Invalid_argument "Link.run: pulses must be positive") (fun () ->
      ignore (Link.run Link.darpa_default ~pulses:0))

(* -- Link fast path: the batched kernel's determinism contract -- *)

let same_result (a : Link.result) (b : Link.result) =
  Qkd_util.Bitstring.equal a.Link.alice_bases b.Link.alice_bases
  && Qkd_util.Bitstring.equal a.Link.alice_values b.Link.alice_values
  && Qkd_util.Bitstring.equal a.Link.alice_detected b.Link.alice_detected
  && a.Link.detections = b.Link.detections
  && a.Link.frames_lost = b.Link.frames_lost
  && a.Link.gated_pulses = b.Link.gated_pulses

(* Sharding across domains must not change a single bit: every frame
   draws from its own [Rng.derive] stream and results merge in frame
   order, so the domain count is pure execution policy. *)
let check_domain_invariance ?(pulses = 50_000) ?(seeds = [ 1L; 7L ]) config =
  List.iter
    (fun seed ->
      let base =
        Link.run ~seed ~mode:(Link.Batched { domains = 1 }) config ~pulses
      in
      List.iter
        (fun domains ->
          let r = Link.run ~seed ~mode:(Link.Batched { domains }) config ~pulses in
          check
            (Printf.sprintf "seed %Ld x%d domains bit-identical" seed domains)
            true (same_result base r);
          check
            (Printf.sprintf "seed %Ld x%d eve state" seed domains)
            true
            (Eve.intercepted r.Link.eve = Eve.intercepted base.Link.eve
            && Eve.stored_photons r.Link.eve = Eve.stored_photons base.Link.eve
            && Hashtbl.length (Eve.knowledge r.Link.eve)
               = Hashtbl.length (Eve.knowledge base.Link.eve)))
        [ 2; 3; 4 ])
    seeds

let test_fastpath_domains_darpa () = check_domain_invariance Link.darpa_default

let test_fastpath_domains_frame_loss () =
  (* odd frame size (not a multiple of 8) exercises the unaligned merge
     path; heavy frame loss exercises the gating bookkeeping *)
  check_domain_invariance
    {
      Link.darpa_default with
      Link.timing =
        Timing.make ~pulses_per_frame:37 ~frame_loss_probability:0.3 ();
    }

let test_fastpath_domains_entangled () =
  check_domain_invariance Link.entangled_default

let test_fastpath_domains_stabilized () =
  check_domain_invariance
    {
      Link.darpa_default with
      Link.stabilization = Some Stabilization.default;
    }

let test_fastpath_domains_eve () =
  check_domain_invariance
    { Link.darpa_default with Link.eve = Eve.Intercept_resend 0.5 }

let test_fastpath_partial_last_frame () =
  (* pulses not a multiple of the frame size: last frame is short *)
  let config =
    { Link.darpa_default with Link.timing = Timing.make ~pulses_per_frame:64 () }
  in
  check_domain_invariance ~pulses:1000 config;
  let r = Link.run ~seed:3L config ~pulses:1000 in
  check_int "all pulses recorded" 1000
    (Qkd_util.Bitstring.length r.Link.alice_bases)

let test_fastpath_more_domains_than_frames () =
  let config =
    { Link.darpa_default with Link.timing = Timing.make ~pulses_per_frame:512 () }
  in
  (* 2 frames, 8 requested domains: must clamp, not crash or diverge *)
  let a = Link.run ~seed:5L ~mode:(Link.Batched { domains = 1 }) config ~pulses:1024 in
  let b = Link.run ~seed:5L ~mode:(Link.Batched { domains = 8 }) config ~pulses:1024 in
  check "clamped domains bit-identical" true (same_result a b)

let test_fastpath_gated_pulses () =
  let config =
    {
      Link.darpa_default with
      Link.timing =
        Timing.make ~pulses_per_frame:100 ~frame_loss_probability:0.25 ();
    }
  in
  let pulses = 40_000 in
  let r = Link.run ~seed:11L config ~pulses in
  (* pulses is a multiple of the frame size, so gating is exact *)
  check_int "gated = pulses - lost frames x frame size"
    (pulses - (r.Link.frames_lost * 100))
    r.Link.gated_pulses;
  check "some frames lost" true (r.Link.frames_lost > 0);
  check "rates ordered" true
    (Link.detection_rate r >= Link.raw_detection_rate r);
  let no_loss = Link.run ~seed:11L Link.darpa_default ~pulses in
  check_int "no frame loss: gated = emitted" pulses no_loss.Link.gated_pulses;
  checkf "no frame loss: rates equal"
    (Link.detection_rate no_loss)
    (Link.raw_detection_rate no_loss)

(* -- Skip-ahead kernel vs Reference --------------------------------

   The reference loop plays every pulse; the batched kernel jumps
   between candidate slots and resolves each from its conditional law.
   They draw randomness differently, so the contract is distributional:
   every observable rate must agree within Wilson bands, and the
   inter-detection gap histogram (what dead-time and afterpulse
   mistakes distort) must pass a chi-square test of homogeneity.  The
   kernel side runs more pulses, which it can afford. *)

module Stats = Qkd_util.Stats

type tally = {
  pulses : int;
  gated : int;
  detections : int;
  doubles : int;
  dark : int;
  sifted : int;
  errors : int;
  alice : int;
  intercepted : int;
  stored : int;
  known : int;
  gaps : int array;
}

(* Gap bins: 1, 2, 3, 4, 5-10, 11-100, 101-300, 301-1000, > 1000. *)
let gap_bin g =
  if g <= 4 then g - 1
  else if g <= 10 then 4
  else if g <= 100 then 5
  else if g <= 300 then 6
  else if g <= 1000 then 7
  else 8

let tally ~mode ~seed config ~pulses =
  let registry = Qkd_obs.Registry.create () in
  let r =
    Qkd_obs.Registry.with_registry registry (fun () ->
        Link.run ~seed ~mode config ~pulses)
  in
  let dark =
    Qkd_obs.Counter.value
      (Qkd_obs.Registry.counter ~registry "photonics_dark_counts_total")
  in
  let s = Qkd_protocol.Sifting.sift r in
  let gaps = Array.make 9 0 in
  let last = ref (-1) in
  Array.iter
    (fun (d : Link.detection) ->
      if !last >= 0 then begin
        let b = gap_bin (d.Link.slot - !last) in
        gaps.(b) <- gaps.(b) + 1
      end;
      last := d.Link.slot)
    r.Link.detections;
  let sifted = Array.length s.Qkd_protocol.Sifting.slots in
  {
    pulses;
    gated = r.Link.gated_pulses;
    detections = Array.length r.Link.detections;
    doubles = s.Qkd_protocol.Sifting.double_clicks;
    dark;
    sifted;
    errors =
      Qkd_util.Bitstring.hamming_distance s.Qkd_protocol.Sifting.alice_bits
        s.Qkd_protocol.Sifting.bob_bits;
    alice = Qkd_util.Bitstring.popcount r.Link.alice_detected;
    intercepted = Eve.intercepted r.Link.eve;
    stored = Eve.stored_photons r.Link.eve;
    known =
      Eve.bits_known r.Link.eve ~alice_basis:(Link.alice_basis r)
        ~alice_value:(Link.alice_value r)
        ~sifted_slots:(Array.to_list s.Qkd_protocol.Sifting.slots);
    gaps;
  }

(* Two proportions agree when their z = 3 Wilson bands overlap. *)
let agree name ~kernel:(k1, n1) ~reference:(k2, n2) =
  let lo1, hi1 = Stats.binomial_ci ~k:k1 ~n:n1 ~z:3.0 in
  let lo2, hi2 = Stats.binomial_ci ~k:k2 ~n:n2 ~z:3.0 in
  if not (lo1 <= hi2 && lo2 <= hi1) then
    Alcotest.failf "%s: kernel %d/%d = %.5g, reference %d/%d = %.5g" name k1 n1
      (float_of_int k1 /. float_of_int (max 1 n1))
      k2 n2
      (float_of_int k2 /. float_of_int (max 1 n2))

(* Chi-square critical values at p = 0.001, by degrees of freedom. *)
let chi2_critical = [| 10.83; 13.82; 16.27; 18.47; 20.52; 22.46; 24.32; 26.12 |]

(* Two-sample homogeneity test; adjacent bins are pooled until each
   holds at least 10 events between the two samples. *)
let same_gap_shape name a b =
  let pooled = ref [] and ka = ref 0 and kb = ref 0 in
  Array.iteri
    (fun i x ->
      ka := !ka + x;
      kb := !kb + b.(i);
      if !ka + !kb >= 10 then begin
        pooled := (!ka, !kb) :: !pooled;
        ka := 0;
        kb := 0
      end)
    a;
  let pooled =
    match !pooled with
    | (x, y) :: rest -> (x + !ka, y + !kb) :: rest
    | [] -> []
  in
  let r = float_of_int (List.fold_left (fun n (x, _) -> n + x) 0 pooled) in
  let s = float_of_int (List.fold_left (fun n (_, y) -> n + y) 0 pooled) in
  let chi2 =
    List.fold_left
      (fun acc (x, y) ->
        let d = (sqrt (s /. r) *. float_of_int x) -. (sqrt (r /. s) *. float_of_int y) in
        acc +. (d *. d /. float_of_int (x + y)))
      0.0 pooled
  in
  let df = List.length pooled - 1 in
  if df >= 1 && chi2 > chi2_critical.(df - 1) then
    Alcotest.failf "%s: gap histograms differ, chi2 = %.1f on %d df" name chi2 df

let check_equivalent ?(seed = 17L) ?(reference_pulses = 1_000_000)
    ?(kernel_pulses = 4_000_000) name config =
  let k = tally ~mode:(Link.Batched { domains = 2 }) ~seed config ~pulses:kernel_pulses in
  let r = tally ~mode:Link.Reference ~seed config ~pulses:reference_pulses in
  let rate what f n = agree (name ^ ": " ^ what) ~kernel:(f k, n k) ~reference:(f r, n r) in
  rate "detection rate" (fun t -> t.detections) (fun t -> t.gated);
  rate "double-click rate" (fun t -> t.doubles) (fun t -> t.gated);
  rate "dark-count attribution" (fun t -> t.dark) (fun t -> t.gated);
  rate "sifted QBER" (fun t -> t.errors) (fun t -> t.sifted);
  rate "alice_detected" (fun t -> t.alice) (fun t -> t.pulses);
  rate "Eve intercepted" (fun t -> t.intercepted) (fun t -> t.pulses);
  rate "Eve stored photons" (fun t -> t.stored) (fun t -> t.pulses);
  rate "Eve-known sifted bits" (fun t -> t.known) (fun t -> t.sifted);
  same_gap_shape name k.gaps r.gaps

let test_fastpath_reference_equivalence () =
  check_equivalent "E2 darpa" Link.darpa_default

let test_fastpath_reference_equivalence_eve () =
  check_equivalent ~reference_pulses:400_000 ~kernel_pulses:1_600_000
    "E6 intercept-resend 1.0"
    { Link.darpa_default with Link.eve = Eve.Intercept_resend 1.0 };
  check_equivalent "E6 intercept-resend 0.05"
    { Link.darpa_default with Link.eve = Eve.Intercept_resend 0.05 }

(* E10: one 1.5 dB switch between two 5 km hops, as insertion loss. *)
let test_fastpath_reference_equivalence_switch () =
  check_equivalent "E10 switch loss"
    {
      Link.darpa_default with
      Link.fiber = Fiber.make ~length_km:0.0 ~insertion_loss_db:6.5 ();
    }

let test_fastpath_reference_equivalence_multiphoton () =
  check_equivalent "E11 entangled" Link.entangled_default;
  check_equivalent "E11 beamsplit" { Link.darpa_default with Link.eve = Eve.Beamsplit }

let test_fastpath_reference_equivalence_timing () =
  check_equivalent "frame loss, 37-pulse frames"
    {
      Link.darpa_default with
      Link.timing = Timing.make ~pulses_per_frame:37 ~frame_loss_probability:0.3 ();
    }

(* Bright pulses on a lossless spool: a click on ~1 slot in 6, so the
   dead-time gates after each click shape the gap histogram. *)
let dense =
  {
    Link.darpa_default with
    Link.source = Source.weak_coherent ~mu:2.0;
    fiber = Fiber.make ~length_km:0.0 ();
  }

let test_fastpath_reference_equivalence_dense () =
  check_equivalent ~reference_pulses:200_000 ~kernel_pulses:800_000
    "dense clicks" dense

let test_fastpath_reference_equivalence_afterpulse () =
  check_equivalent ~reference_pulses:200_000 ~kernel_pulses:800_000
    "afterpulse chains"
    {
      dense with
      Link.detector =
        {
          Detector.default with
          Detector.dead_time_gates = 0;
          afterpulse_probability = 0.3;
        };
    }

(* Unequal APD efficiencies make the click law depend on the slot's
   bases and value, which the kernel handles by thinning. *)
let test_fastpath_reference_equivalence_bias () =
  check_equivalent "mismatched APDs"
    {
      Link.darpa_default with
      Link.detector = { Detector.default with Detector.d1_efficiency_factor = 0.5 };
    }

let () =
  Alcotest.run "qkd_photonics"
    [
      ( "qubit",
        [
          Alcotest.test_case "phase encoding" `Quick test_phase_encoding;
          Alcotest.test_case "interference law" `Quick test_interference_law;
          Alcotest.test_case "visibility" `Quick test_visibility_softens_contrast;
          Alcotest.test_case "visibility validation" `Quick test_visibility_validation;
          Alcotest.test_case "random basis balanced" `Quick test_random_basis_balanced;
        ] );
      ( "source",
        [
          Alcotest.test_case "poisson stats" `Quick test_source_poisson_stats;
          Alcotest.test_case "probabilities" `Quick test_source_probabilities;
          Alcotest.test_case "validation" `Quick test_source_validation;
          Alcotest.test_case "encodes phase" `Quick test_source_encodes_phase;
        ] );
      ( "fiber",
        [
          Alcotest.test_case "loss budget" `Quick test_fiber_loss_budget;
          Alcotest.test_case "lossless" `Quick test_fiber_zero_length_lossless;
          Alcotest.test_case "thins" `Quick test_fiber_thins_poissonian;
          Alcotest.test_case "validation" `Quick test_fiber_validation;
        ] );
      ( "detector",
        [
          Alcotest.test_case "compatible deterministic" `Quick
            test_detector_deterministic_when_compatible;
          Alcotest.test_case "incompatible random" `Quick test_detector_random_when_incompatible;
          Alcotest.test_case "vacuum silent" `Quick test_detector_vacuum_no_click;
          Alcotest.test_case "dark counts" `Quick test_detector_dark_counts;
          Alcotest.test_case "dead time" `Quick test_detector_dead_time;
          Alcotest.test_case "double click" `Quick test_detector_double_click;
          Alcotest.test_case "validation" `Quick test_detector_validation;
          Alcotest.test_case "afterpulse chains without dead time" `Quick
            test_detector_afterpulse_chains;
          Alcotest.test_case "dead time masks afterpulse" `Quick
            test_detector_dead_time_masks_afterpulse;
        ] );
      ( "eve",
        [
          Alcotest.test_case "passive" `Quick test_eve_passive_transparent;
          Alcotest.test_case "beamsplit" `Quick test_eve_beamsplit_takes_one;
          Alcotest.test_case "intercept full" `Quick test_eve_intercept_full;
          Alcotest.test_case "intercept fraction" `Quick test_eve_intercept_fraction;
          Alcotest.test_case "breidbart guess rate" `Quick test_eve_breidbart_guess_rate;
          Alcotest.test_case "breidbart qber" `Slow test_eve_breidbart_induces_25pct_qber;
          Alcotest.test_case "breidbart harvests more" `Slow test_eve_breidbart_knows_more_than_naive;
          Alcotest.test_case "vacuum skipped" `Quick test_eve_vacuum_not_intercepted;
          Alcotest.test_case "bad fraction" `Quick test_eve_bad_fraction;
          Alcotest.test_case "bits_known" `Quick test_eve_bits_known_accounting;
        ] );
      ( "timing",
        [
          Alcotest.test_case "frames" `Quick test_timing_frames;
          Alcotest.test_case "validation" `Quick test_timing_validation;
          Alcotest.test_case "loss probability" `Quick test_timing_loss_probability;
        ] );
      ( "stabilization",
        [
          Alcotest.test_case "starts aligned" `Quick test_stab_starts_aligned;
          Alcotest.test_case "drifts without servo" `Quick test_stab_drifts_without_servo;
          Alcotest.test_case "servo bounds error" `Quick test_stab_servo_bounds_error;
          Alcotest.test_case "visibility range" `Quick test_stab_visibility_scale_range;
          Alcotest.test_case "validation" `Quick test_stab_validation;
          Alcotest.test_case "qber ramps unservoed" `Slow test_stab_link_qber_ramps_without_servo;
          Alcotest.test_case "servo holds band" `Slow test_stab_link_servo_holds_band;
        ] );
      ( "link",
        [
          Alcotest.test_case "darpa operating point" `Slow test_link_darpa_operating_point;
          Alcotest.test_case "textbook detection" `Quick test_link_textbook_detection_rate;
          Alcotest.test_case "intercept-resend qber" `Slow test_link_intercept_resend_qber;
          Alcotest.test_case "loss reduces rate" `Quick test_link_longer_fiber_fewer_detections;
          Alcotest.test_case "frame loss" `Quick test_link_frame_loss_drops_detections;
          Alcotest.test_case "detections valid" `Quick test_link_detections_sorted_and_valid;
          Alcotest.test_case "deterministic" `Quick test_link_deterministic_by_seed;
          Alcotest.test_case "research grade" `Quick test_link_research_grade_cleaner;
          Alcotest.test_case "entangled coincidences" `Quick test_link_entangled_coincidence_penalty;
          Alcotest.test_case "wcp alice detected" `Quick test_link_wcp_alice_always_detected;
          Alcotest.test_case "entangled qber" `Slow test_link_entangled_low_qber;
          Alcotest.test_case "invalid pulses" `Quick test_link_invalid_pulses;
        ] );
      ( "link fast path",
        [
          Alcotest.test_case "domains invariant: darpa" `Quick
            test_fastpath_domains_darpa;
          Alcotest.test_case "domains invariant: frame loss" `Quick
            test_fastpath_domains_frame_loss;
          Alcotest.test_case "domains invariant: entangled" `Quick
            test_fastpath_domains_entangled;
          Alcotest.test_case "domains invariant: stabilized" `Quick
            test_fastpath_domains_stabilized;
          Alcotest.test_case "domains invariant: eve" `Quick
            test_fastpath_domains_eve;
          Alcotest.test_case "partial last frame" `Quick
            test_fastpath_partial_last_frame;
          Alcotest.test_case "more domains than frames" `Quick
            test_fastpath_more_domains_than_frames;
          Alcotest.test_case "gated pulses" `Quick test_fastpath_gated_pulses;
          Alcotest.test_case "reference equivalence" `Slow
            test_fastpath_reference_equivalence;
          Alcotest.test_case "reference equivalence with eve" `Slow
            test_fastpath_reference_equivalence_eve;
          Alcotest.test_case "reference equivalence: switch loss" `Slow
            test_fastpath_reference_equivalence_switch;
          Alcotest.test_case "reference equivalence: entangled and beamsplit" `Slow
            test_fastpath_reference_equivalence_multiphoton;
          Alcotest.test_case "reference equivalence: frame loss, 37-pulse frames" `Slow
            test_fastpath_reference_equivalence_timing;
          Alcotest.test_case "reference equivalence: dense clicks, dead time" `Slow
            test_fastpath_reference_equivalence_dense;
          Alcotest.test_case "reference equivalence: afterpulse chains" `Slow
            test_fastpath_reference_equivalence_afterpulse;
          Alcotest.test_case "reference equivalence: mismatched APDs" `Slow
            test_fastpath_reference_equivalence_bias;
        ] );
    ]
