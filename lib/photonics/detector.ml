type config = {
  efficiency : float;
  dark_count_per_gate : float;
  afterpulse_probability : float;
  dead_time_gates : int;
  visibility : float;
  d1_efficiency_factor : float;
}

let default =
  {
    efficiency = 0.10;
    dark_count_per_gate = 3e-5;
    afterpulse_probability = 1e-3;
    dead_time_gates = 2;
    visibility = 0.88;
    d1_efficiency_factor = 1.0;
  }

let validate c =
  let prob p = p >= 0.0 && p <= 1.0 in
  if
    not
      (prob c.efficiency && prob c.dark_count_per_gate
      && prob c.afterpulse_probability && prob c.visibility)
  then invalid_arg "Detector.validate: probability out of range";
  if c.dead_time_gates < 0 then invalid_arg "Detector.validate: negative dead time";
  if c.d1_efficiency_factor < 0.0 || c.efficiency *. c.d1_efficiency_factor > 1.0
  then invalid_arg "Detector.validate: D1 efficiency factor out of range"

(* Per-APD state: gates remaining dead, and whether the last live gate
   clicked (for afterpulsing). *)
type apd = { mutable dead : int; mutable clicked_last : bool }

type t = {
  config : config;
  d0 : apd;
  d1 : apd;
  mutable dark_clicks : int;
      (** clicks attributable to dark counts alone: no photons arrived
          and no afterpulse was armed, so nothing else could fire *)
}

let create config =
  validate config;
  {
    config;
    d0 = { dead = 0; clicked_last = false };
    d1 = { dead = 0; clicked_last = false };
    dark_clicks = 0;
  }

let reset t =
  t.d0.dead <- 0;
  t.d0.clicked_last <- false;
  t.d1.dead <- 0;
  t.d1.clicked_last <- false;
  t.dark_clicks <- 0

let dark_clicks t = t.dark_clicks

type outcome = No_click | Click of Qubit.value | Double_click

let gate t rng apd ~efficiency ~photons_here =
  if apd.dead > 0 then begin
    apd.dead <- apd.dead - 1;
    (* A blanked gate cannot click and clears afterpulse memory. *)
    apd.clicked_last <- false;
    false
  end
  else begin
    let c = t.config in
    (* Any of: real detection of one of the photons, dark count, or
       afterpulse from the previous gate's avalanche. *)
    let p_signal = 1.0 -. ((1.0 -. efficiency) ** float_of_int photons_here) in
    let p_after = if apd.clicked_last then c.afterpulse_probability else 0.0 in
    let p_noclick =
      (1.0 -. p_signal) *. (1.0 -. c.dark_count_per_gate) *. (1.0 -. p_after)
    in
    let clicked = Qkd_util.Rng.bernoulli rng (1.0 -. p_noclick) in
    (* Attribution without extra RNG draws (which would perturb the
       seeded streams): a click on an empty, afterpulse-free gate can
       only be a dark count. *)
    if clicked && p_signal = 0.0 && p_after = 0.0 then
      t.dark_clicks <- t.dark_clicks + 1;
    apd.clicked_last <- clicked;
    if clicked then apd.dead <- c.dead_time_gates;
    clicked
  end

let detect t rng ?(phase_offset = 0.0) ?(visibility_scale = 1.0) ~bob_basis
    (pulse : Pulse.t) =
  let c = t.config in
  (* Each photon interferes and exits toward D0 or D1. *)
  let delta = pulse.Pulse.phase -. Qubit.bob_phase bob_basis +. phase_offset in
  let visibility = Float.max 0.0 (Float.min 1.0 (c.visibility *. visibility_scale)) in
  let p_d1 = Qubit.detector_d1_probability ~visibility ~delta in
  let n0 = ref 0 and n1 = ref 0 in
  for _ = 1 to pulse.Pulse.photons do
    if Qkd_util.Rng.bernoulli rng p_d1 then incr n1 else incr n0
  done;
  (* Mismatched APD efficiencies are the "detector bias" source of
     non-randomness that §6 names; the randomness battery upstream is
     what catches it. *)
  let c0 = gate t rng t.d0 ~efficiency:c.efficiency ~photons_here:!n0 in
  let c1 =
    gate t rng t.d1
      ~efficiency:(c.efficiency *. c.d1_efficiency_factor)
      ~photons_here:!n1
  in
  match (c0, c1) with
  | false, false -> No_click
  | true, false -> Click false
  | false, true -> Click true
  | true, true -> Double_click

let quiescent t =
  t.d0.dead = 0 && t.d1.dead = 0 && (not t.d0.clicked_last) && not t.d1.clicked_last

let record t ~d0 ~d1 ~dark =
  let arm apd clicked =
    apd.clicked_last <- clicked;
    if clicked then apd.dead <- t.config.dead_time_gates
  in
  arm t.d0 d0;
  arm t.d1 d1;
  t.dark_clicks <- t.dark_clicks + dark;
  match (d0, d1) with
  | false, false -> No_click
  | true, false -> Click false
  | false, true -> Click true
  | true, true -> Double_click

let pp_outcome ppf = function
  | No_click -> Format.pp_print_string ppf "-"
  | Click false -> Format.pp_print_string ppf "0"
  | Click true -> Format.pp_print_string ppf "1"
  | Double_click -> Format.pp_print_string ppf "D"
