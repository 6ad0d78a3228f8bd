type strategy =
  | Passive
  | Intercept_resend of float
  | Intercept_breidbart of float
  | Beamsplit
  | Intercept_and_beamsplit of float

type slot_knowledge =
  | Stored_photon
  | Measured of Qubit.basis * Qubit.value
  | Breidbart_guess of Qubit.value

type t = {
  strategy : strategy;
  rng : Qkd_util.Rng.t;
  knowledge : (int, slot_knowledge) Hashtbl.t;
  mutable stored : int;
  mutable intercepted : int;
}

let fraction_ok f = f >= 0.0 && f <= 1.0

let create strategy rng =
  (match strategy with
  | Intercept_resend f | Intercept_breidbart f | Intercept_and_beamsplit f ->
      if not (fraction_ok f) then
        invalid_arg "Eve.create: fraction must be within [0,1]"
  | Passive | Beamsplit -> ());
  { strategy; rng; knowledge = Hashtbl.create 1024; stored = 0; intercepted = 0 }

let strategy t = t.strategy

let beamsplit t ~slot (pulse : Pulse.t) =
  if pulse.Pulse.photons >= 2 then begin
    (* Steal one photon; it keeps its phase, so after basis reveal the
       stored photon yields the bit exactly. *)
    t.stored <- t.stored + 1;
    Hashtbl.replace t.knowledge slot Stored_photon;
    Pulse.with_photons pulse (pulse.Pulse.photons - 1)
  end
  else pulse

let intercept t ~slot (pulse : Pulse.t) =
  if Pulse.is_vacuum pulse then pulse
  else begin
    let basis = Qubit.random_basis t.rng in
    (* Eve's own interferometer: compatible basis reads Alice's value;
       incompatible collapses to a coin flip (perfect visibility — she
       is limited only by physics). *)
    let value =
      if Qubit.basis_equal basis pulse.Pulse.basis then pulse.Pulse.value
      else Qkd_util.Rng.bool t.rng
    in
    t.intercepted <- t.intercepted + 1;
    Hashtbl.replace t.knowledge slot (Measured (basis, value));
    (* Re-emit with the same photon count so downstream loss statistics
       are unchanged; the phase is re-encoded in HER basis. *)
    {
      Pulse.photons = pulse.Pulse.photons;
      phase = Qubit.alice_phase basis value;
      basis;
      value;
    }
  end

(* Breidbart: measure in the basis halfway between Alice's two (phase
   pi/4).  The projection succeeds with cos^2(pi/8) when her guess
   matches Alice's bit; she re-emits in the intermediate basis, so a
   compatible-basis Bob still errs 25 % of the time. *)
let breidbart t ~slot (pulse : Pulse.t) =
  if Pulse.is_vacuum pulse then pulse
  else begin
    let p_correct = cos (Float.pi /. 8.0) ** 2.0 in
    let guess =
      if Qkd_util.Rng.bernoulli t.rng p_correct then pulse.Pulse.value
      else not pulse.Pulse.value
    in
    t.intercepted <- t.intercepted + 1;
    Hashtbl.replace t.knowledge slot (Breidbart_guess guess);
    (* re-emit at the intermediate phase encoding her guess *)
    let phase = (Float.pi /. 4.0) +. (if guess then Float.pi else 0.0) in
    { pulse with Pulse.phase }
  end

let intercept_fraction = function
  | Passive | Beamsplit -> 0.0
  | Intercept_resend f | Intercept_breidbart f | Intercept_and_beamsplit f -> f

let splits = function
  | Beamsplit | Intercept_and_beamsplit _ -> true
  | Passive | Intercept_resend _ | Intercept_breidbart _ -> false

let apply t ~slot ~intercept:coin pulse =
  match t.strategy with
  | Passive -> pulse
  | Beamsplit -> beamsplit t ~slot pulse
  | Intercept_breidbart _ -> if coin then breidbart t ~slot pulse else pulse
  | Intercept_resend _ -> if coin then intercept t ~slot pulse else pulse
  | Intercept_and_beamsplit _ ->
      let pulse = beamsplit t ~slot pulse in
      if coin then intercept t ~slot pulse else pulse

(* Eve draws her coin on every pulse, whatever it carries;
   beam-splitting draws nothing. *)
let tap t ~slot pulse =
  apply t ~slot
    ~intercept:(Qkd_util.Rng.bernoulli t.rng (intercept_fraction t.strategy))
    pulse

let absorb t src =
  if t.strategy <> src.strategy then invalid_arg "Eve.absorb: strategy mismatch";
  Hashtbl.iter (fun slot k -> Hashtbl.replace t.knowledge slot k) src.knowledge;
  t.stored <- t.stored + src.stored;
  t.intercepted <- t.intercepted + src.intercepted

let knowledge t = t.knowledge
let stored_photons t = t.stored
let intercepted t = t.intercepted

let bits_known t ~alice_basis ~alice_value ~sifted_slots =
  List.fold_left
    (fun acc slot ->
      match Hashtbl.find_opt t.knowledge slot with
      | Some Stored_photon -> acc + 1
      | Some (Measured (basis, _)) ->
          if Qubit.basis_equal basis (alice_basis slot) then acc + 1 else acc
      | Some (Breidbart_guess guess) ->
          if guess = alice_value slot then acc + 1 else acc
      | None -> acc)
    0 sifted_slots
