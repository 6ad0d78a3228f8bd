module Bitstring = Qkd_util.Bitstring
module Rle = Qkd_util.Rle
module Link = Qkd_photonics.Link
module Detector = Qkd_photonics.Detector
module Qubit = Qkd_photonics.Qubit

let symbol_none = 0
let symbol_basis0 = 1
let symbol_basis1 = 2
let symbol_double = 3

let symbol (d : Link.detection) =
  match d.Link.outcome with
  | Detector.Double_click -> symbol_double
  | Detector.Click _ -> (
      match d.Link.bob_basis with
      | Qubit.Basis0 -> symbol_basis0
      | Qubit.Basis1 -> symbol_basis1)
  | Detector.No_click -> symbol_none

(* Runs straight from the sorted detections: a gap of silent slots,
   then the detection's symbol, and the silent tail after the last. *)
let bob_report (link : Link.result) =
  let w = Rle.writer () in
  let next =
    Array.fold_left
      (fun next (d : Link.detection) ->
        Rle.add_run w symbol_none (d.Link.slot - next);
        Rle.add_run w (symbol d) 1;
        d.Link.slot + 1)
      0 link.Link.detections
  in
  Rle.add_run w symbol_none (link.Link.pulses - next);
  Wire.Sift_report { first_slot = 0; symbols = Rle.contents w }

let malformed msg = raise (Wire.Malformed ("sift report: " ^ msg))

(* [Rle] reports a bad encoding with [Invalid_argument]; on the wire
   that is a malformed message. *)
let rle f = try f () with Invalid_argument msg -> malformed msg

let alice_response (link : Link.result) report =
  match report with
  | Wire.Sift_report { first_slot; symbols } ->
      if first_slot <> 0 then malformed "must start at slot 0";
      (* Checked before any run is walked, so a hostile count costs
         nothing. *)
      if rle (fun () -> Rle.count symbols) <> link.Link.pulses then
        malformed "slot count differs from the transmission";
      (* One accept bit per reported single click, in slot order. *)
      let w = Rle.writer () in
      rle (fun () ->
          Rle.fold_runs symbols
            (fun () ~pos sym run ->
              if sym > symbol_double then malformed "unknown symbol";
              if sym = symbol_basis0 || sym = symbol_basis1 then begin
                let bob_basis = if sym = symbol_basis1 then Qubit.Basis1 else Qubit.Basis0 in
                for slot = pos to pos + run - 1 do
                  let ok =
                    Qubit.basis_equal bob_basis (Link.alice_basis link slot)
                    (* entangled sources: Alice must have registered her half *)
                    && Bitstring.get link.Link.alice_detected slot
                  in
                  Rle.add_run w (Bool.to_int ok) 1
                done
              end)
            ());
      Wire.Sift_response { accepted = Rle.contents w }
  | _ -> raise (Wire.Malformed "alice_response: expected a sift report")

type outcome = {
  slots : int array;
  alice_bits : Bitstring.t;
  bob_bits : Bitstring.t;
  detections : int;
  double_clicks : int;
  basis_mismatches : int;
  report_bytes : int;
  response_bytes : int;
  report_payload : bytes;
  response_payload : bytes;
}

let sift (link : Link.result) =
  let report = bob_report link in
  let response = alice_response link report in
  let accepted =
    match response with
    | Wire.Sift_response { accepted } -> accepted
    | _ -> assert false
  in
  (* Bob walks his single clicks in slot order against Alice's accept
     runs; the i-th accept bit answers the i-th single click. *)
  let dets = link.Link.detections in
  let next = ref 0 in
  let rec next_single () =
    if !next >= Array.length dets then None
    else begin
      let d = dets.(!next) in
      incr next;
      match d.Link.outcome with Detector.Click v -> Some (d.Link.slot, v) | _ -> next_single ()
    end
  in
  let sifted = ref [] in
  Rle.fold_runs accepted
    (fun () ~pos:_ bit run ->
      for _ = 1 to run do
        match next_single () with
        | Some s when bit = 1 -> sifted := s :: !sifted
        | Some _ | None -> ()
      done)
    ();
  let sifted = Array.of_list (List.rev !sifted) in
  let n = Array.length sifted in
  let alice_bits = Bitstring.create n in
  let bob_bits = Bitstring.create n in
  Array.iteri
    (fun i (slot, v) ->
      Bitstring.set alice_bits i (Link.alice_value link slot);
      Bitstring.set bob_bits i v)
    sifted;
  let double_clicks =
    Array.fold_left
      (fun k (d : Link.detection) ->
        match d.Link.outcome with Detector.Double_click -> k + 1 | _ -> k)
      0 dets
  in
  let detections = Array.length dets - double_clicks in
  let report_payload = Wire.encode report in
  let response_payload = Wire.encode response in
  {
    slots = Array.map fst sifted;
    alice_bits;
    bob_bits;
    detections;
    double_clicks;
    basis_mismatches = detections - n;
    report_bytes = Bytes.length report_payload;
    response_bytes = Bytes.length response_payload;
    report_payload;
    response_payload;
  }

let qber outcome =
  let n = Bitstring.length outcome.alice_bits in
  if n = 0 then 0.0
  else
    float_of_int (Bitstring.hamming_distance outcome.alice_bits outcome.bob_bits)
    /. float_of_int n
