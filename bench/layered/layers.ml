(* The traced pass: every layer timed from outside, by wrapping calls to
   its public functions in probe spans.  Each traced run times all four
   legs (protocol, KMS with its relay replay, ESP, IKE/gateway) so that
   every per-layer metric is reported on every workload; the workload
   picks the link conditions of the protocol leg and which leg is
   re-run untraced to price the tracing itself. *)

open Workloads
module Engine = Qkd_protocol.Engine
module Sifting = Qkd_protocol.Sifting
module Cascade = Qkd_protocol.Cascade
module Entropy = Qkd_protocol.Entropy
module Randomness = Qkd_protocol.Randomness
module Privacy_amp = Qkd_protocol.Privacy_amp
module Auth = Qkd_protocol.Auth
module Wire = Qkd_protocol.Wire
module Esp = Qkd_ipsec.Esp
module Replay = Qkd_ipsec.Replay

type metric = string * float * string

let span = Meter.span
let durs = Meter.durations
let per n d = d /. float_of_int n
let total p name = Meter.sum (durs p name)

(* Median over calls of (duration / units of that call). *)
let median_per p name units =
  Meter.median (Array.mapi (fun i d -> per units.(i) d) (durs p name))

let words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* Calls per leg; smoke size only exercises the code. *)
type sizes = {
  rounds : int;
  kms_slices : int;
  esp_batches : int;
  rekeys : int;
  scalar_batches : int;
}

let full = { rounds = 8; kms_slices = 100; esp_batches = 100; rekeys = 32; scalar_batches = 50 }
(* 50 KMS slices reach the first supply refresh. *)
let smoke = { rounds = 1; kms_slices = 50; esp_batches = 2; rekeys = 2; scalar_batches = 2 }

(* ---- Protocol leg: the engine's stages, called in its order -------- *)

let protocol_leg sz ~eve ~seed p =
  let config = distill_config ~eve in
  let ec = config.System.engine in
  let pulses = config.System.pulses_per_round in
  let engine = Engine.create ~seed:(Int64.of_int seed) ec in
  let rng = Rng.create (Int64.of_int seed) in
  let prepositioned = Rng.bits rng (1 lsl 16) in
  let alice = Auth.create ~prepositioned:(Bitstring.copy prepositioned) in
  let bob = Auth.create ~prepositioned in
  let qber = ref None in
  let n = sz.rounds in
  let detections = Array.make n 0 and sifted = Array.make n 0 in
  let link_words = ref 0.0 and disclosed = ref 0 and secure = ref 0 and distilled = ref 0 in
  for r = 0 to n - 1 do
    span p "round" (fun () ->
        let link, w =
          span p "Link.run" (fun () ->
              words (fun () ->
                  Link.run ~seed:(Rng.int64 rng) ~mode:ec.Engine.link_mode ec.Engine.link ~pulses))
        in
        link_words := !link_words +. w;
        let s = span p "Sifting.sift" (fun () -> Sifting.sift link) in
        detections.(r) <- s.Sifting.detections;
        sifted.(r) <- Array.length s.Sifting.slots;
        let c =
          span p "Cascade.reconcile" (fun () ->
              Cascade.reconcile ~seed:(Rng.int64 rng) ?estimated_qber:!qber ec.Engine.cascade
                ~alice:s.Sifting.alice_bits ~bob:s.Sifting.bob_bits)
        in
        if c.Cascade.verified && sifted.(r) > 0 then
          qber := Some (float_of_int c.Cascade.errors_corrected /. float_of_int sifted.(r));
        disclosed := !disclosed + c.Cascade.disclosed_bits;
        let e =
          span p "Entropy.estimate" (fun () ->
              let nonrandom = (Randomness.test c.Cascade.corrected).Randomness.shorten_bits in
              Entropy.estimate ~defense:ec.Engine.defense ~accounting:ec.Engine.accounting
                ~confidence:ec.Engine.confidence
                {
                  Entropy.b = sifted.(r);
                  e = c.Cascade.errors_corrected;
                  n = pulses;
                  d = c.Cascade.disclosed_bits;
                  r = ec.Engine.nonrandom_measure + nonrandom;
                  source = ec.Engine.link.Link.source;
                })
        in
        secure := !secure + e.Entropy.secure_bits;
        let pa =
          span p "Privacy_amp" (fun () ->
              let pa =
                Privacy_amp.amplify_seeded ~seed:(Rng.int64 rng) ~bits:s.Sifting.alice_bits
                  ~secure_bits:e.Entropy.secure_bits
              in
              ignore (Privacy_amp.apply_params pa.Privacy_amp.params_messages c.Cascade.corrected);
              pa)
        in
        distilled := !distilled + Bitstring.length pa.Privacy_amp.distilled;
        (* The round's channel bytes, one transcript per direction. *)
        let report = Sifting.bob_report link in
        let from_bob = Wire.encode report in
        let from_alice =
          Bytes.concat Bytes.empty
            (Wire.encode (Sifting.alice_response link report)
            :: List.map Wire.encode pa.Privacy_amp.params_messages)
        in
        span p "Auth" (fun () ->
            List.iter
              (fun (sender, receiver, msg) ->
                match Auth.tag sender msg with
                | Ok tag ->
                    if Auth.verify receiver ~tag msg <> Ok () then failwith "auth: tag rejected"
                | Error _ -> failwith "auth: pool exhausted")
              [ (bob, alice, from_bob); (alice, bob, from_alice) ]);
        span p "Engine.run_round" (fun () -> ignore (Engine.run_round engine ~pulses)))
  done;
  let pulses_total = float_of_int (n * pulses) in
  let sum_i a = Array.fold_left ( + ) 0 a in
  let layers =
    [ "Link.run"; "Sifting.sift"; "Cascade.reconcile"; "Entropy.estimate"; "Privacy_amp"; "Auth" ]
  in
  let engine_ms = durs p "Engine.run_round" in
  let glue =
    Array.mapi
      (fun r e -> e -. List.fold_left (fun acc l -> acc +. (durs p l).(r)) 0.0 layers)
      engine_ms
  in
  [
    ("link.ns_per_pulse", 1e9 *. median_per p "Link.run" (Array.make n pulses), "ns");
    ("link.words_per_pulse", !link_words /. pulses_total, "words");
    ("link.detections_per_pulse", float_of_int (sum_i detections) /. pulses_total, "ratio");
    ("sift.ns_per_detection", 1e9 *. median_per p "Sifting.sift" detections, "ns");
    ("sift.sifted_per_detection", ratio (sum_i sifted) (sum_i detections), "ratio");
    ("cascade.ns_per_sifted_bit", 1e9 *. median_per p "Cascade.reconcile" sifted, "ns");
    ("cascade.disclosed_per_sifted_bit", ratio !disclosed (sum_i sifted), "ratio");
    ("entropy.ns_per_sifted_bit", 1e9 *. median_per p "Entropy.estimate" sifted, "ns");
    ("pa.ns_per_distilled_bit", 1e9 *. total p "Privacy_amp" /. float_of_int !distilled, "ns");
    ("pa.secret_fraction", ratio !secure (sum_i sifted), "ratio");
    ("auth.ns_per_tag", 1e9 *. total p "Auth" /. float_of_int (2 * n), "ns");
    ("engine.round_ms", 1e3 *. Meter.median engine_ms, "ms");
    ("engine.glue_ms", 1e3 *. Meter.median glue, "ms");
  ]

(* ---- KMS leg, and the same requests replayed on the relay alone ---- *)

type request = Request of int | Refresh

(* Each slice's requests and refreshes are replayed straight through
   Relay on an identical mesh right after the slice, so that the relay
   time subtracted from the slice was measured under the same host
   load.  KMS makes the same [reserve_key]/[commit_reservation] calls
   from inside [Sim.run], where the bench cannot time them. *)
let kms_leg sz ~seed p =
  let log = ref [] in
  let env =
    kms_build ~seed
      ~advance:(fun f ->
        log := Refresh :: !log;
        span p "Kms.advance" f)
      ()
  in
  let submit tenant =
    log := Request tenant :: !log;
    span p "Kms.submit" (fun () -> Kms.submit env.kms ~tenant ~bits:kms_bits)
  in
  let relay = metro_mesh () in
  let route = Array.map (fun id -> Kms.tenant env.kms id) env.tenants in
  let requests = ref 0 and hops = ref 0 in
  let replay = function
    | Refresh -> Relay.advance relay ~seconds:Load.default.Load.advance_every_s
    | Request tenant ->
        incr requests;
        let tn = route.(tenant) in
        span p "Relay.reserve+commit" (fun () ->
            match
              Relay.reserve_key relay ~src:tn.Qkd_kms.Tenant.src ~dst:tn.Qkd_kms.Tenant.dst
                ~bits:kms_bits
            with
            | Ok r ->
                let d = Relay.commit_reservation relay r in
                hops := !hops + List.length d.Relay.path - 1
            | Error _ -> failwith "relay replay: request failed")
  in
  for _ = 1 to sz.kms_slices do
    let until = Sim.now env.sim +. kms_slice_s in
    offer env ~until submit;
    span p "Sim.run" (fun () -> Sim.run env.sim ~until);
    span p "relay_replay" (fun () -> List.iter replay (List.rev !log));
    log := []
  done;
  let requests = !requests in
  let relay_s = total p "Relay.reserve+commit" in
  let relay_per_request = relay_s /. float_of_int requests in
  let dispatch =
    (total p "Sim.run" -. total p "Kms.submit" -. total p "Kms.advance" -. relay_s)
    /. float_of_int requests
  in
  let over_budget =
    Array.fold_left (fun n d -> if d > kms_slice_s then n + 1 else n) 0 (durs p "Sim.run")
  in
  [
    ("relay.us_per_request", 1e6 *. relay_per_request, "us");
    ("relay.ns_per_hop", 1e9 *. relay_s /. float_of_int !hops, "ns");
    ("relay.hops_per_request", float_of_int !hops /. float_of_int requests, "count");
    ("kms.submit_ns", 1e9 *. total p "Kms.submit" /. float_of_int requests, "ns");
    ("kms.advance_ms", 1e3 *. Meter.median (durs p "Kms.advance"), "ms");
    ("kms.dispatch_us_per_request", 1e6 *. dispatch, "us");
    (* slices whose wall time exceeds their 10 ms of simulated time *)
    ("kms.slices_over_budget", float_of_int over_budget, "count");
  ]

(* ---- ESP leg: the kernels alone, then the gateways around them ----- *)

let esp_leg sz ~seed (a, b) p =
  let ia, rb =
    match
      Ike.phase2 ~initiator:(Gateway.ike a) ~responder:(Gateway.ike b) ~now:0.0
        ~protect:(protect (Gateway.wan_addr b)) ()
    with
    | Ok (ia, rb) -> (ia.Ike.outbound, rb.Ike.inbound)
    | Error e -> Format.kasprintf failwith "phase 2: %a" Ike.pp_error e
  in
  let scratch = Esp.make_scratch () and rng = Rng.create (Int64.of_int seed) in
  let replay = Replay.create () in
  let outer_src = Gateway.wan_addr a and outer_dst = Gateway.wan_addr b in
  let kernels leg =
    let encap = "Esp.encap_into " ^ leg.label and decap = "Esp.decap_into " ^ leg.label in
    span p encap (fun () ->
        Array.iteri
          (fun i (s : Pktbuf.buf) ->
            let d = leg.mid.(i) in
            d.Pktbuf.len <-
              Esp.encap_into ia ~scratch ~rng ~outer_src ~outer_dst ~src:s.Pktbuf.data ~src_pos:0
                ~len:s.Pktbuf.len ~dst:d.Pktbuf.data ~dst_pos:0)
          leg.src);
    span p decap (fun () ->
        Array.iteri
          (fun i (s : Pktbuf.buf) ->
            let d = leg.out.(i) in
            d.Pktbuf.len <-
              Esp.decap_into rb ~scratch ~replay ~src:s.Pktbuf.data ~src_pos:0 ~len:s.Pktbuf.len
                ~dst:d.Pktbuf.data ~dst_pos:0)
          leg.mid)
  in
  let legs = List.map (make_leg ~seed) leg_specs in
  let leg_words =
    List.map
      (fun leg ->
        let w = ref 0.0 in
        for _ = 1 to sz.esp_batches do
          Array.iter (fun buf -> ignore (Traffic.next_into leg.traffic buf)) leg.src;
          kernels leg;
          Array.iteri
            (fun i s -> if not (same_bytes s leg.out.(i)) then failwith "esp: kernel output differs")
            leg.src;
          (* words are counted inside the span, so its own record is not *)
          let gateway name f =
            w := !w +. span p (name ^ " " ^ leg.label) (fun () -> snd (words f))
          in
          gateway "Gateway.outbound_batch" (fun () ->
              ignore (Gateway.outbound_batch a ~now:0.0 ~src:leg.src ~dst:leg.mid ~count:batch));
          gateway "Gateway.inbound_batch" (fun () ->
              ignore (Gateway.inbound_batch b ~now:0.0 ~src:leg.mid ~dst:leg.out ~count:batch))
        done;
        (leg.label, !w /. float_of_int (sz.esp_batches * batch)))
      legs
  in
  let ns name = 1e9 *. Meter.median (durs p name) /. float_of_int batch in
  (* per-batch differences, so that host load common to the pair cancels *)
  let classify =
    Array.map2 ( -. ) (durs p "Gateway.outbound_batch 32flow") (durs p "Esp.encap_into 32flow")
  in
  [
    ("esp.encap_ns_64B", ns "Esp.encap_into 64B", "ns");
    ("esp.decap_ns_64B", ns "Esp.decap_into 64B", "ns");
    ("esp.encap_ns_1KiB", ns "Esp.encap_into 1KiB", "ns");
    ("esp.decap_ns_1KiB", ns "Esp.decap_into 1KiB", "ns");
    ("esp.words_per_pkt_64B", List.assoc "64B" leg_words, "words");
    ("esp.words_per_pkt_1KiB", List.assoc "1KiB" leg_words, "words");
    ("esp.words_per_pkt_32flow", List.assoc "32flow" leg_words, "words");
    ("gateway.classify_ns_32flow", 1e9 *. Meter.median classify /. float_of_int batch, "ns");
  ]

(* ---- IKE/gateway leg: quick mode and the scalar tunnel path -------- *)

let ike_leg sz ~seed (a, b) p =
  let ike_a = Gateway.ike a in
  let q0 = Ike.qbits_consumed ike_a and n0 = Ike.negotiations ike_a in
  for _ = 1 to sz.rekeys do
    span p "Ike.phase2" (fun () ->
        match
          Ike.phase2 ~initiator:ike_a ~responder:(Gateway.ike b) ~now:0.0
            ~protect:(protect (Gateway.wan_addr b)) ()
        with
        | Ok _ -> ()
        | Error e -> Format.kasprintf failwith "phase 2: %a" Ike.pp_error e)
  done;
  let traffic =
    Traffic.create ~seed:(Int64.of_int seed) ~src_net:"10.1.5.0" ~dst_net:"10.2.9.0" ~flows:1
      ~payload_len:vpn_config.Vpn.packet_bytes ()
  in
  let outers = Array.make batch (Traffic.next_packet traffic) in
  for _ = 1 to sz.scalar_batches do
    let inners = Array.init batch (fun _ -> Traffic.next_packet traffic) in
    span p "Gateway.outbound" (fun () ->
        Array.iteri
          (fun i pkt ->
            match Gateway.outbound a ~now:0.0 pkt with
            | Gateway.Tunnel o -> outers.(i) <- o
            | _ -> failwith "gateway: packet not tunnelled")
          inners);
    span p "Gateway.inbound" (fun () ->
        Array.iteri
          (fun i o ->
            match Gateway.inbound b ~now:0.0 o with
            | Gateway.Deliver d when d = inners.(i) -> ()
            | _ -> failwith "gateway: packet not delivered intact")
          outers)
  done;
  let ns name = 1e9 *. Meter.median (durs p name) /. float_of_int batch in
  [
    ("ike.phase2_us", 1e6 *. Meter.median (durs p "Ike.phase2"), "us");
    ( "ike.qbits_per_rekey",
      float_of_int (Ike.qbits_consumed ike_a - q0) /. float_of_int (Ike.negotiations ike_a - n0),
      "count" );
    ("gateway.outbound_ns_512B", ns "Gateway.outbound", "ns");
    ("gateway.inbound_ns_512B", ns "Gateway.inbound", "ns");
  ]

(* ---- The pass ------------------------------------------------------- *)

type result = {
  metrics : metric list;
  checks : (string * bool) list;
  tracer : Qkd_obs.Trace.tracer;
  self_times : (string * int * float * float) list;
}

let run ~workload ~seed ~smoke:small =
  let sz = if small then smoke else full in
  let tracer = Qkd_obs.Trace.tracer_create ~capacity:(1 lsl 17) () in
  let p = Meter.probe ~tracer () in
  (* Bring-up: main mode (Diffie-Hellman) and one quick mode. *)
  let tunnel = span p "Ike.phase1+phase2" (fun () -> tunnel ~seed) in
  let legs =
    [
      ("protocol", protocol_leg sz ~eve:(workload = "distill_eve") ~seed);
      ("kms", kms_leg sz ~seed);
      ("esp", esp_leg sz ~seed tunnel);
      ("ike", ike_leg sz ~seed tunnel);
    ]
  in
  let own =
    match workload with
    | "kms_metro" -> "kms"
    | "esp_batch" -> "esp"
    | "vpn_rekey" -> "ike"
    | _ -> "protocol"
  in
  (* The workload's own leg also runs just before its traced run with
     calls timed but no spans recorded.  The overhead is the median over
     call names of the ratio of median call times, which host load
     shifting between the two runs moves less than a ratio of totals. *)
  let bare = Meter.probe () in
  let metrics =
    span p workload (fun () ->
        List.concat_map
          (fun (name, leg) ->
            if name = own then span p ("untraced " ^ name) (fun () -> ignore (leg bare));
            span p name (fun () -> leg p))
          legs)
  in
  let overhead =
    Hashtbl.fold
      (fun name _ acc -> (Meter.median (durs p name) /. Meter.median (durs bare name)) :: acc)
      bare.Meter.durations []
  in
  let metrics =
    metrics
    @ [
        ("ike.bringup_ms", 1e3 *. Meter.median (durs p "Ike.phase1+phase2"), "ms");
        ("trace.overhead_ratio", Meter.median (Array.of_list overhead), "ratio");
      ]
  in
  let value name = List.assoc name (List.map (fun (n, v, _) -> (n, v)) metrics) in
  let glue = value "engine.glue_ms" and round = value "engine.round_ms" in
  {
    metrics;
    checks =
      [
        ("per-layer metrics finite", List.for_all (fun (_, v, _) -> Float.is_finite v) metrics);
        ("no span dropped", Qkd_obs.Trace.dropped_spans tracer = 0);
      ]
      (* one smoke round is too few to compare wall times *)
      @ if small then []
        else
          [
            ("engine.glue_ms >= 0", glue >= 0.0);
            ("timed layers >= 80% of engine.round_ms", round -. glue >= 0.8 *. round);
          ];
    tracer;
    self_times = Meter.self_times tracer;
  }
