(* The five workloads of the untraced pass.  Each builds its stack,
   warms up outside any timed window, then runs fixed slices of work
   until the wall budget is spent and checks the outputs. *)

module Bitstring = Qkd_util.Bitstring
module Rng = Qkd_util.Rng
module Link = Qkd_photonics.Link
module Eve = Qkd_photonics.Eve
module Key_pool = Qkd_protocol.Key_pool
module System = Qkd_core.System
module Vpn = Qkd_ipsec.Vpn
module Gateway = Qkd_ipsec.Gateway
module Ike = Qkd_ipsec.Ike
module Sa = Qkd_ipsec.Sa
module Spd = Qkd_ipsec.Spd
module Pktbuf = Qkd_ipsec.Pktbuf
module Traffic = Qkd_ipsec.Traffic
module Sim = Qkd_net.Sim
module Relay = Qkd_net.Relay
module Topology = Qkd_net.Topology
module Kms = Qkd_kms.Kms
module Load = Qkd_kms.Load
module Qos = Qkd_kms.Qos
module Recorder = Qkd_obs.Recorder
module Event = Qkd_obs.Event

type params = {
  name : string;  (** the workload *)
  seed : int;
  seconds : float;  (** wall budget of the timed window *)
  smoke : bool;  (** one set-up, no warm-up: exercises every check quickly *)
  setup_only : bool;  (** time one set-up, print it and exit *)
}

type outcome = {
  setup_s : float array;
  peak_heap_mb : float;
  slices : float array;  (** wall seconds of each timed slice *)
  useful_bits : float;
      (** what the slices delivered to users: ESP payload bits, or key
          bits handed to KMS tenants *)
  attempted : int;
  failed : int;
  info : (string * float * string) list;
      (** workload-specific figures, printed but not gated *)
  checks : (string * bool) list;
}

(* Set-up is timed [setup_samples] times: once here, building the stack
   the run uses, and again in child processes started with
   [--setup-only] between slices of the timed window.  Contention on a
   shared host comes in episodes of seconds; samples spread over the
   run are likelier to catch time outside them, and a child's build
   leaves this process's heap and GC as the run left them.  One sample
   per 1.4 s of window, 3 to 7, keeps short runs short.
   [set_up] returns the build and the list its samples go to. *)
let setup_samples p =
  if p.smoke then 1 else Int.max 3 (Int.min 7 (int_of_float (p.seconds /. 1.4)))

let set_up p build =
  let stack, dt = Meter.time build in
  if p.setup_only then begin
    Printf.printf "%.17g\n" dt;
    exit 0
  end;
  (stack, ref [ dt ])

let child_setup p =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--workload"; p.name; "--seed"; string_of_int p.seed; "--setup-only" |]
  in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, Option.bind line float_of_string_opt) with
  | Unix.WEXITED 0, Some dt -> dt
  | _ -> failwith "set-up sample: child process failed"

(* The timed window: [slice] for [p.seconds], with the remaining set-up
   samples taken at even intervals inside it, outside any slice. *)
let window p setup slice =
  Meter.timed_slices ~seconds:p.seconds
    ~pauses:(setup_samples p - 1)
    ~pause:(fun () -> setup := child_setup p :: !setup)
    slice

let finish setup = (Array.of_list !setup, Meter.peak_heap_mb ())

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ---- distill / distill_eve: Core.System, pulse to ESP byte -------- *)

let distill_config ~eve =
  let d = System.default_config in
  let link = d.System.engine.Qkd_protocol.Engine.link in
  let link = if eve then { link with Link.eve = Eve.Intercept_resend 0.05 } else link in
  { d with System.engine = { d.System.engine with Qkd_protocol.Engine.link } }

let round_seconds (c : System.config) =
  float_of_int c.System.pulses_per_round
  /. c.System.engine.Qkd_protocol.Engine.link.Link.pulse_rate_hz

let distill ~eve p =
  let config = distill_config ~eve in
  let round_s = round_seconds config in
  (* Set-up is bring-up: the stack plus its first round of key. *)
  let sys, setup =
    set_up p (fun () ->
        let s = System.create ~seed:(Int64.of_int p.seed) config in
        System.advance s ~seconds:round_s;
        s)
  in
  (* Warm-up: 10 simulated seconds, and on until IKE has brought the
     tunnel up (early rekeys fail for want of key and back off). *)
  let rec warm_up () =
    let r = System.report sys in
    let t = r.System.simulated_s in
    if t < 10.0 || (r.System.vpn.Vpn.delivered = 0 && t < 60.0) then begin
      System.advance sys ~seconds:round_s;
      warm_up ()
    end
  in
  if not p.smoke then warm_up ();
  let r0 = System.report sys in
  let slices =
    window p setup (fun () -> snd (Meter.time (fun () -> System.advance sys ~seconds:round_s)))
  in
  let r1 = System.report sys in
  let v0 = r0.System.vpn and v1 = r1.System.vpn in
  let rounds = r1.System.qkd_rounds - r0.System.qkd_rounds in
  let round_failures = r1.System.qkd_round_failures - r0.System.qkd_round_failures in
  let sent = v1.Vpn.attempted - v0.Vpn.attempted in
  let delivered = v1.Vpn.delivered - v0.Vpn.delivered in
  let bits = r1.System.distilled_bits_total - r0.System.distilled_bits_total in
  let sim_s = r1.System.simulated_s -. r0.System.simulated_s in
  let attempted = rounds + sent and failed = round_failures + sent - delivered in
  let vpn = System.vpn sys in
  let offered_ok pool = Key_pool.total_offered pool = r1.System.distilled_bits_total in
  let checks =
    [
      ("vpn pool A offered = distilled", offered_ok (Vpn.pool_a vpn));
      ("vpn pool B offered = distilled", offered_ok (Vpn.pool_b vpn));
      ("vpn blackholed = 0", v1.Vpn.blackholed = 0);
    ]
  in
  let setup_s, peak_heap_mb = finish setup in
  {
    setup_s;
    peak_heap_mb;
    slices;
    (* the end of the pulse-to-ESP path; key yield varies from seed
       to seed by more than the bench can resolve, so it is printed
       but not gated *)
    useful_bits = float_of_int (delivered * config.System.vpn.Vpn.packet_bytes * 8);
    attempted;
    failed;
    info =
      [
        ("key_bps", float_of_int bits /. sim_s, "bit/s");
        ("wall_per_sim_s", Meter.sum slices /. sim_s, "s/s");
        ("failed_ratio", ratio failed attempted, "ratio");
      ];
    checks;
  }

(* ---- kms_metro: open-loop requests over the metro relay mesh ------ *)

let kms_rate = 10_000.0
let kms_bits = 128
let kms_slice_s = 0.01

type kms_env = {
  sim : Sim.t;
  kms : Kms.t;
  tenants : int array;
  arrivals : Rng.t;
  mutable next_at : float;
}

(* The mesh of [Load.default]: 104 nodes, analytic 1e10 Hz link
   rates, watermark-driven replenishment, 5 s of prefill. *)
let metro_mesh () =
  let p = Load.default in
  let relay =
    Relay.create
      ~base_config:{ Link.darpa_default with Link.pulse_rate_hz = p.Load.pulse_rate_hz }
      ~low_watermark:p.Load.low_watermark ~high_watermark:p.Load.high_watermark
      (Topology.metro_ring_of_rings ~fiber_km:p.Load.fiber_km ())
  in
  Relay.advance relay ~seconds:p.Load.prefill_s;
  relay

(* [Load.default]'s tenant layout: round-robin over endpoint pairs and
   QoS classes.  [advance] wraps each supply refresh. *)
let kms_build ?(advance = fun f -> f ()) ~seed () =
  let p = Load.default in
  let relay = metro_mesh () in
  let sim = Sim.create () in
  let kms = Kms.create ~sim relay in
  let eps =
    Topology.nodes (Relay.topology relay)
    |> List.filter (fun (n : Topology.node) -> n.Topology.kind = Topology.Endpoint)
    |> List.map (fun (n : Topology.node) -> n.Topology.id)
    |> Array.of_list
  in
  let ne = Array.length eps in
  let tenants =
    Array.init p.Load.tenants (fun i ->
        let dst = eps.((i + 1 + (i / ne mod (ne - 1))) mod ne) in
        let klass = match i mod 3 with 0 -> Qos.Realtime | 1 -> Qos.Standard | _ -> Qos.Bulk in
        Kms.register kms ~name:(Printf.sprintf "tenant%d" i) ~klass ~src:eps.(i mod ne) ~dst ())
  in
  let rec refresh () =
    advance (fun () -> Kms.advance kms ~seconds:p.Load.advance_every_s);
    Sim.schedule_in sim ~delay:p.Load.advance_every_s refresh
  in
  Sim.schedule sim ~at:p.Load.advance_every_s refresh;
  let arrivals = Rng.create (Int64.of_int seed) in
  { sim; kms; tenants; arrivals; next_at = Rng.exponential arrivals kms_rate }

(* Schedules the Poisson arrivals due before [until]; each one is a
   uniformly drawn tenant handed to [submit] at its arrival time. *)
let offer env ~until submit =
  while env.next_at < until do
    let tenant = env.tenants.(Rng.int env.arrivals (Array.length env.tenants)) in
    Sim.schedule env.sim ~at:env.next_at (fun () -> submit tenant);
    env.next_at <- env.next_at +. Rng.exponential env.arrivals kms_rate
  done

(* Sub-tick request latencies (simulated seconds, from each request's
   arrival) read off the recorder's KMS lane, which is then emptied.
   The lane is read between slices, outside the timed region. *)
let drain_kms_lane recorder =
  let lat =
    List.filter_map
      (fun (e : Event.t) ->
        if e.Event.verdict = "ok" && Array.length e.Event.stage_s = 1 then
          Some e.Event.stage_s.(0)
        else None)
      (Recorder.lane_events recorder Recorder.lane_kms)
  in
  let dropped = Recorder.dropped recorder in
  Recorder.reset recorder;
  (lat, dropped)

let kms_metro p =
  let recorder = Recorder.create ~capacity:8192 () in
  Recorder.use recorder;
  let env, setup = set_up p (fun () -> kms_build ~seed:p.seed ()) in
  let submit tenant = Kms.submit env.kms ~tenant ~bits:kms_bits in
  let dropped = ref 0 in
  let slice ~arrivals =
    let until = Sim.now env.sim +. kms_slice_s in
    if arrivals then offer env ~until submit;
    let (), dt = Meter.time (fun () -> Sim.run env.sim ~until) in
    let lat, d = drain_kms_lane recorder in
    dropped := !dropped + d;
    (lat, dt)
  in
  (* Warm-up; two slices deliver the first dispatch tick. *)
  for _ = 1 to if p.smoke then 2 else 100 do
    ignore (slice ~arrivals:true)
  done;
  let sim0 = Sim.now env.sim and s0 = Kms.stats env.kms in
  let latencies = ref [] in
  let slices =
    window p setup (fun () ->
        let lat, dt = slice ~arrivals:true in
        latencies := List.rev_append lat !latencies;
        dt)
  in
  let sim_s = Sim.now env.sim -. sim0 and s1 = Kms.stats env.kms in
  (* Drain to quiescence; the longest class deadline bounds it. *)
  let drain_until = Sim.now env.sim +. Load.default.Load.drain_grace_s in
  while (Kms.stats env.kms).Kms.in_flight > 0 && Sim.now env.sim < drain_until do
    ignore (slice ~arrivals:false)
  done;
  let s = Kms.stats env.kms in
  let failed = s.Kms.rejected + s.Kms.shed + s.Kms.gave_up in
  let lat = Array.of_list !latencies in
  let setup_s, peak_heap_mb = finish setup in
  {
    setup_s;
    peak_heap_mb;
    slices;
    useful_bits = float_of_int (s1.Kms.delivered_bits - s0.Kms.delivered_bits);
    attempted = s.Kms.submitted;
    failed;
    info =
      [
        ("latency_p50_ms", 1e3 *. Meter.percentile 0.5 lat, "ms");
        ("latency_p99_ms", 1e3 *. Meter.percentile 0.99 lat, "ms");
        ("latency_samples", float_of_int (Array.length lat), "count");
        ("wall_per_sim_s", Meter.sum slices /. sim_s, "s/s");
        ("failed_ratio", ratio failed s.Kms.submitted, "ratio");
      ];
    checks =
      [
        ("accounting drift = 0", s.Kms.accounting_drift_bits = 0);
        ("nothing in flight at quiescence", s.Kms.in_flight = 0);
        ( "submitted = delivered + rejected + shed + gave_up",
          s.Kms.submitted = s.Kms.delivered + failed );
        ("no recorder event dropped", !dropped = 0);
      ];
  }

(* ---- Tunnels keyed by IKE from mirrored QKD pools ----------------- *)

let long_lifetime = { Sa.seconds = 1e9; kilobytes = max_int / 2048 }

let protect peer =
  {
    Spd.transform = Sa.Aes128_cbc;
    lifetime = long_lifetime;
    qkd = Spd.Reseed;
    peer;
    qblock_bits = 1024;
  }

(* Two gateways whose pools hold the same [1 lsl 17] seeded bits, with
   main mode done and one quick-mode SA pair installed. *)
let tunnel ~seed =
  let rng = Rng.create (Int64.of_int seed) in
  let bits = Rng.bits rng (1 lsl 17) in
  let gw ~name ~wan ~lan bits =
    Gateway.create ~name ~wan ~lan ~lan_prefix:16 ~psk:(Bytes.of_string "layered-bench")
      ~key_pool:(Key_pool.create ~initial:bits ()) ~seed:(Rng.int64 rng)
  in
  let a = gw ~name:"gwA" ~wan:"192.1.99.34" ~lan:"10.1.0.0" (Bitstring.copy bits) in
  let b = gw ~name:"gwB" ~wan:"192.1.99.35" ~lan:"10.2.0.0" bits in
  Gateway.add_protect_policy a ~lan_remote:"10.2.0.0" ~remote_prefix:16
    (protect (Gateway.wan_addr b));
  Gateway.add_protect_policy b ~lan_remote:"10.1.0.0" ~remote_prefix:16
    (protect (Gateway.wan_addr a));
  (match Ike.phase1 ~initiator:(Gateway.ike a) ~responder:(Gateway.ike b) ~now:0.0 () with
  | Ok () -> ()
  | Error e -> Format.kasprintf failwith "phase 1: %a" Ike.pp_error e);
  match
    Ike.phase2 ~initiator:(Gateway.ike a) ~responder:(Gateway.ike b) ~now:0.0
      ~protect:(protect (Gateway.wan_addr b)) ()
  with
  | Ok (ia, rb) ->
      Gateway.install_sas a ~peer:(Gateway.wan_addr b) ~outbound:ia.Ike.outbound
        ~inbound:ia.Ike.inbound;
      Gateway.install_sas b ~peer:(Gateway.wan_addr a) ~outbound:rb.Ike.outbound
        ~inbound:rb.Ike.inbound;
      (a, b)
  | Error e -> Format.kasprintf failwith "phase 2: %a" Ike.pp_error e

(* ---- esp_batch: the batched dataplane, three legs ----------------- *)

let batch = 64

type leg = {
  label : string;
  payload_len : int;
  traffic : Traffic.t;
  src : Pktbuf.buf array;
  mid : Pktbuf.buf array;
  out : Pktbuf.buf array;
  mutable wall : float;
  mutable packets : int;
  mutable intact : int;  (** decapsulated byte-equal to the source *)
}

(* Per-packet cost (64 B), per-byte cost (1 KiB) and the flow-memo
   miss path (64 B over 32 flows). *)
let leg_specs = [ ("64B", 64, 1); ("1KiB", 1024, 1); ("32flow", 64, 32) ]

let make_leg ~seed (label, payload_len, flows) =
  let pool = Pktbuf.create (3 * batch) in
  let bufs () = Array.init batch (fun _ -> Pktbuf.alloc pool) in
  {
    label;
    payload_len;
    traffic =
      Traffic.create ~seed:(Int64.of_int seed) ~src_net:"10.1.5.0" ~dst_net:"10.2.9.0"
        ~flows ~payload_len ();
    src = bufs ();
    mid = bufs ();
    out = bufs ();
    wall = 0.0;
    packets = 0;
    intact = 0;
  }

let same_bytes (x : Pktbuf.buf) (y : Pktbuf.buf) =
  x.Pktbuf.len = y.Pktbuf.len
  &&
  let rec go i =
    i >= x.Pktbuf.len || (Bytes.get x.Pktbuf.data i = Bytes.get y.Pktbuf.data i && go (i + 1))
  in
  go 0

(* One 64-packet batch through A's outbound and B's inbound dataplane;
   returns the wall time of the two gateway calls. *)
let run_leg (a, b) leg =
  Array.iter (fun buf -> ignore (Traffic.next_into leg.traffic buf)) leg.src;
  let (), dt =
    Meter.time (fun () ->
        ignore (Gateway.outbound_batch a ~now:0.0 ~src:leg.src ~dst:leg.mid ~count:batch);
        ignore (Gateway.inbound_batch b ~now:0.0 ~src:leg.mid ~dst:leg.out ~count:batch))
  in
  leg.wall <- leg.wall +. dt;
  leg.packets <- leg.packets + batch;
  Array.iteri (fun i s -> if same_bytes s leg.out.(i) then leg.intact <- leg.intact + 1) leg.src;
  dt

let esp_batch p =
  let (gws, legs), setup =
    set_up p (fun () -> (tunnel ~seed:p.seed, List.map (make_leg ~seed:p.seed) leg_specs))
  in
  let slice () = List.fold_left (fun acc leg -> acc +. run_leg gws leg) 0.0 legs in
  if not p.smoke then ignore (Meter.timed_slices ~seconds:0.5 slice);
  List.iter (fun l -> l.wall <- 0.0; l.packets <- 0; l.intact <- 0) legs;
  let slices = window p setup slice in
  let leg label = List.find (fun l -> l.label = label) legs in
  let pps l = float_of_int l.packets /. l.wall in
  let sent = List.fold_left (fun acc l -> acc + l.packets) 0 legs in
  let intact = List.fold_left (fun acc l -> acc + l.intact) 0 legs in
  let payload = List.fold_left (fun acc l -> acc + (l.intact * l.payload_len * 8)) 0 legs in
  let setup_s, peak_heap_mb = finish setup in
  {
    setup_s;
    peak_heap_mb;
    slices;
    useful_bits = float_of_int payload;
    attempted = sent;
    failed = sent - intact;
    info =
      [
        ("pps", pps (leg "64B"), "pkt/s");
        ("pps_multiflow", pps (leg "32flow"), "pkt/s");
        ("goodput_mbps", pps (leg "1KiB") *. 1024.0 *. 8.0 /. 1e6, "Mbit/s");
        ("failed_ratio", ratio (sent - intact) sent, "ratio");
      ];
    checks = [ ("every decapsulated packet equals its source", intact = sent) ];
  }

(* ---- vpn_rekey: scalar tunnel traffic across 1 s SA lifetimes ----- *)

let vpn_config =
  {
    Vpn.default_config with
    Vpn.lifetime = { Sa.seconds = 1.0; kilobytes = max_int / 2048 };
    key_source = Vpn.Modeled 20_000.0;
    packet_bytes = 512;
    packets_per_second = 20_000.0;
  }

let vpn_step_s = 0.01

let vpn_rekey p =
  (* Set-up is bring-up: until the first packet crosses the tunnel. *)
  let vpn, setup =
    set_up p (fun () ->
        let v = Vpn.create ~seed:(Int64.of_int p.seed) vpn_config in
        while (Vpn.stats v).Vpn.delivered = 0 && (Vpn.stats v).Vpn.elapsed_s < 5.0 do
          Vpn.step v ~dt:vpn_step_s
        done;
        v)
  in
  if not p.smoke then
    while (Vpn.stats vpn).Vpn.elapsed_s < 2.0 do
      Vpn.step vpn ~dt:vpn_step_s
    done;
  let s0 = Vpn.stats vpn in
  let slices = window p setup (fun () -> snd (Meter.time (fun () -> Vpn.step vpn ~dt:vpn_step_s))) in
  let s1 = Vpn.stats vpn in
  let sent = s1.Vpn.attempted - s0.Vpn.attempted in
  let delivered = s1.Vpn.delivered - s0.Vpn.delivered in
  let sim_s = s1.Vpn.elapsed_s -. s0.Vpn.elapsed_s in
  let rekeys = s1.Vpn.rekeys - s0.Vpn.rekeys in
  let wall = Meter.sum slices in
  let setup_s, peak_heap_mb = finish setup in
  {
    setup_s;
    peak_heap_mb;
    slices;
    useful_bits = float_of_int (delivered * vpn_config.Vpn.packet_bytes * 8);
    attempted = sent;
    failed = sent - delivered;
    info =
      [
        ("pps", float_of_int delivered /. wall, "pkt/s");
        ("rekeys", float_of_int rekeys, "count");
        ("wall_per_sim_s", wall /. sim_s, "s/s");
        ("failed_ratio", ratio (sent - delivered) sent, "ratio");
      ];
    checks =
      [
        ("vpn blackholed = 0", s1.Vpn.blackholed = 0);
        (* one rekey per SA lifetime, less the one straddling the window *)
        ( "a rekey every SA lifetime",
          rekeys >= int_of_float (sim_s /. vpn_config.Vpn.lifetime.Sa.seconds) - 1 );
      ];
  }

let all =
  [
    ("distill", distill ~eve:false);
    ("distill_eve", distill ~eve:true);
    ("kms_metro", kms_metro);
    ("esp_batch", esp_batch);
    ("vpn_rekey", vpn_rekey);
  ]
