(* The three simulation workloads: batch protocol runs at a fixed size,
   timed from outside through the libraries' public functions.

   One run of a workload is:
   - set-up, [setups] times from scratch (topology, interference,
     traffic, configure); setup_s is the median;
   - repetitions of one deterministic protocol run of [frames] frames
     from a fresh channel and protocol, for the run's seconds;
     slots_per_s is slots over the median repetition's frame time.

   The end-to-end metrics are CPU times of this process (Out.cpu),
   scaled by the host-speed reference taken right before each
   repetition or sample (Host.scale); the per-layer split of the traced
   run is in wall time, which is cheaper to read per call, and its
   closure is checked against wall time too.

   Every repetition must reproduce the first one's fingerprint, every
   set-up the first one's sizes, and the first repetition must pass the
   workload's plausibility floors; a mismatch is a failed operation.
   The traced run interleaves plain repetitions with instrumented ones
   (the static algorithm wrapped in the config, the injection callback
   and each frame timed) and reports the layer split plus how much the
   instruments cost. *)

module Rng = Dps_prelude.Rng
module Graph = Dps_network.Graph
module Path = Dps_network.Path
module Routing = Dps_network.Routing
module Topology = Dps_network.Topology
module Measure = Dps_interference.Measure
module Tiled = Dps_interference.Tiled
module Conflict_graph = Dps_interference.Conflict_graph
module Params = Dps_sinr.Params
module Power = Dps_sinr.Power
module Physics = Dps_sinr.Physics
module Sinr_measure = Dps_sinr.Sinr_measure
module Oracle = Dps_sim.Oracle
module Channel = Dps_sim.Channel
module Trace = Dps_sim.Trace
module Algorithm = Dps_static.Algorithm
module Stochastic = Dps_injection.Stochastic
module Protocol = Dps_core.Protocol

(* Set-up stage times, and the sizes every set-up must reproduce. *)
type stages = {
  nnz : int;
  frame : int;
  network_s : float;
  interference_s : float;
  calibrate_s : float;
  configure_s : float;
}

type setup = {
  m : int;
  oracle : Oracle.t;
  inj : Stochastic.t;
  config : Protocol.config;
  bytes : int;  (* interference representation, as built *)
  stages : stages;
}

(* What a correct repetition must at least achieve, whatever the seed:
   a delivered share of the injected packets, a cap on the packets
   still in flight at its end, and a served share of the requests the
   static algorithm was given. Set from the seed code's runs with a
   margin; a static algorithm that serves less, or a protocol that
   stops delivering, fails them. *)
type floors = {
  min_delivered : float;  (* delivered / injected *)
  max_in_flight : int;
  min_served : float;  (* served / requests *)
}

type workload = {
  name : string;
  frames : int;  (* frames per repetition *)
  setups : int;  (* set-ups per run; setup_s is their median *)
  floors : floors;
  build : unit -> setup;
}

(* Dense CSR: one int column index and one float weight per nonzero,
   plus the row pointers. *)
let csr_bytes measure =
  (Measure.nnz measure * 16) + ((Measure.size measure + 1) * 8)

(* [flows] generators, each a routable path of at most [max_hops] hops,
   calibrated so the offered load is [target]. Random pairs first; on
   lines and large grids they rarely connect within [max_hops], so fall
   back to nearby destinations. *)
let short_flows rng g routing ~flows ~max_hops =
  let n = Graph.node_count g in
  let gens = ref [] in
  let count = ref 0 in
  let try_pair src dst =
    if src <> dst then
      match Routing.path routing ~src ~dst with
      | Some p when Path.length p <= max_hops ->
        gens := [ (p, 0.003) ] :: !gens;
        incr count
      | _ -> ()
  in
  let tries = ref 0 in
  while !count < flows && !tries < 400 * flows do
    incr tries;
    try_pair (Rng.int rng n) (Rng.int rng n)
  done;
  let tries = ref 0 in
  while !count < flows && !tries < 400 * flows do
    incr tries;
    let src = Rng.int rng (n - 1) in
    try_pair src (Int.min (n - 1) (src + 1 + Rng.int rng max_hops))
  done;
  if !count < flows then failwith "short_flows: too few routable flows";
  Stochastic.make !gens

let single_link_flows rng g ~flows =
  let m = Graph.link_count g in
  Stochastic.make
    (List.init flows (fun _ -> [ (Path.of_links g [ Rng.int rng m ], 0.003) ]))

(* Time the four set-up stages; [net] returns the graph and whatever the
   traffic stage needs, [interference] the measure and its oracle. *)
let staged ~instance ~net ~interference ~traffic ~algorithm ~lambda ~max_hops =
  let rng = Rng.create ~seed:instance () in
  let (g, routing), network_s = Out.timed (fun () -> net rng) in
  let (measure, oracle, bytes), interference_s =
    Out.timed (fun () -> interference g)
  in
  let inj, calibrate_s =
    Out.timed (fun () ->
        Stochastic.calibrate (traffic rng g routing) measure ~target:lambda)
  in
  let config, configure_s =
    Out.timed (fun () ->
        Protocol.configure ~algorithm:(algorithm g) ~measure ~lambda ~max_hops
          ())
  in
  { m = Measure.size measure;
    oracle;
    inj;
    config;
    bytes;
    stages =
      { nnz = Measure.nnz measure;
        frame = config.Protocol.frame;
        network_s;
        interference_s;
        calibrate_s;
        configure_s } }

let sinr_sparse =
  let m = 32768 and epsilon = 0.1 in
  { name = "sinr-sparse";
    frames = 16;
    setups = 3;
    (* seed code, seeds 1-5: delivered 0.935-0.939, in flight
       3839-4071, served 1 *)
    floors = { min_delivered = 0.9; max_in_flight = 6000; min_served = 0.99 };
    build =
      (fun () ->
        staged ~instance:7301 ~lambda:0.05 ~max_hops:1
            ~net:(fun rng ->
              let side = 2. *. sqrt (float_of_int m) in
              (Topology.link_cloud rng ~links:m ~side ~length:1., None))
            ~interference:(fun g ->
              let p =
                Physics.make
                  (Params.make ~alpha:4. ~beta:1. ~noise:1e-9 ())
                  (Power.linear 2.) g
              in
              let tiled = Sinr_measure.linear_power_tiled ~jobs:1 ~epsilon p in
              (Tiled.as_measure ~jobs:1 tiled, Oracle.Sinr p, Tiled.bytes tiled))
            ~traffic:(fun rng g _ -> single_link_flows rng g ~flows:64)
            ~algorithm:(fun _ -> Dps_static.Delay_select.make ~c:4. ())) }

let conflict_dense =
  let side = 33 in
  { name = "conflict-dense";
    frames = 24;
    setups = 3;
    (* seed code, seeds 1-5: delivered 0.767-0.779, in flight
       1379-1457, served 1 *)
    floors = { min_delivered = 0.7; max_in_flight = 2200; min_served = 0.99 };
    build =
      (fun () ->
        staged ~instance:5502 ~lambda:0.04 ~max_hops:8
          ~net:(fun _ ->
            let g = Topology.grid ~rows:side ~cols:side ~spacing:10. in
            (g, Some (Routing.make g)))
          ~interference:(fun g ->
            let cg = Conflict_graph.distance2 g in
            let order = Conflict_graph.degeneracy_order cg in
            let measure = Conflict_graph.to_measure cg ~order in
            (measure, Oracle.Conflict cg, csr_bytes measure))
          ~traffic:(fun rng g routing ->
            short_flows rng g (Option.get routing) ~flows:64 ~max_hops:8)
          ~algorithm:(fun g ->
            Dps_static.Measure_greedy.make ~priority:(Graph.link_length g) ()))
  }

let wireline_line =
  let m = 4096 in
  { name = "wireline-line";
    frames = 128;
    setups = 5;
    (* seed code, seeds 1-5: delivered 0.963-0.964, in flight
       8826-8964, served 1 *)
    floors = { min_delivered = 0.93; max_in_flight = 13000; min_served = 0.99 };
    build =
      (fun () ->
        staged ~instance:5503 ~lambda:0.3 ~max_hops:8
          ~net:(fun _ ->
            let g = Topology.line ~nodes:((m / 2) + 1) ~spacing:10. in
            (g, Some (Routing.make g)))
          ~interference:(fun g ->
            let measure = Measure.identity (Graph.link_count g) in
            (measure, Oracle.Wireline, csr_bytes measure))
          ~traffic:(fun rng g routing ->
            short_flows rng g (Option.get routing) ~flows:64 ~max_hops:8)
          ~algorithm:(fun _ -> Dps_static.Oneshot.algorithm)) }

let all = [ sinr_sparse; conflict_dense; wireline_line ]

(* What must repeat exactly across repetitions of one run. *)
type fingerprint = {
  slots : int;
  injected : int;
  delivered : int;
  phase1_failures : int;
  in_flight : int;
}

let fingerprint channel protocol =
  let r = Protocol.report protocol in
  { slots = Trace.slots (Channel.trace channel);
    injected = r.Protocol.injected;
    delivered = r.Protocol.delivered;
    phase1_failures = r.Protocol.failed_events;
    in_flight = Protocol.in_flight protocol }

let show f =
  Printf.sprintf "slots=%d injected=%d delivered=%d phase1_failures=%d in_flight=%d"
    f.slots f.injected f.delivered f.phase1_failures f.in_flight

(* The instance (geometry, flows) is fixed per workload, so runs with
   different seeds measure the same network under the same offered
   load; the seed drives the traffic realization and every random
   choice of the protocol, the channel and the static algorithm. *)
let protocol_seed seed = (seed * 7919) + 17

(* Per-repetition CPU times of the user-visible operations. *)
type samples = {
  mutable steps : float list;  (* Protocol.run_frame *)
  mutable injects : float list;  (* the frame's injection block *)
  mutable frames_s : float;  (* sum of [steps] *)
  mutable latency_read : float;  (* p50/p90/p99 of the latency histogram *)
  mutable verdict : float;  (* one Stability.assess of the queue series *)
}

let scaled k sm =
  { steps = List.map (( *. ) k) sm.steps;
    injects = List.map (( *. ) k) sm.injects;
    frames_s = k *. sm.frames_s;
    latency_read = k *. sm.latency_read;
    verdict = k *. sm.verdict }

(* Layer accumulators of the traced repetitions, in wall time. *)
type layers = {
  mutable phase1_s : float;
  mutable cleanup_s : float;
  mutable draw_s : float;
  mutable frame_s : float;
  mutable read_s : float;
  mutable rep_s : float;
  mutable reps : int;
  mutable requests : int;
  mutable served : int;
}

let new_layers () =
  { phase1_s = 0.; cleanup_s = 0.; draw_s = 0.; frame_s = 0.; read_s = 0.;
    rep_s = 0.; reps = 0; requests = 0; served = 0 }

(* CPU time of one Channel.create + Protocol.create, which bring a
   configured run back to a runnable state. One creation takes well
   under a millisecond on the smaller workloads, and where it lands in
   the major GC's cycle moves it by half, so each sample averages as
   many as take 50 ms. They run after the repetitions, from a collected
   heap: their garbage would slow the frames of later repetitions. *)
let create_samples s =
  Gc.full_major ();
  List.init 15 (fun _ ->
      let k = Host.scale () in
      k
      *. Out.per_call ~min_s:0.05 (fun () ->
          let channel =
            Channel.create ~rng:(Rng.create ~seed:0 ()) ~oracle:s.oracle ~m:s.m ()
          in
          Protocol.create s.config ~channel))

(* One repetition: a fresh channel and protocol from the protocol seed,
   [frames] calls of Protocol.run_frame fed from the stochastic source
   exactly as Driver.run_protocol feeds it, then the reads dps_run's
   report makes: the latency quantiles and the stability verdict.

   Per frame the plain repetition reads the CPU clock four times: around
   the frame, and at the first and the last slot of the injection block
   (run_frame draws a frame's arrivals up front, slot by slot, before
   phase 1). With [layers] it also times, in wall time, every draw and
   every call of the static algorithm, which it wraps in the config,
   telling phase 1 from clean-up by their budgets. *)
let rep ?layers s ~frames ~seed () =
  let cfg = s.config in
  let config =
    match layers with
    | None -> cfg
    | Some acc ->
      let alg = cfg.Protocol.algorithm in
      let run ~channel ~rng ~measure ~requests ~budget =
        let t0 = Out.now () in
        let o = alg.Algorithm.run ~channel ~rng ~measure ~requests ~budget in
        let dt = Out.now () -. t0 in
        if budget = cfg.Protocol.phase1_budget then
          acc.phase1_s <- acc.phase1_s +. dt
        else acc.cleanup_s <- acc.cleanup_s +. dt;
        acc.requests <- acc.requests + Array.length requests;
        acc.served <- acc.served + Algorithm.served_count o;
        o
      in
      { cfg with Protocol.algorithm = { alg with Algorithm.run } }
  in
  let t_start = Out.now () in
  let rng = Rng.create ~seed:(protocol_seed seed) () in
  let channel = Channel.create ~rng:(Rng.split rng) ~oracle:s.oracle ~m:s.m () in
  let protocol = Protocol.create config ~channel in
  let t_frame = cfg.Protocol.frame in
  let first = ref 0 and inj_start = ref 0. and inj_end = ref 0. in
  let draw slot =
    match layers with
    | None -> Stochastic.draw s.inj rng ~slot
    | Some acc ->
      let t0 = Out.now () in
      let paths = Stochastic.draw s.inj rng ~slot in
      acc.draw_s <- acc.draw_s +. (Out.now () -. t0);
      paths
  in
  let inject_slot slot =
    if slot = !first then inj_start := Out.cpu ();
    let batch = List.map (fun p -> (p, 0)) (draw slot) in
    if slot = !first + t_frame - 1 then inj_end := Out.cpu ();
    batch
  in
  let sm =
    { steps = []; injects = []; frames_s = 0.; latency_read = 0.; verdict = 0. }
  in
  let wall_frames = ref 0. in
  for _ = 1 to frames do
    first := Channel.now channel;
    let w0 = Out.now () and t0 = Out.cpu () in
    Protocol.run_frame protocol rng ~inject_slot;
    let dt = Out.cpu () -. t0 in
    wall_frames := !wall_frames +. (Out.now () -. w0);
    sm.steps <- dt :: sm.steps;
    sm.frames_s <- sm.frames_s +. dt;
    sm.injects <- (!inj_end -. !inj_start) :: sm.injects
  done;
  let w1 = Out.now () in
  let r = Protocol.report protocol in
  sm.latency_read <-
    snd
      (Out.timed_cpu (fun () ->
           List.map (Dps_prelude.Histogram.quantile r.Protocol.latency) [ 0.5; 0.9; 0.99 ]));
  sm.verdict <-
    Out.per_call ~min_s:0.002 (fun () -> Dps_core.Stability.assess r.Protocol.in_system);
  (match layers with
  | None -> ()
  | Some acc ->
    let t_end = Out.now () in
    acc.frame_s <- acc.frame_s +. !wall_frames;
    acc.read_s <- acc.read_s +. (t_end -. w1);
    acc.rep_s <- acc.rep_s +. (t_end -. t_start);
    acc.reps <- acc.reps + 1);
  (fingerprint channel protocol, channel, sm)

let run w ~seed ~seconds ~trace ~flambda =
  let failed = ref 0 and attempted = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr failed;
        Out.note "%s: FAILED: %s" w.name msg)
      fmt
  in
  (* --- set-up, several times from scratch *)
  (* Only the last set-up stays alive, so peak RSS is one set-up's
     worth plus the run. *)
  let last = ref None and setups = ref [] in
  for _ = 1 to w.setups do
    last := None;
    Gc.full_major ();
    incr attempted;
    let k = Host.scale () in
    let s, dt = Out.timed_cpu w.build in
    let dt = k *. dt in
    last := Some s;
    setups := (s.stages, dt) :: !setups
  done;
  let s = Option.get !last in
  List.iter
    (fun (st, _) ->
      if st.nnz <> s.stages.nnz || st.frame <> s.stages.frame then
        fail "set-ups disagree (nnz %d vs %d)" st.nnz s.stages.nnz)
    !setups;
  let med f = Out.median (List.map f !setups) in
  Host.print ~workload:w.name ~flambda ~working_set:s.bytes;
  Out.note "%s: m=%d nnz=%d bytes=%d frame=%d phase1_budget=%d cleanup_budget=%d"
    w.name s.m s.stages.nnz s.bytes s.config.Protocol.frame
    s.config.Protocol.phase1_budget s.config.Protocol.cleanup_budget;
  (* --- repetitions *)
  let reference = ref None in
  let check (fp, _, _) =
    incr attempted;
    (match !reference with
    | None -> reference := Some fp
    | Some r -> if fp <> r then fail "fingerprint %s, expected %s" (show fp) (show r));
    if fp.injected <> fp.delivered + fp.in_flight then
      fail "injected %d <> delivered %d + in flight %d" fp.injected fp.delivered
        fp.in_flight
  in
  (* One untimed repetition pages code and data in, sets the reference
     fingerprint, and is held to the workload's floors. It counts the
     static algorithm's requests through the same wrapper the traced
     repetitions use; its fingerprint must match the plain ones. *)
  let counts = new_layers () in
  let ((fp0, channel0, _) as first) = rep ~layers:counts s ~frames:w.frames ~seed () in
  check first;
  let delivered = float_of_int fp0.delivered /. float_of_int (Int.max 1 fp0.injected) in
  let served = float_of_int counts.served /. float_of_int (Int.max 1 counts.requests) in
  incr attempted;
  if delivered < w.floors.min_delivered || fp0.in_flight > w.floors.max_in_flight
     || served < w.floors.min_served
  then
    fail "implausible run: delivered %.4f of injected (floor %.4f), in flight %d (cap %d), served %.4f of requests (floor %.4f)"
      delivered w.floors.min_delivered fp0.in_flight w.floors.max_in_flight served
      w.floors.min_served;
  let acc = new_layers () in
  let plain = ref [] and traced = ref [] in
  let minor_words = ref 0. and plain_slots = ref 0 in
  let deadline = Out.now () +. seconds in
  let rec loop i =
    let enough =
      List.length !plain >= 3 && ((not trace) || List.length !traced >= 3)
    in
    if Out.now () < deadline || not enough then begin
      (* Each repetition starts from a collected heap, as a fresh
         process would: otherwise the garbage of the repetitions before
         it, and with it the peak RSS and the major GC's share of the
         frames, depends on how many came before. *)
      Gc.full_major ();
      let k = Host.scale () in
      if trace && i mod 2 = 1 then begin
        let ((_, _, sm) as r) = rep ~layers:acc s ~frames:w.frames ~seed () in
        check r;
        traced := scaled k sm :: !traced
      end
      else begin
        let w0 = Gc.minor_words () in
        let ((fp, _, sm) as r) = rep s ~frames:w.frames ~seed () in
        minor_words := !minor_words +. (Gc.minor_words () -. w0);
        plain_slots := !plain_slots + fp.slots;
        check r;
        plain := scaled k sm :: !plain
      end;
      loop (i + 1)
    end
  in
  loop 0;
  let slots = float_of_int fp0.slots in
  let rep_time l = Out.median (List.map (fun sm -> sm.frames_s) l) in
  let sps = slots /. rep_time !plain in
  Out.note "%s: %s; delivered %.4f, served %.4f; %d plain repetitions, median %.4f s CPU scaled (reference median %.3f ms)"
    w.name (show fp0) delivered served (List.length !plain) (rep_time !plain)
    (1000. *. Out.median !Host.references);
  let all f = List.concat_map f !plain in
  let ms l q = 1000. *. Out.quantile l q in
  let steps = all (fun sm -> sm.steps) in
  let reads = List.map (fun sm -> sm.latency_read) !plain in
  let injects = all (fun sm -> sm.injects) in
  Out.add "inject_p99_ms" (ms injects 0.99);
  Out.add "step_p99_ms" (ms steps 0.99);
  Out.add "read_p99_ms" (ms reads 0.99);
  if not trace then begin
    Out.add "slots_per_s" sps;
    Out.add "setup_s" (med snd);
    Out.add "peak_rss_mb" (Out.peak_rss_mb "self");
    let per_rep f = Out.median (List.map f !plain) in
    (* Per repetition, the mean injection block of its frames: a minor
       collection lands in some blocks and not others, so the median
       over single blocks jumps with where the collections fall. *)
    let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
    Out.add "inject_p50_ms" (1000. *. per_rep (fun sm -> mean sm.injects));
    Out.add "step_p50_ms" (ms steps 0.5);
    Out.add "read_p50_ms" (1000. *. per_rep (fun sm -> sm.latency_read));
    Out.add "cmds_per_s" (1. /. per_rep (fun sm -> sm.verdict));
    Out.add "restore_s" (Out.median (create_samples s))
  end
  else begin
    let traced_sps = slots /. rep_time !traced in
    let reps = float_of_int acc.reps in
    let per_rep x = x /. reps in
    let static_s = acc.phase1_s +. acc.cleanup_s in
    let self_s = acc.frame_s -. acc.draw_s -. static_s in
    let closure = (acc.frame_s +. acc.read_s) /. acc.rep_s in
    if Float.abs (closure -. 1.) > 0.1 then
      Out.note "%s: FLAG: trace closure %.3f is off by more than 10%%" w.name
        closure;
    let frame_times = List.concat_map (fun sm -> sm.steps) !traced in
    let tr = Channel.trace channel0 in
    let attempts = Trace.attempts tr and successes = Trace.successes tr in
    let count name v = Out.add name (float_of_int v) in
    let ratio a b = if b = 0 then 1. else float_of_int a /. float_of_int b in
    Out.add "network.build_s" (med (fun (s, _) -> s.network_s));
    Out.add "interference.build_s" (med (fun (s, _) -> s.interference_s));
    count "interference.nnz" s.stages.nnz;
    Out.add "interference.bytes_computed" (float_of_int s.bytes);
    let l2 = Lazy.force Host.l2 in
    Out.add "interference.bytes_per_l2"
      (if l2 = 0 then nan else float_of_int s.bytes /. float_of_int l2);
    Out.add "injection.calibrate_s" (med (fun (s, _) -> s.calibrate_s));
    Out.add "protocol.configure_s" (med (fun (s, _) -> s.configure_s));
    Out.add "static.phase1_s" (per_rep acc.phase1_s);
    Out.add "static.cleanup_s" (per_rep acc.cleanup_s);
    Out.add "static.requests" (float_of_int acc.requests /. reps);
    Out.add "static.served" (float_of_int acc.served /. reps);
    Out.add "static.served_ratio" (ratio acc.served acc.requests);
    Out.add "injection.draw_s" (per_rep acc.draw_s);
    Out.add "protocol.self_s" (per_rep self_s);
    Out.add "protocol.frame_p50_ms" (1000. *. Out.quantile frame_times 0.5);
    Out.add "protocol.frame_p99_ms" (1000. *. Out.quantile frame_times 0.99);
    count "channel.busy_slots" (Trace.busy_slots tr);
    count "channel.attempts" attempts;
    count "channel.successes" successes;
    Out.add "channel.success_ratio" (ratio successes attempts);
    count "protocol.injected" fp0.injected;
    count "protocol.delivered" fp0.delivered;
    count "protocol.phase1_failures" fp0.phase1_failures;
    Out.add "gc.minor_words_per_slot"
      (!minor_words /. float_of_int !plain_slots);
    Out.add "host.reference_ms" (1000. *. Out.median !Host.references);
    Out.add "trace.overhead" ((sps /. traced_sps) -. 1.);
    Out.add "trace.closure" closure
  end;
  (!attempted, !failed)
