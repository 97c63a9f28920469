module Rng = Dps_prelude.Rng
module Channel = Dps_sim.Channel
module Measure = Dps_interference.Measure
module Stochastic = Dps_injection.Stochastic
module Adversary = Dps_injection.Adversary
module Telemetry = Dps_telemetry.Telemetry
module Event = Dps_telemetry.Event
module Histogram = Dps_prelude.Histogram
module Memory_sink = Dps_telemetry.Memory_sink
module Par = Dps_par.Par
module Plan = Dps_faults.Plan
module Injector = Dps_faults.Injector

type source =
  | Stochastic of Stochastic.t
  | Adversarial of Adversary.t
  | Silent

let inject_fn source ~config ~rng =
  match source with
  | Silent -> fun _slot -> []
  | Stochastic inj ->
    fun slot ->
      List.map (fun path -> (path, 0)) (Stochastic.draw inj rng ~slot)
  | Adversarial adv ->
    let delta_max =
      Adversarial.delta_max ~epsilon:config.Protocol.epsilon
        ~max_hops:config.Protocol.max_hops ~window:(Adversary.window adv)
        ~frame:config.Protocol.frame
    in
    fun slot -> Adversarial.inject_slot adv rng ~delta_max slot

exception Interrupted

let run_protocol_traced ~telemetry ~metrics_every ~protocol ~source ~frames
    ~rng =
  if metrics_every < 0 then invalid_arg "Driver: metrics_every < 0";
  let inject_slot =
    inject_fn source ~config:(Protocol.config protocol) ~rng
  in
  let recording = Telemetry.enabled telemetry in
  let start_frame = Protocol.frame_index protocol in
  (* The one snapshot emission point: periodic snapshots, the end-of-run
     snapshot and the interrupt path all go through it, so checkpoint and
     status serialization downstream have a single source of truth for
     what a snapshot is. *)
  let emit_snapshot () =
    if recording then
      Telemetry.emit_metrics telemetry ~frame:(Protocol.frame_index protocol)
  in
  let body () =
    (try
       for i = 1 to frames do
         Protocol.run_frame protocol rng ~inject_slot;
         (* Periodic snapshot so long runs are observable while they
            execute; the final snapshot below covers the last partial
            period. *)
         if metrics_every > 0 && i mod metrics_every = 0 && i < frames then
           emit_snapshot ()
       done
     with Interrupted ->
       (* A signal converted to {!Interrupted} by the CLI front ends:
          record where the run stood before the exception unwinds to the
          flush below, so an interrupted trace ends with a coherent
          final snapshot instead of dropping the tail period. *)
       emit_snapshot ();
       raise Interrupted);
    let report = Protocol.report protocol in
    if recording then begin
      let end_frame = Protocol.frame_index protocol in
      let t = (Protocol.config protocol).Protocol.frame in
      emit_snapshot ();
      Telemetry.span telemetry ~name:"driver.run" ~frame:start_frame
        ~slot_start:(start_frame * t) ~slot_end:(end_frame * t)
        [ ("frames", Event.Int frames);
          ("injected", Event.Int report.Protocol.injected);
          ("delivered", Event.Int report.Protocol.delivered);
          ("failed_events", Event.Int report.Protocol.failed_events);
          ("max_queue", Event.Int report.Protocol.max_queue) ]
    end;
    report
  in
  (* Flush even when a frame raises mid-run: the events emitted so far are
     exactly what post-mortem debugging needs, so they must reach the
     sinks before the exception propagates. *)
  if recording then
    Fun.protect ~finally:(fun () -> Telemetry.flush telemetry) body
  else body ()

let run_protocol ~protocol ~source ~frames ~rng =
  run_protocol_traced ~telemetry:Telemetry.disabled ~metrics_every:0 ~protocol
    ~source ~frames ~rng

let run_traced ?packet_trace ?jobs ~telemetry ~metrics_every ~config ~oracle
    ~source ~frames ~rng () =
  let channel =
    Channel.create ~rng:(Rng.split rng) ~telemetry ?jobs ~oracle
      ~m:(Measure.size config.Protocol.measure) ()
  in
  let protocol =
    Protocol.create ~telemetry ?packet_trace ?jobs config ~channel
  in
  run_protocol_traced ~telemetry ~metrics_every ~protocol ~source ~frames ~rng

let run ~config ~oracle ~source ~frames ~rng =
  run_traced ~telemetry:Telemetry.disabled ~metrics_every:0 ~config ~oracle
    ~source ~frames ~rng ()

(* Seed-replicated runs. Each replica is self-contained — its own rng
   from its seed, its own channel/protocol, its own private Memory_sink
   when the caller traces — so replicas may execute on any domain in any
   order; everything order-sensitive (replaying the buffered streams,
   merging the latency histograms, the aggregate span) happens here on
   the calling domain, in seed order. That is the whole determinism
   argument: for any [jobs], the same per-seed computations feed the
   same seed-ordered merge. *)
let run_many ?(jobs = 1) ?(telemetry = Telemetry.disabled)
    ?(metrics_every = 0) ~config ~oracle ~source ~seeds ~frames () =
  if jobs < 1 then invalid_arg "Driver.run_many: jobs must be >= 1";
  if metrics_every < 0 then invalid_arg "Driver: metrics_every < 0";
  let recording = Telemetry.enabled telemetry in
  (* The measure inside [config] is shared by every replica and builds
     its CSC index lazily (a mutable field); force it before the fan-out
     so worker domains never race on the initialisation. *)
  if jobs > 1 then Measure.ensure_transpose config.Protocol.measure;
  let one seed =
    let rng = Rng.create ~seed () in
    if not recording then
      (run ~config ~oracle ~source ~frames ~rng, None)
    else begin
      let recorder = Memory_sink.create () in
      let tel = Telemetry.make ~sinks:[ Memory_sink.sink recorder ] () in
      let report =
        run_traced ~telemetry:tel ~metrics_every ~config ~oracle ~source
          ~frames ~rng ()
      in
      (report, Some recorder)
    end
  in
  let outcomes = Par.map ~jobs one seeds in
  let reports = List.map fst outcomes in
  if recording && seeds <> [] then begin
    let tracer = Telemetry.tracer telemetry in
    List.iteri
      (fun index (seed, ((report : Protocol.report), priv)) ->
        Telemetry.point telemetry ~name:"driver.replica" ~frame:0 ~slot:0
          [ ("index", Event.Int index);
            ("seed", Event.Int seed);
            ("injected", Event.Int report.Protocol.injected);
            ("delivered", Event.Int report.Protocol.delivered) ];
        match priv with
        | Some recorder -> Memory_sink.replay recorder tracer
        | None -> ())
      (List.combine seeds outcomes);
    (* One aggregate over all replicas: their latency histograms merged
       by count addition, left-folded in seed order. *)
    let latency =
      List.fold_left
        (fun acc (r : Protocol.report) -> Histogram.merge acc r.Protocol.latency)
        (Histogram.create ()) reports
    in
    let total f = List.fold_left (fun acc r -> acc + f r) 0 reports in
    let latency_attrs =
      ("latency_count", Event.Int (Histogram.count latency))
      ::
      (if Histogram.count latency = 0 then []
       else
         [ ("latency_p50", Event.Float (Histogram.quantile latency 0.5));
           ("latency_p99", Event.Float (Histogram.quantile latency 0.99)) ])
    in
    Telemetry.span telemetry ~name:"driver.run_many" ~frame:0 ~slot_start:0
      ~slot_end:(frames * config.Protocol.frame)
      ([ ("replicas", Event.Int (List.length seeds));
         ("frames", Event.Int frames);
         ("injected", Event.Int (total (fun r -> r.Protocol.injected)));
         ("delivered", Event.Int (total (fun r -> r.Protocol.delivered)));
         ("failed_events", Event.Int (total (fun r -> r.Protocol.failed_events)));
         ("max_queue",
          Event.Int
            (List.fold_left
               (fun acc (r : Protocol.report) ->
                 Int.max acc r.Protocol.max_queue)
               0 reports)) ]
      @ latency_attrs);
    Telemetry.flush telemetry
  end;
  reports

let run_faulted_traced ?packet_trace ?guard ?jobs ~telemetry ~metrics_every
    ~config ~oracle ~source ~plan ~frames ~rng () =
  let m = Measure.size config.Protocol.measure in
  (* Same split discipline as [run_traced]: the channel takes the first
     split. The fault layer draws from its own split — taken only when the
     plan actually needs randomness (correlated loss), so a loss-free or
     empty plan leaves the protocol's stream untouched and the run is
     bit-identical to the corresponding un-faulted one. *)
  let channel_rng = Rng.split rng in
  let fault_rng = if Plan.needs_rng plan then Some (Rng.split rng) else None in
  let measure =
    if Plan.needs_measure plan then Some config.Protocol.measure else None
  in
  let injector =
    Injector.create ?rng:fault_rng ?measure ~telemetry
      ~frame_length:config.Protocol.frame ~m plan
  in
  let channel =
    Channel.create ~rng:channel_rng ?measure ~telemetry ?jobs
      ~faults:(Injector.hook injector) ~oracle ~m ()
  in
  let protocol =
    Protocol.create ~telemetry ?packet_trace ?guard ?jobs config ~channel
  in
  let report =
    run_protocol_traced ~telemetry ~metrics_every ~protocol ~source ~frames
      ~rng
  in
  (report, injector)

let run_faulted ?guard ~config ~oracle ~source ~plan ~frames ~rng () =
  run_faulted_traced ?guard ~telemetry:Telemetry.disabled ~metrics_every:0
    ~config ~oracle ~source ~plan ~frames ~rng ()
