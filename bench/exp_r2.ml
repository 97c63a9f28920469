(* R2 — robustness soak: the serving engine under sustained 2x overload,
   periodic jam episodes and tenant churn.

   Three tenants (URLLC / eMBB / mMTC) each offer twice their token-
   bucket quota every frame, a churn tenant attaches and detaches on a
   short cycle, and three jam episodes punch the failed-buffer potential
   up through the class guard's watermarks. The run must degrade the way
   the serving layer promises:

   - no monotonic queue growth: admission control (buckets) plus
     class-aware shedding bound the backlog, so the stability verdict
     must not read unstable, and the queue must drain back down after
     the last episode clears;
   - bounded memory: the engine allocates per admitted packet, not per
     offered packet — live heap words after the soak stay within a
     small factor of the early-run level;
   - graceful degradation: shedding is charged to mMTC first, URLLC is
     never shed, and the URLLC delivery p99 stays within its
     Classes.default_budget_frames delay budget throughout.

   The shape checks are hard assertions (failwith): run under
   bench-smoke in `dune runtest`, they keep the soak honest.
   Results: EXPERIMENTS.md §R2. *)

open Common
module Engine = Dps_serve.Engine
module Scenario = Dps_serve.Scenario
module Classes = Dps_serve.Classes
module Histogram = Dps_prelude.Histogram
module Timeseries = Dps_prelude.Timeseries

(* A shared MAC channel under the decay algorithm: per-frame capacity
   (~λ·T ≈ 200 packets) towers over the ~13 packets/frame the quotas
   admit, and the clean-up budget (32 slots/frame) drains a jam's failed
   backlog within a frame or two — so the latency a jam inflicts on the
   never-shed URLLC class is the episode length plus a short drain, and
   its delay budget is a meaningful promise. (A wireline line has a
   1-slot clean-up budget: a jammed backlog drains packet-per-frame and
   every class's tail latency is dominated by drain time, which is a
   statement about that scenario, not about the serving layer.) *)
let scenario = Scenario.make ~model:"mac" ~topology:"mac" ~stations:6 ~rate:0.1 ()

type tenant_load = {
  tenant : string;
  klass : Classes.t;
  rate : float;  (* bucket tokens per frame *)
  burst : float;
  link : int;
  offered : int;  (* copies per frame = 2x the bucket rate *)
}

(* Quotas sum to ~13 admitted packets/frame — about a fifth of the
   wireline capacity at λ = 0.3 — so the backlog a jam leaves behind
   drains within a few frames and the URLLC delay budget is honest.
   Every tenant offers 2x its quota: the other half must come back as
   overloaded (backpressure), not as queue growth. *)
let loads =
  [ { tenant = "ctrl"; klass = Classes.Urllc; rate = 1.; burst = 8.; link = 0;
      offered = 2 };
    { tenant = "web"; klass = Classes.Embb; rate = 3.; burst = 12.; link = 3;
      offered = 6 };
    { tenant = "iot"; klass = Classes.Mmtc; rate = 8.; burst = 24.; link = 5;
      offered = 16 } ]

type counters = {
  mutable admitted : int;
  mutable shed : int;
  mutable overloaded : int;
}

let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

let run () =
  let horizon = Int.max 4 (frames 300) in
  let built = Scenario.build scenario in
  let t = built.Scenario.config.Dps_core.Protocol.frame in
  (* Three two-frame jam episodes at 1/5, 2/5 and 3/5 of the horizon:
     each fails ~2 frames of admitted packets, pushing Φ through the
     mMTC and (full-size) the eMBB watermark, and drains back out well
     before the next. They are kept short because a jam stalls even
     URLLC — episode length is a floor on the latency tail no scheduler
     can beat. *)
  let episodes =
    List.map (fun k -> let a = k * horizon / 5 in (a, a + 1)) [ 1; 2; 3 ]
  in
  let faults =
    String.concat ","
      (List.map
         (fun (a, b) -> Printf.sprintf "jam:%d-%d" (a * t) (((b + 1) * t) - 1))
         episodes)
  in
  let cfg =
    Engine.default_config ~guard:"6:2,20:6,120:40" ~faults ~checkpoint_every:0
      ~scenario ~seed:2024 ()
  in
  let e = Engine.create cfg in
  let stats =
    List.map
      (fun l ->
        (match
           Engine.attach e ~tenant:l.tenant ~klass:l.klass ~rate:l.rate
             ~burst:l.burst ()
         with
        | Ok () -> ()
        | Error msg -> failwith ("R2 attach: " ^ msg));
        (l, { admitted = 0; shed = 0; overloaded = 0 }))
      loads
  in
  let submit (l, c) =
    match
      Engine.submit e ~tenant:l.tenant ~links:[ l.link ] ~delay:0
        ~copies:l.offered
    with
    | Ok (Engine.Admitted _) -> c.admitted <- c.admitted + l.offered
    | Ok (Engine.Shed _) -> c.shed <- c.shed + l.offered
    | Ok (Engine.Overloaded _) -> c.overloaded <- c.overloaded + l.offered
    | Ok (Engine.Too_large _) -> failwith "R2: offered batch exceeds burst"
    | Error msg -> failwith ("R2 submit: " ^ msg)
  in
  (* Tenant churn: a short-lived mMTC tenant detaches and reattaches on
     a fixed cycle, with packets possibly still in flight — the engine
     must neither leak its accounting nor disturb the long-lived
     tenants. *)
  let churn_period = Int.max 2 (horizon / 30) in
  let churn_alive = ref false in
  let live0 = ref 0 in
  for frame = 0 to horizon - 1 do
    if frame mod churn_period = 0 then begin
      if !churn_alive then
        (match Engine.detach e ~tenant:"churn" with
        | Ok () -> ()
        | Error msg -> failwith ("R2 churn detach: " ^ msg));
      (match
         Engine.attach e ~tenant:"churn" ~klass:Classes.Mmtc ~rate:4.
           ~burst:8. ()
       with
      | Ok () -> churn_alive := true
      | Error msg -> failwith ("R2 churn attach: " ^ msg));
      match Engine.submit e ~tenant:"churn" ~links:[ 1 ] ~delay:0 ~copies:2 with
      | Ok _ -> ()
      | Error msg -> failwith ("R2 churn submit: " ^ msg)
    end;
    List.iter submit stats;
    Engine.step e ~frames:1;
    if frame = horizon / 4 then live0 := live_words ()
  done;
  let live1 = live_words () in
  let report = Engine.report e in
  let verdict =
    Dps_core.Stability.to_string
      (Dps_core.Stability.assess report.Dps_core.Protocol.in_system)
  in
  let urllc_p99_slots =
    Histogram.quantile (Engine.class_latency e ~klass:Classes.Urllc) 0.99
  in
  let budget_slots k = float_of_int (Classes.default_budget_frames k * t) in
  let rows =
    List.map
      (fun (l, c) ->
        let h = Engine.class_latency e ~klass:l.klass in
        let p99_frames =
          if Histogram.count h = 0 then 0.
          else Histogram.quantile h 0.99 /. float_of_int t
        in
        [ Tbl.S l.tenant;
          Tbl.S (Classes.to_string l.klass);
          Tbl.I (horizon * l.offered);
          Tbl.I c.admitted;
          Tbl.I c.overloaded;
          Tbl.I (Engine.class_shed e ~klass:l.klass);
          Tbl.F2 p99_frames;
          Tbl.I (Classes.default_budget_frames l.klass);
          Tbl.I (Engine.budget_violations e ~klass:l.klass) ])
      stats
  in
  Tbl.print
    ~title:
      (Printf.sprintf
         "R2 (soak): 2x overload per class + jam episodes + tenant churn \
          (mac channel, 6 stations, %d frames, verdict %s)"
         horizon verdict)
    ~header:
      [ "tenant"; "class"; "offered"; "admitted"; "overloaded"; "class shed";
        "p99 (frames)"; "budget"; "violations" ]
    rows;
  Tbl.note
    "shape check: overload is absorbed as overloaded (quota backpressure) \
     and shed (class guard under jams), charged to mmtc first; urllc is \
     never shed and its p99 stays within its delay budget; the backlog \
     drains after each episode\n";
  (* ---- hard assertions: the promises this harness exists to keep *)
  if verdict = "unstable" then
    failwith "R2: queue grows monotonically (verdict unstable)";
  let urllc_shed = Engine.class_shed e ~klass:Classes.Urllc in
  if urllc_shed > 0 then
    failwith (Printf.sprintf "R2: %d urllc packets shed" urllc_shed);
  if Histogram.count (Engine.class_latency e ~klass:Classes.Urllc) > 0
     && urllc_p99_slots > budget_slots Classes.Urllc
  then
    failwith
      (Printf.sprintf "R2: urllc p99 %.0f slots exceeds budget %.0f"
         urllc_p99_slots (budget_slots Classes.Urllc));
  (* Memory: live heap after the soak within 2x of the early-run level
     (plus fixed slack for lazily-built structures). *)
  if live1 > (2 * !live0) + 2_000_000 then
    failwith
      (Printf.sprintf "R2: live heap grew %d -> %d words" !live0 live1);
  if not smoke then begin
    (* Shed must actually have been charged — to mmtc first and most. *)
    let mmtc = Engine.class_shed e ~klass:Classes.Mmtc in
    let embb = Engine.class_shed e ~klass:Classes.Embb in
    if mmtc = 0 then failwith "R2: jams never charged mmtc with shed";
    if embb > mmtc then
      failwith
        (Printf.sprintf "R2: embb shed %d exceeds mmtc shed %d" embb mmtc);
    (* Drain: after the final episode clears, the backlog must come back
       under a quarter of its peak — bounded excursions, not a ratchet. *)
    let s = report.Dps_core.Protocol.in_system in
    let n = Timeseries.length s in
    let last_clear = List.fold_left (fun acc (_, b) -> Int.max acc b) 0 episodes in
    let post = ref infinity in
    for i = Int.min (n - 1) last_clear to n - 1 do
      post := Float.min !post (Timeseries.get s i)
    done;
    let peak = Timeseries.max s in
    if !post > 0.25 *. peak then
      failwith
        (Printf.sprintf "R2: backlog never drains (min %.0f after episodes, \
                         peak %.0f)"
           !post peak)
  end;
  Engine.close e
