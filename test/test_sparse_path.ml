(* The end-to-end sparse hot path: the protocol running directly on the
   tiled engine through [Tiled.as_measure], with no densification.
   - the tile-major permuted storage agrees with an unpermuted [of_rows]
     copy of itself on every accessor, at ε = 0 and ε > 0;
   - at ε = 0 a full protocol run on the tiled measure is byte-identical
     to the dense run — report, trajectories and telemetry — per
     topology family;
   - at ε > 0 a run whose config differs only in the measure keeps every
     packet-level observable identical (the measure only sizes frames
     and feeds the failed-buffer potential), and the potential gap obeys
     0 ≤ dense − sparse ≤ error_bound · max failed load, per frame;
   - the parallel stale rescan in [Load_tracker] is bit-identical to the
     sequential one (value and argmax) for any jobs/chunking;
   - a sparse [Scenario.build] never materialises a dense matrix. *)

module Rng = Dps_prelude.Rng
module Timeseries = Dps_prelude.Timeseries
module Measure = Dps_interference.Measure
module Tiled = Dps_interference.Tiled
module Load_tracker = Dps_interference.Load_tracker
module Topology = Dps_network.Topology
module Path = Dps_network.Path
module Graph = Dps_network.Graph
module Params = Dps_sinr.Params
module Power = Dps_sinr.Power
module Physics = Dps_sinr.Physics
module Sinr_measure = Dps_sinr.Sinr_measure
module Protocol = Dps_core.Protocol
module Driver = Dps_core.Driver
module Stability = Dps_core.Stability
module Oracle = Dps_sim.Oracle
module Stochastic = Dps_injection.Stochastic
module Delay_select = Dps_static.Delay_select
module Scenario = Dps_serve.Scenario
module Telemetry = Dps_telemetry.Telemetry
module Memory_sink = Dps_telemetry.Memory_sink

let tolerance = 1e-9
let bits = Int64.bits_of_float

(* --------------------------------------------------------- fixtures *)

let cloud_phys ?(alpha = 4.) ~links seed =
  let rng = Rng.create ~seed () in
  let side = 4. *. sqrt (float_of_int links) in
  let g = Topology.link_cloud rng ~links ~side ~length:1. in
  Physics.make (Params.make ~alpha ~noise:1e-9 ()) (Power.linear 2.) g

let phys_of_graph g =
  Physics.make (Params.make ~noise:1e-9 ()) (Power.linear 2.) g

(* One single-hop flow per link at equal rates, as the benches use. *)
let uniform_source g ~lambda =
  let m = Graph.link_count g in
  let per = lambda /. float_of_int m in
  Driver.Stochastic
    (Stochastic.make (List.init m (fun i -> [ (Path.of_links g [ i ], per) ])))

let first_feasible ?(algorithm = Delay_select.make ~c:4. ()) ~measure () =
  let rec go = function
    | [] -> Alcotest.fail "no configurable rate for the sparse-path fixture"
    | lambda :: rest -> (
      match
        Protocol.configure ~epsilon:0.5 ~algorithm ~measure ~lambda
          ~max_hops:1 ()
      with
      | config -> (config, lambda)
      | exception Invalid_argument _ -> go rest)
  in
  go [ 0.08; 0.04; 0.02; 0.01; 0.005 ]

(* ------------------------------- ε = 0 byte-identity, per topology *)

(* Dense measure vs [Tiled.as_measure] at ε = 0: same frame sizing, then
   a full traced run must agree byte for byte — reports, trajectories
   and every telemetry line. Exercised per topology family since tile
   occupancy (and hence slab layout) differs across them. *)
let check_zero_eps_identity name phys =
  let dense = Sinr_measure.linear_power phys in
  let tiled = Sinr_measure.linear_power_tiled ~epsilon:0. phys in
  let sparse = Tiled.as_measure tiled in
  Alcotest.(check (float 0.)) (name ^ ": ε=0 error bound") 0.
    (Measure.error_bound sparse);
  let g = Physics.graph phys in
  let cfg_d, lambda = first_feasible ~measure:dense () in
  let cfg_s, _ = first_feasible ~measure:sparse () in
  Alcotest.(check int) (name ^ ": frame") cfg_d.Protocol.frame
    cfg_s.Protocol.frame;
  Alcotest.(check int) (name ^ ": phase1 budget") cfg_d.Protocol.phase1_budget
    cfg_s.Protocol.phase1_budget;
  Alcotest.(check int) (name ^ ": cleanup budget")
    cfg_d.Protocol.cleanup_budget cfg_s.Protocol.cleanup_budget;
  let run config =
    let recorder = Memory_sink.create () in
    let telemetry = Telemetry.make ~sinks:[ Memory_sink.sink recorder ] () in
    let r =
      Driver.run_traced ~telemetry ~metrics_every:2 ~config
        ~oracle:(Oracle.Sinr phys) ~source:(uniform_source g ~lambda)
        ~frames:4 ~rng:(Rng.create ~seed:23 ()) ()
    in
    (r, recorder)
  in
  let rd, md = run cfg_d in
  let rs, ms = run cfg_s in
  Alcotest.(check int) (name ^ ": injected") rd.Protocol.injected
    rs.Protocol.injected;
  Alcotest.(check int) (name ^ ": delivered") rd.Protocol.delivered
    rs.Protocol.delivered;
  Alcotest.(check bool) (name ^ ": trajectory") true
    (Timeseries.to_array rd.Protocol.in_system
    = Timeseries.to_array rs.Protocol.in_system);
  Alcotest.(check bool) (name ^ ": potential bits") true
    (Array.map bits (Timeseries.to_array rd.Protocol.failed_interference)
    = Array.map bits (Timeseries.to_array rs.Protocol.failed_interference));
  Alcotest.(check (list string))
    (name ^ ": telemetry byte-identical")
    (Memory_sink.event_lines md) (Memory_sink.event_lines ms);
  Alcotest.(check bool) (name ^ ": snapshots byte-identical") true
    (Memory_sink.snapshots md = Memory_sink.snapshots ms)

let test_zero_eps_goldens () =
  check_zero_eps_identity "cloud" (cloud_phys ~links:24 7);
  check_zero_eps_identity "grid"
    (phys_of_graph (Topology.grid ~rows:4 ~cols:4 ~spacing:10.));
  check_zero_eps_identity "line"
    (phys_of_graph (Topology.line ~nodes:10 ~spacing:10.))

(* -------------------------- ε > 0 parity within the recorded bound *)

(* Same config except for the measure, under an algorithm that never
   consults the measure mid-run (oneshot — the physics oracle decides
   transmissions): the sparse run must reproduce every packet-level
   observable, and the failed-buffer potential may only sag below dense
   by at most error_bound · max failed load, frame by frame. Verdicts
   then agree by construction. (Algorithms that DO size windows from
   the measure, like delay-select, diverge discretely at ε > 0; their
   measure-level agreement is pinned in test_tiled.) *)
let prop_sparse_run_parity =
  QCheck.Test.make ~count:40
    ~name:"full run sparse-vs-dense: observables equal, potential in bound"
    QCheck.(pair small_nat (float_range 0.05 0.5))
    (fun (pick, epsilon) ->
      let links = 10 + (pick mod 16) in
      let phys = cloud_phys ~links (700 + pick) in
      let g = Physics.graph phys in
      let dense = Sinr_measure.linear_power phys in
      let tiled = Sinr_measure.linear_power_tiled ~epsilon phys in
      let sparse = Tiled.as_measure tiled in
      let cfg_d, lambda =
        first_feasible ~algorithm:Dps_static.Oneshot.algorithm ~measure:dense
          ()
      in
      let cfg_s = { cfg_d with Protocol.measure = sparse } in
      let run config =
        Driver.run ~config ~oracle:(Oracle.Sinr phys)
          ~source:(uniform_source g ~lambda) ~frames:4
          ~rng:(Rng.create ~seed:(800 + pick) ())
      in
      let rd = run cfg_d and rs = run cfg_s in
      let pot_d = Timeseries.to_array rd.Protocol.failed_interference in
      let pot_s = Timeseries.to_array rs.Protocol.failed_interference in
      let queue_d = Timeseries.to_array rd.Protocol.failed_queue in
      let bound = Measure.error_bound sparse in
      let pot_ok = ref (Array.length pot_d = Array.length pot_s) in
      if !pot_ok then
        Array.iteri
          (fun i d ->
            let gap = d -. pot_s.(i) in
            (* max failed load <= total failed packets in the system *)
            if gap < -.tolerance || gap > (bound *. queue_d.(i)) +. tolerance
            then pot_ok := false)
          pot_d;
      rd.Protocol.injected = rs.Protocol.injected
      && rd.Protocol.delivered = rs.Protocol.delivered
      && rd.Protocol.max_queue = rs.Protocol.max_queue
      && Timeseries.to_array rd.Protocol.in_system
         = Timeseries.to_array rs.Protocol.in_system
      && Timeseries.to_array rd.Protocol.failed_queue
         = Timeseries.to_array rs.Protocol.failed_queue
      && Stability.assess rd.Protocol.in_system
         = Stability.assess rs.Protocol.in_system
      && !pot_ok)

(* ----------------------------- parallel rescan is byte-identical *)

(* par_threshold 1 forces the chunked path for every stale rescan; the
   interference value (and through it the protocol's argmax-dependent
   behaviour) must be bit-equal to the sequential tracker after every
   operation, ties included. *)
let prop_rescan_par_bit_identical =
  QCheck.Test.make ~count:80
    ~name:"Load_tracker parallel rescan ≡ sequential (bits, every op)"
    QCheck.(
      pair small_nat
        (list_of_size (Gen.int_range 1 60)
           (triple small_nat (int_range 0 2) (float_range (-1.) 2.))))
    (fun (pick, ops) ->
      let links = 6 + (pick mod 20) in
      let phys = cloud_phys ~links (900 + pick) in
      let dense = Sinr_measure.linear_power phys in
      let seq = Load_tracker.create dense in
      let par = Load_tracker.create ~jobs:4 ~par_threshold:1 dense in
      List.for_all
        (fun (link, kind, c) ->
          let e = link mod links in
          (match kind with
          | 0 ->
            Load_tracker.add seq e;
            Load_tracker.add par e
          | 1 ->
            Load_tracker.remove seq e;
            Load_tracker.remove par e
          | _ ->
            Load_tracker.add_scaled seq e c;
            Load_tracker.add_scaled par e c);
          bits (Load_tracker.interference seq)
          = bits (Load_tracker.interference par))
        ops)

(* Protocol level: a traced sparse run with jobs=4 must reproduce the
   jobs=1 run byte for byte — report, trajectories and telemetry. *)
let test_protocol_jobs_identity () =
  let phys = cloud_phys ~links:24 31 in
  let g = Physics.graph phys in
  let tiled = Sinr_measure.linear_power_tiled ~epsilon:0.1 phys in
  let run jobs =
    let sparse = Tiled.as_measure ~jobs tiled in
    let config, lambda = first_feasible ~measure:sparse () in
    let recorder = Memory_sink.create () in
    let telemetry = Telemetry.make ~sinks:[ Memory_sink.sink recorder ] () in
    let r =
      Driver.run_traced ~jobs ~telemetry ~metrics_every:2 ~config
        ~oracle:(Oracle.Sinr phys) ~source:(uniform_source g ~lambda)
        ~frames:4 ~rng:(Rng.create ~seed:37 ()) ()
    in
    (r, recorder)
  in
  let r1, m1 = run 1 in
  let r4, m4 = run 4 in
  Alcotest.(check int) "injected" r1.Protocol.injected r4.Protocol.injected;
  Alcotest.(check int) "delivered" r1.Protocol.delivered
    r4.Protocol.delivered;
  Alcotest.(check bool) "trajectory" true
    (Timeseries.to_array r1.Protocol.in_system
    = Timeseries.to_array r4.Protocol.in_system);
  Alcotest.(check bool) "potential bits" true
    (Array.map bits (Timeseries.to_array r1.Protocol.failed_interference)
    = Array.map bits (Timeseries.to_array r4.Protocol.failed_interference));
  Alcotest.(check (list string))
    "telemetry byte-identical" (Memory_sink.event_lines m1)
    (Memory_sink.event_lines m4);
  Alcotest.(check bool) "snapshots byte-identical" true
    (Memory_sink.snapshots m1 = Memory_sink.snapshots m4)

(* ------------------------------ a sparse scenario stays sparse *)

let test_scenario_never_densifies () =
  let spec =
    Scenario.make ~sparse:0.1 ~model:"sinr-linear" ~topology:"grid:6x6"
      ~rate:0.04 ()
  in
  let built = Scenario.build spec in
  (match built.Scenario.tiled with
  | None -> Alcotest.fail "sparse build must expose the tiled engine"
  | Some tiled ->
    Alcotest.(check bool) "measure is the tiled engine's own" true
      (built.Scenario.measure == Tiled.as_measure tiled));
  Alcotest.(check bool) "error bound within ε" true
    (Measure.error_bound built.Scenario.measure <= 0.1);
  (* The config the protocol will run on carries the same measure — the
     whole hot path shares the one un-densified measure identity. *)
  Alcotest.(check bool) "config shares the sparse measure" true
    (built.Scenario.config.Protocol.measure == built.Scenario.measure);
  let dense_spec =
    Scenario.make ~model:"sinr-linear" ~topology:"grid:6x6" ~rate:0.04 ()
  in
  let dense_built = Scenario.build dense_spec in
  Alcotest.(check (float 0.)) "a dense spec still builds exact" 0.
    (Measure.error_bound dense_built.Scenario.measure)

(* The tile-major storage against an unpermuted copy of itself: an
   [of_rows] measure built from the tiled measure's own [Measure.row]
   output must agree on every accessor — rows, column contents and
   order, point lookups, row sums, and bit-equal interference at any
   [jobs]. *)
let test_as_measure_matches_of_rows_copy () =
  let phys = cloud_phys ~links:20 41 in
  let collect iter =
    let acc = ref [] in
    iter (fun e' w -> acc := (e', bits w) :: !acc);
    List.rev !acc
  in
  List.iter
    (fun epsilon ->
      let name fmt = Printf.sprintf ("ε=%g: " ^^ fmt) epsilon in
      let tiled = Sinr_measure.linear_power_tiled ~epsilon phys in
      let sparse = Tiled.as_measure tiled in
      let m = Measure.size sparse in
      let copy =
        Measure.of_rows ~m
          (Array.init m (fun e -> Array.to_list (Measure.row sparse e)))
      in
      Alcotest.(check int) (name "nnz") (Measure.nnz copy) (Measure.nnz sparse);
      Alcotest.(check int64) (name "max_row_sum bits")
        (bits (Measure.max_row_sum copy))
        (bits (Measure.max_row_sum sparse));
      for e = 0 to m - 1 do
        Alcotest.(check int) (name "row_nnz %d" e) (Measure.row_nnz copy e)
          (Measure.row_nnz sparse e);
        if
          collect (Measure.iter_row copy e)
          <> collect (Measure.iter_row sparse e)
        then Alcotest.failf "%s" (name "row %d differs" e);
        if
          collect (Measure.iter_column copy e)
          <> collect (Measure.iter_column sparse e)
        then Alcotest.failf "%s" (name "column %d differs" e);
        for e' = 0 to m - 1 do
          if
            bits (Measure.weight copy e e')
            <> bits (Measure.weight sparse e e')
          then Alcotest.failf "%s" (name "weight (%d, %d) differs" e e')
        done
      done;
      let rng = Rng.create ~seed:43 () in
      for _ = 1 to 5 do
        let load = Array.init m (fun _ -> float_of_int (Rng.int rng 6)) in
        List.iter
          (fun jobs ->
            Alcotest.(check int64)
              (name "interference bits, jobs=%d" jobs)
              (bits (Measure.interference copy load))
              (bits (Measure.interference (Tiled.as_measure ~jobs tiled) load)))
          [ 1; 4 ];
        for e = 0 to m - 1 do
          Alcotest.(check int64)
            (name "interference_at %d bits" e)
            (bits (Measure.interference_at copy load e))
            (bits (Measure.interference_at sparse load e))
        done
      done)
    [ 0.; 0.1; 0.2 ]

let () =
  Alcotest.run "sparse_path"
    [ ( "unit",
        [ Alcotest.test_case "ε=0 runs byte-identical per topology" `Quick
            test_zero_eps_goldens;
          Alcotest.test_case "jobs=1 ≡ jobs=4 through the protocol" `Quick
            test_protocol_jobs_identity;
          Alcotest.test_case "sparse scenario never densifies" `Quick
            test_scenario_never_densifies;
          Alcotest.test_case "as_measure ≡ its of_rows copy" `Quick
            test_as_measure_matches_of_rows_copy ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sparse_run_parity; prop_rescan_par_bit_identical ] ) ]
