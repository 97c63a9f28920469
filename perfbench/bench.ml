(* Benchmark entry point:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--serve PATH-TO-dps_serve] [--flambda true|false]

   Runs one workload and prints, as its last stdout line, one JSON
   object {"correct", "attempted", "failed", "metrics"}: every
   end-to-end metric with --trace 0, every per-layer metric with
   --trace 1. Metric meanings per workload: perfbench/README.md. *)

let end_to_end =
  [ ("slots_per_s", "1/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("inject_p50_ms", "ms");
    ("step_p50_ms", "ms");
    ("read_p50_ms", "ms");
    ("cmds_per_s", "1/s");
    ("restore_s", "s") ]

let per_layer =
  [ ("inject_p99_ms", "ms");
    ("step_p99_ms", "ms");
    ("read_p99_ms", "ms");
    ("open.inject_p50_ms", "ms");
    ("open.step_p50_ms", "ms");
    ("open.read_p50_ms", "ms");
    ("network.build_s", "s");
    ("interference.build_s", "s");
    ("interference.nnz", "count");
    ("interference.bytes_computed", "B");
    ("interference.bytes_per_l2", "ratio");
    ("injection.calibrate_s", "s");
    ("protocol.configure_s", "s");
    ("static.phase1_s", "s");
    ("static.cleanup_s", "s");
    ("static.requests", "count");
    ("static.served", "count");
    ("static.served_ratio", "ratio");
    ("injection.draw_s", "s");
    ("protocol.self_s", "s");
    ("protocol.frame_p50_ms", "ms");
    ("protocol.frame_p99_ms", "ms");
    ("channel.busy_slots", "count");
    ("channel.attempts", "count");
    ("channel.successes", "count");
    ("channel.success_ratio", "ratio");
    ("protocol.injected", "count");
    ("protocol.delivered", "count");
    ("protocol.phase1_failures", "count");
    ("gc.minor_words_per_slot", "words");
    ("wire.parse_s", "s");
    ("wire.encode_s", "s");
    ("engine.submit_s", "s");
    ("engine.step_s", "s");
    ("engine.checkpoint_s", "s");
    ("engine.stats_s", "s");
    ("journal.append_s", "s");
    ("journal.fsyncs", "count");
    ("journal.bytes", "B");
    ("engine.restore_s", "s");
    ("restore.replayed_ops", "count");
    ("serve.transport_s", "s");
    ("serve.admitted", "count");
    ("serve.refused", "count");
    ("serve.errors", "count");
    ("serve.generator_lag_ms", "ms");
    ("host.reference_ms", "ms");
    ("trace.overhead", "ratio");
    ("trace.closure", "ratio") ]

let workloads = List.map (fun w -> w.Sim_load.name) Sim_load.all @ [ "serve-journal" ]

let usage () =
  prerr_endline
    ("usage: bench.exe --workload {" ^ String.concat "|" workloads
   ^ "} --seed N --seconds S --trace 0|1 [--serve DPS_SERVE] [--flambda B]");
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" and seed = int "seed" in
  let seconds = float_of_int (int "seconds") in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let flambda = Option.value ~default:"unknown" (List.assoc_opt "flambda" opts) in
  let attempted, failed =
    match List.find_opt (fun w -> w.Sim_load.name = workload) Sim_load.all with
    | Some w -> Sim_load.run w ~seed ~seconds ~trace ~flambda
    | None when workload = "serve-journal" ->
      Serve_load.run ~exe:(get "serve") ~seed ~seconds ~trace ~flambda
    | None -> usage ()
  in
  let schema, missing =
    if trace then (per_layer, fun _ -> 0.)
    else
      (end_to_end, fun name -> failwith ("end-to-end metric not measured: " ^ name))
  in
  Out.print_result ~schema ~missing ~correct:(failed = 0) ~attempted ~failed
