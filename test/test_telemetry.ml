(* Tests for the telemetry subsystem: event encoding, the bucket
   histogram, the metrics registry, the sinks, and the wiring through
   Protocol / Channel / Driver / Sweep. The JSONL schema (v2) is pinned
   byte-for-byte by the golden test below (modulo the version stamp,
   which [normalise_version] folds to "V" so v1-era lines stay pinned);
   if it fails, either restore the output or bump [Event.schema_version]
   and update docs/OBSERVABILITY.md. *)

module Rng = Dps_prelude.Rng
module Timeseries = Dps_prelude.Timeseries
module Graph = Dps_network.Graph
module Routing = Dps_network.Routing
module Topology = Dps_network.Topology
module Measure = Dps_interference.Measure
module Oracle = Dps_sim.Oracle
module Channel = Dps_sim.Channel
module Oneshot = Dps_static.Oneshot
module Stochastic = Dps_injection.Stochastic
module Protocol = Dps_core.Protocol
module Driver = Dps_core.Driver
module Sweep = Dps_core.Sweep
module Event = Dps_telemetry.Event
module Histogram = Dps_prelude.Histogram
module Metrics = Dps_telemetry.Metrics
module Sink = Dps_telemetry.Sink
module Snapshot = Dps_telemetry.Snapshot
module Memory_sink = Dps_telemetry.Memory_sink
module Telemetry = Dps_telemetry.Telemetry

(* ------------------------------------------------------ event encoding *)

let test_schema_version () =
  Alcotest.(check int) "schema v2" 2 Event.schema_version

let test_span_json () =
  let ev =
    Event.Span
      { name = "a";
        frame = 1;
        slot_start = 2;
        slot_end = 3;
        attrs =
          [ ("x", Event.Int 4);
            ("y", Event.Float 1.5);
            ("z", Event.Bool true);
            ("s", Event.Str "q\"uo") ] }
  in
  Alcotest.(check string) "span json"
    "{\"v\":2,\"type\":\"span\",\"name\":\"a\",\"frame\":1,\"slot_start\":2,\
     \"slot_end\":3,\"attrs\":{\"x\":4,\"y\":1.5,\"z\":true,\"s\":\"q\\\"uo\"}}"
    (Event.to_json ev)

let test_point_json () =
  let ev = Event.Point { name = "p"; frame = 0; slot = 5; attrs = [] } in
  Alcotest.(check string) "point json"
    "{\"v\":2,\"type\":\"event\",\"name\":\"p\",\"frame\":0,\"slot\":5,\
     \"attrs\":{}}"
    (Event.to_json ev)

let test_float_rendering () =
  Alcotest.(check string) "integral float" "2" (Event.float_to_json 2.);
  Alcotest.(check string) "fraction" "0.25" (Event.float_to_json 0.25);
  Alcotest.(check string) "nan is null" "null" (Event.float_to_json Float.nan);
  Alcotest.(check string) "inf is null" "null"
    (Event.float_to_json Float.infinity)

let test_escape () =
  Alcotest.(check string) "controls escaped" "\"a\\n\\t\\u0001\\\\\""
    (Event.escape "a\n\t\x01\\")

(* ---------------------------------------------------- metric histograms *)

(* A registry histogram is a Dps_prelude.Histogram behind a name: these
   tests drive it through [Metrics.observe] and read it back through
   [Metrics.histo]. The histogram's own properties live in test_prelude. *)

let metric_histo samples =
  let h = Metrics.histogram (Metrics.create ()) "lat" in
  List.iter (Metrics.observe h) samples;
  Metrics.histo h

let test_histo_basics () =
  let h = metric_histo [ 1; 2; 3; 8 ] in
  Alcotest.(check int) "count" 4 (Histogram.count h);
  Alcotest.(check int) "sum" 14 (Histogram.sum h);
  Alcotest.(check int) "min" 1 (Histogram.min h);
  Alcotest.(check int) "max" 8 (Histogram.max h);
  Alcotest.(check (float 1e-9)) "mean" 3.5 (Histogram.mean h);
  Alcotest.(check (float 1e-9)) "p50 is exact" 2.5 (Histogram.quantile h 0.5)

let test_histo_rejects () =
  let h = Metrics.histogram (Metrics.create ()) "lat" in
  Alcotest.check_raises "negative sample"
    (Invalid_argument "Histogram.add: negative sample") (fun () ->
      Metrics.observe h (-1));
  Alcotest.check_raises "quantile of empty"
    (Invalid_argument "Histogram.quantile: empty") (fun () ->
      ignore (Histogram.quantile (Metrics.histo h) 0.5))

(* Samples straddling the exact bound: the ones below it stay exact, the
   one at it starts the first overflow octave, and the quantiles are
   clamped to the observed range. *)
let test_histo_boundary_samples () =
  let b = Histogram.exact_bound in
  let h = metric_histo [ 0; b - 1; b ] in
  Alcotest.(check (float 1e-9)) "q0 is the smallest sample" 0.
    (Histogram.quantile h 0.);
  Alcotest.(check (float 1e-9)) "p50 below the bound is exact"
    (float_of_int (b - 1)) (Histogram.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "q1 clamped to max" (float_of_int b)
    (Histogram.quantile h 1.)

let test_histo_single_sample () =
  List.iter
    (fun x ->
      let h = metric_histo [ x ] in
      List.iter
        (fun q ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "q=%g of singleton %d" q x)
            (float_of_int x) (Histogram.quantile h q))
        [ 0.; 0.25; 0.5; 0.9; 1. ];
      Alcotest.(check (float 1e-9)) "mean" (float_of_int x) (Histogram.mean h))
    [ 42; 3 * Histogram.exact_bound ]

(* Two registries' histograms merge as Driver.run_many merges replicas:
   by count addition, whatever the order. *)
let test_histo_merge_disjoint_ranges () =
  let lo = metric_histo [ 0; 1 ] and hi = metric_histo [ 500; 600; 700 ] in
  let m = Histogram.merge lo hi in
  Alcotest.(check int) "count" 5 (Histogram.count m);
  Alcotest.(check int) "min from the low half" 0 (Histogram.min m);
  Alcotest.(check int) "max from the high half" 700 (Histogram.max m);
  Alcotest.(check (float 1e-9)) "p50 is the middle sample" 500.
    (Histogram.quantile m 0.5);
  Alcotest.(check (float 1e-9)) "merge argument order is immaterial" 500.
    (Histogram.quantile (Histogram.merge hi lo) 0.5);
  Alcotest.(check int) "inputs untouched" 2 (Histogram.count lo)

(* Samples on both sides of the exact bound, observed through the
   registry: any two quantiles are ordered and lie in [min,max]. *)
let prop_quantile_monotone_bounded =
  QCheck.Test.make ~count:200
    ~name:"Histo.quantile monotone in q and within [min,max]"
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 60) (int_bound (4 * Histogram.exact_bound)))
        (float_bound_inclusive 1.) (float_bound_inclusive 1.))
    (fun (xs, qa, qb) ->
      let h = metric_histo xs in
      let q1 = Float.min qa qb and q2 = Float.max qa qb in
      let v1 = Histogram.quantile h q1 and v2 = Histogram.quantile h q2 in
      v1 <= v2 +. 1e-9
      && v1 >= float_of_int (Histogram.min h) -. 1e-9
      && v2 <= float_of_int (Histogram.max h) +. 1e-9)

(* ----------------------------------------------------- metrics registry *)

let test_metrics_counter_gauge () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "test.c" in
  Metrics.incr c;
  Metrics.add c 5;
  Alcotest.(check int) "counter" 6 (Metrics.counter_value c);
  (try
     Metrics.add c (-1);
     Alcotest.fail "negative add accepted"
   with Invalid_argument _ -> ());
  let g = Metrics.gauge reg "test.g" in
  Alcotest.(check (float 0.)) "gauge default" 0. (Metrics.gauge_value g);
  Metrics.set g 3.5;
  Alcotest.(check (float 0.)) "gauge set" 3.5 (Metrics.gauge_value g);
  (* Re-registration returns the same underlying cell. *)
  let c' = Metrics.counter reg "test.c" in
  Metrics.incr c';
  Alcotest.(check int) "shared handle" 7 (Metrics.counter_value c)

let test_metrics_validation () =
  let reg = Metrics.create () in
  (try
     ignore (Metrics.counter reg "bad name");
     Alcotest.fail "space in name accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Metrics.counter reg ~labels:[ ("k", "v,w") ] "ok");
     Alcotest.fail "comma in label value accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Metrics.counter reg ~labels:[ ("k", "a"); ("k", "b") ] "ok");
     Alcotest.fail "duplicate label key accepted"
   with Invalid_argument _ -> ());
  ignore (Metrics.counter reg "kind.clash");
  try
    ignore (Metrics.gauge reg "kind.clash");
    Alcotest.fail "kind conflict accepted"
  with Invalid_argument _ -> ()

let test_metrics_snapshot_order () =
  let reg = Metrics.create () in
  ignore (Metrics.gauge reg "zz");
  let c = Metrics.counter reg ~labels:[ ("b", "2"); ("a", "1") ] "aa" in
  Metrics.incr c;
  ignore (Metrics.counter reg "aa");
  let rows = Metrics.snapshot reg in
  Alcotest.(check (list string)) "sorted by name then labels"
    [ "aa|"; "aa|a=1;b=2"; "zz|" ]
    (List.map
       (fun (r : Metrics.row) ->
         r.Metrics.name ^ "|" ^ Metrics.encode_labels r.Metrics.labels)
       rows);
  let labelled = List.nth rows 1 in
  Alcotest.(check (list (pair string string))) "labels sorted by key"
    [ ("a", "1"); ("b", "2") ]
    labelled.Metrics.labels

let test_metrics_histogram_rows () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "lat" in
  let kinds () =
    List.filter_map
      (fun (r : Metrics.row) ->
        if r.Metrics.name = "lat" then Some r.Metrics.kind else None)
      (Metrics.snapshot reg)
  in
  Alcotest.(check (list string)) "empty histogram has no quantile rows"
    [ "count"; "max"; "min"; "sum" ] (kinds ());
  Metrics.observe h 10;
  Metrics.observe h 20;
  Alcotest.(check (list string)) "quantiles appear once non-empty"
    [ "count"; "max"; "min"; "p50"; "p90"; "p99"; "sum" ] (kinds ())

(* ------------------------------------------------------------- csv sink *)

let with_temp_file f =
  let path = Filename.temp_file "dps_telemetry" ".tmp" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_csv_sink () =
  with_temp_file (fun path ->
      let oc = open_out path in
      let t = Telemetry.make ~sinks:[ Sink.csv oc ] () in
      let c =
        Metrics.counter (Telemetry.metrics t)
          ~labels:[ ("outcome", "ok") ]
          "test.c"
      in
      Metrics.incr c;
      Telemetry.span t ~name:"ignored" ~frame:0 ~slot_start:0 ~slot_end:1 [];
      Telemetry.emit_metrics t ~frame:3;
      Telemetry.close t;
      Alcotest.(check (list string)) "csv content"
        [ "frame,metric,labels,kind,value"; "3,test.c,outcome=ok,counter,1" ]
        (read_lines path))

(* ------------------------------------------------- golden JSONL (fixed) *)

(* A 3-node wireline line, one packet over both hops, three frames: small
   enough to pin the whole trace byte-for-byte. The ["v":N] field is
   normalised so a schema bump fails one test (the version pin above),
   not every line here. *)
let mini_run telemetry =
  let g = Topology.line ~nodes:3 ~spacing:1. in
  let m = Graph.link_count g in
  let measure = Measure.identity m in
  let routing = Routing.make g in
  let path = Option.get (Routing.path routing ~src:0 ~dst:2) in
  let cfg =
    Protocol.configure ~epsilon:0.5 ~algorithm:Oneshot.algorithm ~measure
      ~lambda:0.2 ~max_hops:2 ()
  in
  let rng = Rng.create ~seed:7 () in
  let channel = Channel.create ~telemetry ~oracle:Oracle.Wireline ~m () in
  let proto = Protocol.create ~telemetry cfg ~channel in
  let first = ref true in
  Protocol.run_frame proto rng ~inject_slot:(fun slot ->
      if !first && slot = 0 then begin
        first := false;
        [ (path, 0) ]
      end
      else []);
  Protocol.run_frame proto rng ~inject_slot:(fun _ -> []);
  Protocol.run_frame proto rng ~inject_slot:(fun _ -> []);
  Telemetry.emit_metrics telemetry ~frame:(Protocol.frame_index proto);
  Protocol.report proto

let normalise_version line =
  match String.index_opt line ':' with
  | Some i when String.length line > 4 && String.sub line 0 4 = "{\"v\"" ->
    let j = ref (i + 1) in
    while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do
      incr j
    done;
    "{\"v\":V" ^ String.sub line !j (String.length line - !j)
  | _ -> line

let golden_mini_trace =
  [ "{\"v\":V,\"type\":\"span\",\"name\":\"protocol.frame\",\"frame\":0,\
     \"slot_start\":0,\"slot_end\":257,\"attrs\":{\"injected\":1,\
     \"delivered\":0,\"phase1_failures\":0,\"phase1_slots\":0,\
     \"cleanup_slots\":0,\"in_system\":1,\"failed_queue\":0,\"potential\":0,\
     \"failed_interference\":0}}";
    "{\"v\":V,\"type\":\"span\",\"name\":\"protocol.frame\",\"frame\":1,\
     \"slot_start\":257,\"slot_end\":514,\"attrs\":{\"injected\":0,\
     \"delivered\":0,\"phase1_failures\":0,\"phase1_slots\":1,\
     \"cleanup_slots\":0,\"in_system\":1,\"failed_queue\":0,\"potential\":0,\
     \"failed_interference\":0}}";
    "{\"v\":V,\"type\":\"span\",\"name\":\"protocol.frame\",\"frame\":2,\
     \"slot_start\":514,\"slot_end\":771,\"attrs\":{\"injected\":0,\
     \"delivered\":1,\"phase1_failures\":0,\"phase1_slots\":1,\
     \"cleanup_slots\":0,\"in_system\":0,\"failed_queue\":0,\"potential\":0,\
     \"failed_interference\":0}}" ]

let run_mini_to_lines () =
  with_temp_file (fun path ->
      let oc = open_out path in
      let t = Telemetry.make ~sinks:[ Sink.jsonl oc ] () in
      let report = mini_run t in
      Telemetry.close t;
      (read_lines path, report))

let test_golden_jsonl () =
  let lines, _ = run_mini_to_lines () in
  let lines = List.map normalise_version lines in
  Alcotest.(check int) "line count (3 spans + 1 metrics)" 4
    (List.length lines);
  List.iteri
    (fun i expected ->
      Alcotest.(check string)
        (Printf.sprintf "line %d" i)
        expected (List.nth lines i))
    golden_mini_trace;
  (* The metrics line is long; pin its prefix and a few load-bearing
     rows rather than the whole thing. *)
  let metrics_line = List.nth lines 3 in
  let has needle =
    Alcotest.(check bool)
      (Printf.sprintf "metrics line contains %s" needle)
      true
      (let n = String.length needle and l = String.length metrics_line in
       let rec go i =
         i + n <= l && (String.sub metrics_line i n = needle || go (i + 1))
       in
       go 0)
  in
  has "{\"v\":V,\"type\":\"metrics\",\"frame\":3,\"rows\":[";
  has "{\"name\":\"protocol.delivered\",\"labels\":{},\"kind\":\"counter\",\"value\":1}";
  has "{\"name\":\"protocol.injected\",\"labels\":{},\"kind\":\"counter\",\"value\":1}";
  has "{\"name\":\"channel.tx\",\"labels\":{\"outcome\":\"success\"},\"kind\":\"counter\",\"value\":2}"

let test_trace_is_deterministic () =
  let a, _ = run_mini_to_lines () in
  let b, _ = run_mini_to_lines () in
  Alcotest.(check (list string)) "byte-identical across runs" a b

(* ----------------------------------------- JSON round-trip (mini parser) *)

(* Just enough JSON to validate the documented schema: objects (key order
   preserved), arrays, strings with escapes, numbers, true/false/null. *)
type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

let parse_json s =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then s.[!pos] else '\255' in
  let advance () = incr pos in
  let expect c =
    if peek () <> c then failwith (Printf.sprintf "expected %c at %d" c !pos);
    advance ()
  in
  let rec skip_ws () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char b '"'; advance ()
        | '\\' -> Buffer.add_char b '\\'; advance ()
        | '/' -> Buffer.add_char b '/'; advance ()
        | 'n' -> Buffer.add_char b '\n'; advance ()
        | 'r' -> Buffer.add_char b '\r'; advance ()
        | 't' -> Buffer.add_char b '\t'; advance ()
        | 'u' ->
          advance ();
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          let code = int_of_string ("0x" ^ hex) in
          Buffer.add_char b (if code < 256 then Char.chr code else '?')
        | c -> failwith (Printf.sprintf "bad escape %c" c));
        go ()
      | '\255' -> failwith "unterminated string"
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while number_char (peek ()) do
      advance ()
    done;
    float_of_string (String.sub s start (!pos - start))
  in
  let parse_lit lit v =
    if !pos + String.length lit <= len
       && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else failwith ("bad literal at " ^ string_of_int !pos)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> Jstr (parse_string ())
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin advance (); Jobj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ((k, v) :: acc)
          | '}' -> advance (); List.rev ((k, v) :: acc)
          | c -> failwith (Printf.sprintf "bad object at %d (%c)" !pos c)
        in
        Jobj (members [])
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin advance (); Jarr [] end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); elements (v :: acc)
          | ']' -> advance (); List.rev (v :: acc)
          | c -> failwith (Printf.sprintf "bad array at %d (%c)" !pos c)
        in
        Jarr (elements [])
      end
    | 't' -> parse_lit "true" (Jbool true)
    | 'f' -> parse_lit "false" (Jbool false)
    | 'n' -> parse_lit "null" Jnull
    | _ -> Jnum (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then failwith "trailing garbage";
  v

let obj_keys = function
  | Jobj kvs -> List.map fst kvs
  | _ -> Alcotest.fail "expected a JSON object"

let obj_field j k =
  match j with
  | Jobj kvs -> (
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> Alcotest.failf "missing field %s" k)
  | _ -> Alcotest.fail "expected a JSON object"

let check_int_field j k =
  match obj_field j k with
  | Jnum f when Float.is_integer f -> int_of_float f
  | _ -> Alcotest.failf "field %s is not an integer" k

(* Validate one trace line against the documented v1 schema. Returns the
   value of the "type" field. *)
let validate_line line =
  let j = parse_json line in
  Alcotest.(check int) "v is schema_version" Event.schema_version
    (check_int_field j "v");
  Alcotest.(check string) "v is the first key" "v" (List.hd (obj_keys j));
  match obj_field j "type" with
  | Jstr "span" ->
    Alcotest.(check (list string)) "span keys"
      [ "v"; "type"; "name"; "frame"; "slot_start"; "slot_end"; "attrs" ]
      (obj_keys j);
    let s0 = check_int_field j "slot_start"
    and s1 = check_int_field j "slot_end" in
    Alcotest.(check bool) "span interval ordered" true (s0 <= s1);
    ignore (obj_keys (obj_field j "attrs"));
    "span"
  | Jstr "event" ->
    Alcotest.(check (list string)) "event keys"
      [ "v"; "type"; "name"; "frame"; "slot"; "attrs" ]
      (obj_keys j);
    ignore (obj_keys (obj_field j "attrs"));
    "event"
  | Jstr "metrics" ->
    Alcotest.(check (list string)) "metrics keys"
      [ "v"; "type"; "frame"; "rows" ]
      (obj_keys j);
    (match obj_field j "rows" with
    | Jarr rows ->
      List.iter
        (fun r ->
          Alcotest.(check (list string)) "row keys"
            [ "name"; "labels"; "kind"; "value" ]
            (obj_keys r);
          ignore (obj_keys (obj_field r "labels")))
        rows;
      if rows = [] then Alcotest.fail "empty metrics snapshot"
    | _ -> Alcotest.fail "rows is not an array");
    "metrics"
  | _ -> Alcotest.fail "unknown line type"

(* The same shape the CLI produces: a full Driver run writing through the
   JSONL sink, then every line re-parsed and schema-checked. *)
let wireline_run ~telemetry ~metrics_every ~seed =
  let g = Topology.line ~nodes:5 ~spacing:1. in
  let m = Graph.link_count g in
  let measure = Measure.identity m in
  let routing = Routing.make g in
  let path src dst = Option.get (Routing.path routing ~src ~dst) in
  let cfg =
    Protocol.configure ~epsilon:0.5 ~algorithm:Oneshot.algorithm ~measure
      ~lambda:0.3 ~max_hops:4 ()
  in
  let inj = Stochastic.make [ [ (path 0 4, 0.1) ]; [ (path 4 0, 0.1) ] ] in
  let rng = Rng.create ~seed () in
  Driver.run_traced ~telemetry ~metrics_every ~config:cfg
    ~oracle:Oracle.Wireline ~source:(Driver.Stochastic inj) ~frames:30 ~rng ()

let test_trace_round_trips () =
  with_temp_file (fun path ->
      let oc = open_out path in
      let t = Telemetry.make ~sinks:[ Sink.jsonl oc ] () in
      ignore (wireline_run ~telemetry:t ~metrics_every:7 ~seed:23);
      Telemetry.close t;
      let lines = read_lines path in
      let types = List.map validate_line lines in
      let count ty = List.length (List.filter (( = ) ty) types) in
      Alcotest.(check int) "one span per frame + driver.run" 31 (count "span");
      (* frames 7,14,21,28 plus the final snapshot *)
      Alcotest.(check int) "periodic + final metrics" 5 (count "metrics"))

(* -------------------------------- instrumentation must not change runs *)

let check_series name a b =
  Alcotest.(check int) (name ^ " length") (Timeseries.length a)
    (Timeseries.length b);
  for i = 0 to Timeseries.length a - 1 do
    Alcotest.(check (float 0.))
      (Printf.sprintf "%s[%d]" name i)
      (Timeseries.get a i) (Timeseries.get b i)
  done

let test_telemetry_leaves_run_unchanged () =
  let baseline = wireline_run ~telemetry:Telemetry.disabled ~metrics_every:0 ~seed:23 in
  let recorder = Memory_sink.create () in
  let t = Telemetry.make ~sinks:[ Memory_sink.sink recorder ] () in
  let traced = wireline_run ~telemetry:t ~metrics_every:3 ~seed:23 in
  Alcotest.(check bool) "trace non-empty" true
    (Memory_sink.events recorder <> []);
  Alcotest.(check int) "injected" baseline.Protocol.injected
    traced.Protocol.injected;
  Alcotest.(check int) "delivered" baseline.Protocol.delivered
    traced.Protocol.delivered;
  Alcotest.(check int) "failed_events" baseline.Protocol.failed_events
    traced.Protocol.failed_events;
  Alcotest.(check int) "max_queue" baseline.Protocol.max_queue
    traced.Protocol.max_queue;
  check_series "in_system" baseline.Protocol.in_system traced.Protocol.in_system;
  check_series "potential" baseline.Protocol.potential traced.Protocol.potential;
  check_series "failed_interference" baseline.Protocol.failed_interference
    traced.Protocol.failed_interference

(* --------------------------------------------------------- driver wiring *)

let test_driver_snapshot_cadence () =
  let recorder = Memory_sink.create () in
  let t = Telemetry.make ~sinks:[ Memory_sink.sink recorder ] () in
  ignore (wireline_run ~telemetry:t ~metrics_every:7 ~seed:23);
  let frames = List.map fst (Memory_sink.snapshots recorder) in
  Alcotest.(check (list int)) "snapshots at 7,14,21,28 + final"
    [ 7; 14; 21; 28; 30 ] frames;
  Alcotest.(check bool) "flushed at least once" true
    (Memory_sink.flushes recorder >= 1);
  match List.rev (Memory_sink.events recorder) with
  | Event.Span { name = "driver.run"; frame = 0; slot_start = 0; _ } :: _ -> ()
  | _ -> Alcotest.fail "last event is not the driver.run span"

(* Driver-driven golden: the JSONL event sequence of a whole
   [Driver.run_traced], pinned with frames (3) not divisible by the
   cadence (2) so the unconditional end-of-run snapshot is visibly
   distinct from the periodic one. A regression that drops the final
   snapshot, reorders it after the run span, or double-emits at the
   last frame breaks this list. *)
let test_driver_golden_sequence () =
  with_temp_file (fun path ->
      let oc = open_out path in
      let t = Telemetry.make ~sinks:[ Sink.jsonl oc ] () in
      let g = Topology.line ~nodes:3 ~spacing:1. in
      let m = Graph.link_count g in
      let cfg =
        Protocol.configure ~epsilon:0.5 ~algorithm:Oneshot.algorithm
          ~measure:(Measure.identity m) ~lambda:0.2 ~max_hops:2 ()
      in
      let rng = Rng.create ~seed:7 () in
      ignore
        (Driver.run_traced ~telemetry:t ~metrics_every:2 ~config:cfg
           ~oracle:Oracle.Wireline ~source:Driver.Silent ~frames:3 ~rng ());
      Telemetry.close t;
      let describe line =
        let j = parse_json line in
        match obj_field j "type" with
        | Jstr "metrics" ->
          Printf.sprintf "metrics@%d" (check_int_field j "frame")
        | Jstr ty -> (
          match obj_field j "name" with
          | Jstr name ->
            Printf.sprintf "%s %s@%d" ty name (check_int_field j "frame")
          | _ -> Alcotest.fail "name is not a string")
        | _ -> Alcotest.fail "type is not a string"
      in
      Alcotest.(check (list string))
        "periodic snapshot at 2, final at 3, run span last"
        [ "span protocol.frame@0";
          "span protocol.frame@1";
          "metrics@2";
          "span protocol.frame@2";
          "metrics@3";
          "span driver.run@0" ]
        (List.map describe (read_lines path)))

(* A run that dies mid-frame must still flush its sinks on the way out —
   a crashed experiment with an empty trace file is undebuggable. The
   injected path is longer than max_hops, so run_frame raises inside the
   first frame, before any span closes. *)
let test_flush_on_midrun_exception () =
  let g = Topology.line ~nodes:5 ~spacing:1. in
  let m = Graph.link_count g in
  let measure = Measure.identity m in
  let routing = Routing.make g in
  let path = Option.get (Routing.path routing ~src:0 ~dst:4) in
  let cfg =
    Protocol.configure ~epsilon:0.5 ~algorithm:Oneshot.algorithm ~measure
      ~lambda:0.2 ~max_hops:2 ()
  in
  let inj = Stochastic.make [ [ (path, 1.0) ] ] in
  let recorder = Memory_sink.create () in
  let t = Telemetry.make ~sinks:[ Memory_sink.sink recorder ] () in
  let rng = Rng.create ~seed:7 () in
  (try
     ignore
       (Driver.run_traced ~telemetry:t ~metrics_every:1 ~config:cfg
          ~oracle:Oracle.Wireline ~source:(Driver.Stochastic inj) ~frames:30
          ~rng ());
     Alcotest.fail "over-long path should have aborted the run"
   with Invalid_argument _ -> ());
  Alcotest.(check bool) "sinks flushed despite the abort" true
    (Memory_sink.flushes recorder >= 1);
  (* and the flush really was the abort path: the run span never closed *)
  let run_span_emitted =
    List.exists
      (function Event.Span { name = "driver.run"; _ } -> true | _ -> false)
      (Memory_sink.events recorder)
  in
  Alcotest.(check bool) "no driver.run span" false run_span_emitted

let test_driver_rejects_negative_cadence () =
  try
    ignore (wireline_run ~telemetry:Telemetry.disabled ~metrics_every:(-1) ~seed:1);
    Alcotest.fail "negative metrics_every accepted"
  with Invalid_argument _ -> ()

(* ---------------------------------------------------------- sweep wiring *)

let test_sweep_events () =
  let recorder = Memory_sink.create () in
  let t = Telemetry.make ~sinks:[ Memory_sink.sink recorder ] () in
  let outcome =
    Sweep.critical_rate ~telemetry:t
      ~probe:(fun r -> r <= 0.5)
      ~lo:0.1 ~hi:0.9 ~tolerance:0.1 ()
  in
  Alcotest.(check (float 1e-9)) "critical" 0.5 outcome.Sweep.critical;
  let events = Memory_sink.events recorder in
  let names =
    List.map
      (function
        | Event.Point { name; _ } -> name
        | Event.Span { name; _ } -> name)
      events
  in
  Alcotest.(check (list string)) "probe events then result"
    [ "sweep.probe"; "sweep.probe"; "sweep.probe"; "sweep.probe";
      "sweep.probe"; "sweep.result" ]
    names;
  Alcotest.(check int) "flushed" 1 (Memory_sink.flushes recorder)

(* -------------------------------------------------- metric snapshots *)

(* A small registry with all three metric kinds, advanced between the
   two captures the diff tests compare. *)
let snapshot_fixture () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~labels:[ ("k", "a") ] "snap.hits" in
  let g = Metrics.gauge reg "snap.depth" in
  let h = Metrics.histogram reg "snap.lat" in
  Metrics.add c 5;
  Metrics.set g 3.;
  Metrics.observe h 7;
  (reg, c, g, h)

let test_snapshot_capture_find () =
  let reg, _, _, _ = snapshot_fixture () in
  let s = Snapshot.capture ~frame:4 reg in
  Alcotest.(check int) "frame" 4 (Snapshot.frame s);
  Alcotest.(check (option (float 1e-9))) "counter, labels in any order"
    (Some 5.)
    (Snapshot.find s ~name:"snap.hits" ~labels:[ ("k", "a") ] ~kind:"counter");
  Alcotest.(check (option (float 1e-9))) "histogram count row" (Some 1.)
    (Snapshot.find s ~name:"snap.lat" ~labels:[] ~kind:"count");
  Alcotest.(check (option (float 1e-9))) "absent row" None
    (Snapshot.find s ~name:"snap.hits" ~labels:[] ~kind:"counter")

let test_snapshot_diff () =
  let reg, c, g, h = snapshot_fixture () in
  let base = Snapshot.capture ~frame:4 reg in
  Metrics.add c 3;
  Metrics.set g 9.;
  Metrics.observe h 50;
  (* a counter born after [base] must delta against zero *)
  let late = Metrics.counter reg "snap.late" in
  Metrics.add late 2;
  let now = Snapshot.capture ~frame:8 reg in
  let d = Snapshot.diff ~base now in
  Alcotest.(check int) "diff keeps the newer frame" 8 (Snapshot.frame d);
  let get ~name ~kind =
    Option.get
      (Snapshot.find d ~name
         ~labels:(if name = "snap.hits" then [ ("k", "a") ] else [])
         ~kind)
  in
  Alcotest.(check (float 1e-9)) "counter delta" 3. (get ~name:"snap.hits" ~kind:"counter");
  Alcotest.(check (float 1e-9)) "gauge passes through" 9.
    (get ~name:"snap.depth" ~kind:"gauge");
  Alcotest.(check (float 1e-9)) "histogram count delta" 1.
    (get ~name:"snap.lat" ~kind:"count");
  Alcotest.(check (float 1e-9)) "histogram sum delta" 50.
    (get ~name:"snap.lat" ~kind:"sum");
  Alcotest.(check (float 1e-9)) "quantile passes through"
    ((0.01 *. 7.) +. (0.99 *. 50.))
    (get ~name:"snap.lat" ~kind:"p99");
  Alcotest.(check (float 1e-9)) "new counter deltas against 0" 2.
    (get ~name:"snap.late" ~kind:"counter");
  (* a foreign base (larger counter) clamps instead of going negative *)
  let clamped = Snapshot.diff ~base:now (Snapshot.diff ~base now) in
  Alcotest.(check bool) "shrinkage clamps to 0" true
    (Option.get
       (Snapshot.find clamped ~name:"snap.hits" ~labels:[ ("k", "a") ]
          ~kind:"counter")
    = 0.);
  try
    ignore (Snapshot.diff ~base:now base);
    Alcotest.fail "base newer than snapshot accepted"
  with Invalid_argument _ -> ()

let test_snapshot_prometheus () =
  let reg, _, _, _ = snapshot_fixture () in
  let s = Snapshot.capture ~frame:4 reg in
  Alcotest.(check string) "text exposition"
    "# TYPE snap_depth gauge\n\
     snap_depth 3\n\
     # TYPE snap_hits counter\n\
     snap_hits{k=\"a\"} 5\n\
     # TYPE snap_lat summary\n\
     snap_lat_count 1\n\
     snap_lat_max 7\n\
     snap_lat_min 7\n\
     snap_lat{quantile=\"0.5\"} 7\n\
     snap_lat{quantile=\"0.9\"} 7\n\
     snap_lat{quantile=\"0.99\"} 7\n\
     snap_lat_sum 7\n"
    (Snapshot.to_prometheus s)

let test_snapshot_of_rows_sorts () =
  let rows =
    [ { Metrics.name = "z.b"; labels = []; kind = "gauge"; value = 1. };
      { Metrics.name = "a.a"; labels = []; kind = "counter"; value = 2. } ]
  in
  let s = Snapshot.of_rows ~frame:0 (rows : Metrics.row list) in
  Alcotest.(check (list string)) "canonical order" [ "a.a"; "z.b" ]
    (List.map (fun (r : Metrics.row) -> r.Metrics.name) (Snapshot.rows s))

(* The cached encoder's only contract is byte-for-byte agreement with
   [Sink.metrics_line], warm or cold: across value-only changes (cache
   hit), across a registry shape change (attach-style rebuild), and on
   rows whose strings are NOT physically shared with any registry (a
   permanent cache miss — still correct, just uncached). *)
let test_cached_encoder_identity () =
  let reg, c, g, h = snapshot_fixture () in
  let enc = Sink.cached_encoder () in
  let b = Buffer.create 256 in
  let check_frame msg frame rows =
    Buffer.clear b;
    Sink.add_metrics_line_cached enc b ~frame rows;
    Alcotest.(check string) msg (Sink.metrics_line ~frame rows)
      (Buffer.contents b)
  in
  check_frame "cold cache" 1 (Metrics.snapshot reg);
  Metrics.add c 2;
  Metrics.set g 11.5;
  Metrics.observe h 42;
  check_frame "warm cache, values moved" 2 (Metrics.snapshot reg);
  let late = Metrics.counter reg ~labels:[ ("k", "b") ] "snap.hits" in
  Metrics.add late 1;
  check_frame "registry shape changed" 3 (Metrics.snapshot reg);
  let foreign =
    [ { Metrics.name = "other.metric"; labels = [ ("x", "y") ];
        kind = "gauge"; value = 0.25 } ]
  in
  check_frame "foreign rows (cache miss)" 4 foreign;
  check_frame "back to the registry" 5 (Metrics.snapshot reg)

(* --------------------------------------------- locking sink under load *)

(* Writers on 4 domains hammer one Sink.locking (jsonl to a pipe-backed
   channel): every line read back must be a complete, parseable event
   (no torn interleavings) and nothing may be lost or duplicated. *)
let test_locking_sink_concurrent () =
  let path = Filename.temp_file "dps_locking_sink" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      let sink = Sink.locking (Sink.jsonl oc) in
      let domains = 4 and per_domain = 500 in
      let writer d () =
        for i = 1 to per_domain do
          sink.Sink.on_event
            (Event.Point
               { name = "load";
                 frame = d;
                 slot = i;
                 attrs = [ ("writer", Event.Int d) ] })
        done
      in
      let spawned =
        List.init domains (fun d -> Domain.spawn (writer d))
      in
      List.iter Domain.join spawned;
      sink.Sink.flush ();
      close_out oc;
      let ic = open_in path in
      let seen = Hashtbl.create 64 in
      let lines = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lines;
           (* a torn line would fail to parse (or parse to the wrong
              shape) *)
           match Dps_trace.Json.parse line with
           | Dps_trace.Json.Obj _ as j ->
             let d =
               Dps_trace.Json.to_int
                 (Dps_trace.Json.field "writer"
                    (Dps_trace.Json.field "attrs" j))
             in
             Hashtbl.replace seen d (1 + Option.value ~default:0 (Hashtbl.find_opt seen d))
           | _ -> Alcotest.fail ("non-object line: " ^ line)
         done
       with End_of_file -> close_in ic);
      Alcotest.(check int) "no line lost or torn" (domains * per_domain)
        !lines;
      for d = 0 to domains - 1 do
        Alcotest.(check int)
          (Printf.sprintf "writer %d fully accounted" d)
          per_domain
          (Option.value ~default:0 (Hashtbl.find_opt seen d))
      done)

(* ------------------------------------------------------------------ run *)

let () =
  Alcotest.run "telemetry"
    [ ( "event",
        [ Alcotest.test_case "schema version" `Quick test_schema_version;
          Alcotest.test_case "span json" `Quick test_span_json;
          Alcotest.test_case "point json" `Quick test_point_json;
          Alcotest.test_case "float rendering" `Quick test_float_rendering;
          Alcotest.test_case "string escaping" `Quick test_escape ] );
      ( "histo",
        [ Alcotest.test_case "basics" `Quick test_histo_basics;
          Alcotest.test_case "rejects" `Quick test_histo_rejects;
          Alcotest.test_case "boundary samples" `Quick
            test_histo_boundary_samples;
          Alcotest.test_case "single sample" `Quick test_histo_single_sample;
          Alcotest.test_case "merge disjoint ranges" `Quick
            test_histo_merge_disjoint_ranges;
          QCheck_alcotest.to_alcotest prop_quantile_monotone_bounded ] );
      ( "snapshot",
        [ Alcotest.test_case "capture and find" `Quick
            test_snapshot_capture_find;
          Alcotest.test_case "diff" `Quick test_snapshot_diff;
          Alcotest.test_case "prometheus exposition" `Quick
            test_snapshot_prometheus;
          Alcotest.test_case "of_rows sorts" `Quick
            test_snapshot_of_rows_sorts ] );
      ( "metrics",
        [ Alcotest.test_case "counter and gauge" `Quick
            test_metrics_counter_gauge;
          Alcotest.test_case "validation" `Quick test_metrics_validation;
          Alcotest.test_case "snapshot order" `Quick
            test_metrics_snapshot_order;
          Alcotest.test_case "histogram rows" `Quick
            test_metrics_histogram_rows ] );
      ( "sinks",
        [ Alcotest.test_case "csv" `Quick test_csv_sink;
          Alcotest.test_case "golden jsonl" `Quick test_golden_jsonl;
          Alcotest.test_case "deterministic" `Quick
            test_trace_is_deterministic;
          Alcotest.test_case "round-trip" `Quick test_trace_round_trips;
          Alcotest.test_case "locking under concurrent writers" `Quick
            test_locking_sink_concurrent;
          Alcotest.test_case "cached encoder byte-identity" `Quick
            test_cached_encoder_identity ] );
      ( "wiring",
        [ Alcotest.test_case "runs unchanged" `Quick
            test_telemetry_leaves_run_unchanged;
          Alcotest.test_case "snapshot cadence" `Quick
            test_driver_snapshot_cadence;
          Alcotest.test_case "driver golden sequence" `Quick
            test_driver_golden_sequence;
          Alcotest.test_case "negative cadence" `Quick
            test_driver_rejects_negative_cadence;
          Alcotest.test_case "flush on mid-run exception" `Quick
            test_flush_on_midrun_exception;
          Alcotest.test_case "sweep events" `Quick test_sweep_events ] ) ]
