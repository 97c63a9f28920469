module Rng = Dps_prelude.Rng
module Path = Dps_network.Path
module Measure = Dps_interference.Measure
module Channel = Dps_sim.Channel
module Protocol = Dps_core.Protocol
module Plan = Dps_faults.Plan
module Injector = Dps_faults.Injector
module Class_guard = Dps_faults.Class_guard
module Telemetry = Dps_telemetry.Telemetry
module Metrics = Dps_telemetry.Metrics
module Histogram = Dps_prelude.Histogram
module Sink = Dps_telemetry.Sink
module Json = Dps_trace.Json
module Reader = Dps_trace.Reader

type config = {
  scenario : Scenario.t;
  seed : int;
  guard : string option;
  faults : string option;
  checkpoint_every : int;
  metrics_every : int;
}

let default_config ?guard ?faults ?(checkpoint_every = 16)
    ?(metrics_every = 0) ~scenario ~seed () =
  { scenario; seed; guard; faults; checkpoint_every; metrics_every }

type tenant = {
  tname : string;
  klass : Classes.t;
  bucket : Bucket.t;
  c_admitted : Metrics.counter;
  c_shed : Metrics.counter;
  c_quota : Metrics.counter;
  c_delivered : Metrics.counter;
}

(* Per-class accounting, indexed by Classes.priority. *)
type class_stats = {
  h_latency : Metrics.histogram;
  c_budget : Metrics.counter;
  c_class_shed : Metrics.counter;
  c_class_admitted : Metrics.counter;
  c_class_denied : Metrics.counter;
  g_burn : Metrics.gauge;  (* p99 latency / delay budget, per frame *)
  g_shed_rate : Metrics.gauge;
  g_deny_rate : Metrics.gauge;
  budget_slots : int;
}

type checkpointing = { dir : string; journal : out_channel }

type outcome =
  | Admitted of { first_id : int; copies : int }
  | Shed of { klass : Classes.t }
  | Overloaded of { retry_after : int }
  | Too_large of { burst : float }

type t = {
  cfg : config;
  built : Scenario.built;
  tel : Telemetry.t;
  rng : Rng.t;
  protocol : Protocol.t;
  injector : Injector.t option;
  guard : Class_guard.t option;
  by_name : (string, tenant) Hashtbl.t;
  in_flight_tenant : (int, tenant) Hashtbl.t;
  class_stats : class_stats array;
  g_frames : Metrics.gauge;
  g_pending : Metrics.gauge;
  g_tenants : Metrics.gauge;
  g_jain : Metrics.gauge;
  g_queue_watermark : Metrics.gauge;
  g_pending_watermark : Metrics.gauge;
  mutable sub : (int * (string -> unit)) option;
      (* metrics push: cadence in frames + writer; never journaled *)
  sub_buf : Buffer.t;  (* scratch for rendering pushes, reused across frames *)
  sub_enc : Sink.cached_encoder;  (* row-prefix cache for the same *)
  mutable pending : (Path.t * int) list;  (* reversed arrival order *)
  mutable pending_copies : int;
  mutable fresh_frame : bool;
  mutable ops : int;  (* journaled (or replayed) state-changing ops *)
  mutable frames_since_ckpt : int;
  mutable ck : checkpointing option;
  mutable closed : bool;
}

let make_engine ?(sinks = []) ?(jobs = 1) cfg =
  if cfg.checkpoint_every < 0 then
    invalid_arg "Engine: checkpoint_every must be >= 0";
  if cfg.metrics_every < 0 then invalid_arg "Engine: metrics_every must be >= 0";
  if jobs < 1 then invalid_arg "Engine: jobs must be >= 1";
  let built = Scenario.build ~jobs cfg.scenario in
  let guard = Option.map Class_guard.parse cfg.guard in
  let plan =
    match cfg.faults with None -> Plan.empty | Some s -> Plan.parse s
  in
  let tel = Telemetry.make ~sinks () in
  let reg = Telemetry.metrics tel in
  let m = Measure.size built.Scenario.config.Protocol.measure in
  let frame_slots = built.Scenario.config.Protocol.frame in
  (* Same rng-split discipline as Driver.run_faulted_traced: the channel
     takes the first split; the fault layer splits only when the plan
     draws randomness, so a loss-free plan leaves the protocol's stream
     untouched. *)
  let rng = Rng.create ~seed:cfg.seed () in
  let channel_rng = Rng.split rng in
  let plan_measure =
    if Plan.needs_measure plan then Some built.Scenario.config.Protocol.measure
    else None
  in
  let injector, faults =
    if Plan.is_empty plan then (None, None)
    else begin
      let fault_rng =
        if Plan.needs_rng plan then Some (Rng.split rng) else None
      in
      let inj =
        Injector.create ?rng:fault_rng ?measure:plan_measure ~telemetry:tel
          ~frame_length:frame_slots ~m plan
      in
      (Some inj, Some (Injector.hook inj))
    end
  in
  let channel =
    Channel.create ~rng:channel_rng ?measure:plan_measure ~telemetry:tel
      ?faults ~jobs ~oracle:built.Scenario.oracle ~m ()
  in
  let class_stats =
    Array.of_list
      (List.map
         (fun k ->
           let labels = [ ("class", Classes.to_string k) ] in
           { h_latency = Metrics.histogram reg ~labels "serve.latency.slots";
             c_budget = Metrics.counter reg ~labels "serve.budget.violations";
             c_class_shed = Metrics.counter reg ~labels "serve.shed.packets";
             c_class_admitted =
               Metrics.counter reg ~labels "serve.admitted.packets";
             c_class_denied = Metrics.counter reg ~labels "serve.deny.packets";
             g_burn = Metrics.gauge reg ~labels "serve.budget.burn";
             g_shed_rate = Metrics.gauge reg ~labels "serve.shed.rate";
             g_deny_rate = Metrics.gauge reg ~labels "serve.deny.rate";
             budget_slots = Classes.default_budget_frames k * frame_slots })
         Classes.all)
  in
  let in_flight_tenant = Hashtbl.create 512 in
  (* Delivery attribution: ids were recorded at admission, so the hook is
     one hash lookup; removal keeps the table bounded by packets
     actually in flight. *)
  let on_deliver ~id ~latency =
    match Hashtbl.find_opt in_flight_tenant id with
    | None -> ()
    | Some ten ->
      Hashtbl.remove in_flight_tenant id;
      Metrics.incr ten.c_delivered;
      let cs = class_stats.(Classes.priority ten.klass) in
      Metrics.observe cs.h_latency latency;
      if latency > cs.budget_slots then Metrics.incr cs.c_budget
  in
  let protocol =
    Protocol.create ~telemetry:tel ~on_deliver ~jobs built.Scenario.config
      ~channel
  in
  { cfg;
    built;
    tel;
    rng;
    protocol;
    injector;
    guard;
    by_name = Hashtbl.create 16;
    in_flight_tenant;
    class_stats;
    g_frames = Metrics.gauge reg "serve.uptime.frames";
    g_pending = Metrics.gauge reg "serve.pending";
    g_tenants = Metrics.gauge reg "serve.tenants";
    g_jain = Metrics.gauge reg "serve.fairness.jain";
    g_queue_watermark = Metrics.gauge reg "serve.queue.watermark";
    g_pending_watermark = Metrics.gauge reg "serve.pending.watermark";
    sub = None;
    sub_buf = Buffer.create 4096;
    sub_enc = Sink.cached_encoder ();
    pending = [];
    pending_copies = 0;
    fresh_frame = false;
    ops = 0;
    frames_since_ckpt = 0;
    ck = None;
    closed = false }
  |> fun t ->
  (* An empty system is perfectly fair: Jain's index reads 1 before the
     first tenant attaches, not a meaningless 0. *)
  Metrics.set t.g_jain 1.;
  t

(* -------------------------------------------------- checkpoint files *)

let header_path dir = Filename.concat dir "header.json"
let journal_path dir = Filename.concat dir "journal.jsonl"

let fsync_out oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

(* Durability of the rename itself needs the directory entry flushed;
   best-effort, since not every filesystem lets you open a directory. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let header_json t =
  let r = Protocol.report t.protocol in
  Wire.obj
    ([ ("v", Wire.Int 1);
       ("scenario", Wire.Raw (Scenario.to_json t.cfg.scenario));
       ("seed", Wire.Int t.cfg.seed) ]
    @ (match t.cfg.guard with
      | None -> []
      | Some s -> [ ("guard", Wire.Str s) ])
    @ (match t.cfg.faults with
      | None -> []
      | Some s -> [ ("faults", Wire.Str s) ])
    @ [ ("checkpoint_every", Wire.Int t.cfg.checkpoint_every);
        ("metrics_every", Wire.Int t.cfg.metrics_every);
        ("ops", Wire.Int t.ops);
        ("frame", Wire.Int r.Protocol.frames);
        ("injected", Wire.Int r.Protocol.injected);
        ("delivered", Wire.Int r.Protocol.delivered) ])

(* Journal first (fsync), then the header via tmp + fsync + atomic
   rename: the header a restart reads never refers to journal bytes
   that did not reach the disk. *)
let checkpoint t =
  match t.ck with
  | None -> ()
  | Some ck ->
    fsync_out ck.journal;
    let target = header_path ck.dir in
    let tmp = target ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc (header_json t);
    output_char oc '\n';
    fsync_out oc;
    close_out oc;
    Sys.rename tmp target;
    fsync_dir ck.dir;
    t.frames_since_ckpt <- 0

(* Every state-changing op appends one line, flushed immediately: the
   journal survives a kill -9 up to the last completed op (a torn final
   line is classified and dropped on restore); fsync happens at
   checkpoints, bounding loss on power failure to [checkpoint_every]
   frames. *)
let journal_op t line =
  t.ops <- t.ops + 1;
  match t.ck with
  | None -> ()
  | Some ck ->
    output_string ck.journal line;
    output_char ck.journal '\n';
    flush ck.journal

(* ------------------------------------------------------- operations *)

let class_shedding t klass =
  match t.guard with
  | None -> false
  | Some g ->
    let p = Classes.priority klass in
    p < Class_guard.levels g && Class_guard.shedding g ~priority:p

let attach_impl t ~record ~tenant ~klass ~rate ~burst =
  if not (Wire.valid_tenant_name tenant) then
    Error
      (Printf.sprintf
         "invalid tenant name %S (allowed: [A-Za-z0-9_-], at most 64 chars)"
         tenant)
  else if Hashtbl.mem t.by_name tenant then
    Error ("tenant already attached: " ^ tenant)
  else
    match Bucket.create ~rate ~burst with
    | exception Invalid_argument msg -> Error msg
    | bucket ->
      (* The class label rides along on every per-tenant metric so
         downstream consumers (dps_top, Prometheus) can group tenants by
         class without a side channel. *)
      let labels =
        [ ("class", Classes.to_string klass); ("tenant", tenant) ]
      in
      let reg = Telemetry.metrics t.tel in
      let ten =
        { tname = tenant;
          klass;
          bucket;
          c_admitted = Metrics.counter reg ~labels "serve.admitted";
          c_shed = Metrics.counter reg ~labels "serve.shed";
          c_quota = Metrics.counter reg ~labels "serve.rejected.quota";
          c_delivered = Metrics.counter reg ~labels "serve.delivered" }
      in
      Hashtbl.replace t.by_name tenant ten;
      Metrics.set t.g_tenants (float_of_int (Hashtbl.length t.by_name));
      if record then
        journal_op t
          (Wire.obj
             [ ("op", Wire.Str "attach");
               ("tenant", Wire.Str tenant);
               ("class", Wire.Str (Classes.to_string klass));
               ("rate", Wire.Float rate);
               ("burst", Wire.Float burst) ]);
      Ok ()

let attach t ~tenant ~klass ?rate ?burst () =
  let rate = Option.value rate ~default:(Classes.default_rate klass) in
  let burst = Option.value burst ~default:(Classes.default_burst klass) in
  attach_impl t ~record:true ~tenant ~klass ~rate ~burst

let detach_impl t ~record ~tenant =
  if not (Hashtbl.mem t.by_name tenant) then
    Error ("unknown tenant: " ^ tenant)
  else begin
    Hashtbl.remove t.by_name tenant;
    Metrics.set t.g_tenants (float_of_int (Hashtbl.length t.by_name));
    if record then
      journal_op t
        (Wire.obj [ ("op", Wire.Str "detach"); ("tenant", Wire.Str tenant) ]);
    Ok ()
  end

let detach t ~tenant = detach_impl t ~record:true ~tenant

let outcome_fields = function
  | Admitted { first_id; copies = _ } ->
    [ ("outcome", Wire.Str "admitted"); ("id", Wire.Int first_id) ]
  | Shed _ -> [ ("outcome", Wire.Str "shed") ]
  | Overloaded { retry_after } ->
    [ ("outcome", Wire.Str "overloaded"); ("retry", Wire.Int retry_after) ]
  | Too_large { burst } ->
    [ ("outcome", Wire.Str "too-large"); ("burst", Wire.Float burst) ]

(* Admission order (fixed — replay depends on it): attached tenant,
   valid path, class guard, token bucket. A shed or quota rejection
   consumes no tokens, so bucket state is a pure function of the
   admitted stream. *)
let submit_impl t ~record ~tenant ~links ~delay ~copies =
  if delay < 0 then Error "delay must be >= 0"
  else if copies < 1 then Error "copies must be >= 1"
  else
    match Hashtbl.find_opt t.by_name tenant with
    | None -> Error ("unknown tenant: " ^ tenant)
    | Some ten -> (
      match Path.of_links t.built.Scenario.graph links with
      | exception Invalid_argument msg -> Error msg
      | path ->
        if Path.length path > t.built.Scenario.max_hops then
          Error
            (Printf.sprintf "path has %d hops; max is %d" (Path.length path)
               t.built.Scenario.max_hops)
        else begin
          let outcome =
            if class_shedding t ten.klass then begin
              Metrics.add ten.c_shed copies;
              Metrics.add
                t.class_stats.(Classes.priority ten.klass).c_class_shed copies;
              Shed { klass = ten.klass }
            end
            else if not (Bucket.can_ever ten.bucket copies) then
              Too_large { burst = Bucket.burst ten.bucket }
            else if Bucket.take ten.bucket copies then begin
              (* Ids are allocated sequentially in arrival order and the
                 engine is the only traffic source, so the ids of this
                 batch are exactly the next [copies] after everything
                 already pending. *)
              let first_id =
                Protocol.next_packet_id t.protocol + t.pending_copies
              in
              for k = 0 to copies - 1 do
                Hashtbl.replace t.in_flight_tenant (first_id + k) ten
              done;
              for _ = 1 to copies do
                t.pending <- (path, delay) :: t.pending
              done;
              t.pending_copies <- t.pending_copies + copies;
              Metrics.add ten.c_admitted copies;
              Metrics.add
                t.class_stats.(Classes.priority ten.klass).c_class_admitted
                copies;
              Metrics.set t.g_pending (float_of_int t.pending_copies);
              Admitted { first_id; copies }
            end
            else begin
              Metrics.incr ten.c_quota;
              Metrics.add
                t.class_stats.(Classes.priority ten.klass).c_class_denied
                copies;
              Overloaded { retry_after = Bucket.frames_until ten.bucket copies }
            end
          in
          if record then
            journal_op t
              (Wire.obj
                 ([ ("op", Wire.Str "inject");
                    ("tenant", Wire.Str tenant);
                    ("path",
                     Wire.Raw (Wire.arr (List.map (fun i -> Wire.Int i) links)));
                    ("delay", Wire.Int delay);
                    ("copies", Wire.Int copies) ]
                 @ outcome_fields outcome));
          Ok outcome
        end)

let submit t ~tenant ~links ~delay ~copies =
  submit_impl t ~record:true ~tenant ~links ~delay ~copies

(* ----------------------------------------------------- observability *)

(* Jain's fairness index over per-tenant admitted counts:
   (sum x)^2 / (n * sum x^2), 1 when every share is equal, 1/n when one
   tenant has everything. An empty or all-idle system is perfectly fair
   by convention (1, not a meaningless 0/0). *)
let jain_index t =
  let n = Hashtbl.length t.by_name in
  if n = 0 then 1.
  else begin
    let s = ref 0. and s2 = ref 0. in
    Hashtbl.iter
      (fun _ ten ->
        let x = float_of_int (Metrics.counter_value ten.c_admitted) in
        s := !s +. x;
        s2 := !s2 +. (x *. x))
      t.by_name;
    if !s2 = 0. then 1. else !s *. !s /. (float_of_int n *. !s2)
  end

(* Delay-budget burn: p99 delivery latency as a fraction of the class
   budget. Above 1 means the tail is blowing its budget; 0 while no
   sample has been delivered. *)
let class_burn cs =
  let h = Metrics.histo cs.h_latency in
  if Histogram.count h = 0 || cs.budget_slots = 0 then 0.
  else Histogram.quantile h 0.99 /. float_of_int cs.budget_slots

(* Fraction of submitted copies lost to [c] (shed or deny) relative to
   everything that reached the same decision point; 0 when idle. *)
let class_loss_rate ~admitted c =
  let x = float_of_int (Metrics.counter_value c) in
  let a = float_of_int (Metrics.counter_value admitted) in
  if x +. a = 0. then 0. else x /. (x +. a)

(* Refresh every derived gauge from the raw counters/histograms. Cheap
   (a hashtable fold and a few quantile interpolations) and
   deterministic, so it runs at every frame boundary rather than only
   on scrape — the metrics stream always carries current values. *)
let update_observability t =
  Metrics.set t.g_jain (jain_index t);
  Array.iter
    (fun cs ->
      Metrics.set cs.g_burn (class_burn cs);
      Metrics.set cs.g_shed_rate
        (class_loss_rate ~admitted:cs.c_class_admitted cs.c_class_shed);
      Metrics.set cs.g_deny_rate
        (class_loss_rate ~admitted:cs.c_class_admitted cs.c_class_denied))
    t.class_stats;
  let bump g v = if v > Metrics.gauge_value g then Metrics.set g v in
  bump t.g_queue_watermark (float_of_int (Protocol.in_flight t.protocol));
  bump t.g_pending_watermark (float_of_int t.pending_copies)

let run_frames t n =
  for _ = 1 to n do
    t.fresh_frame <- true;
    Protocol.run_frame t.protocol t.rng ~inject_slot:(fun _slot ->
        if t.fresh_frame then begin
          t.fresh_frame <- false;
          let batch = List.rev t.pending in
          t.pending <- [];
          t.pending_copies <- 0;
          batch
        end
        else []);
    let fr = Protocol.frame_index t.protocol in
    (match t.guard with
    | None -> ()
    | Some g ->
      Class_guard.observe g ~frame:fr
        ~potential:(Protocol.potential t.protocol));
    Hashtbl.iter (fun _ ten -> Bucket.refill ten.bucket) t.by_name;
    Metrics.set t.g_frames (float_of_int fr);
    Metrics.set t.g_pending (float_of_int t.pending_copies);
    update_observability t;
    t.frames_since_ckpt <- t.frames_since_ckpt + 1;
    if t.cfg.metrics_every > 0 && fr mod t.cfg.metrics_every = 0 then
      Telemetry.emit_metrics t.tel ~frame:fr;
    (* Subscription push: journal-exempt by construction — it happens
       after the frame boundary and writes only to the reply stream, so
       the journal still records this step as one "frames" op and replay
       stays byte-identical. A push that raises (dead client) is
       detached on the spot: letting it escape mid-step would advance
       state the journal never sees. *)
    (match t.sub with
    | Some (every, push) when fr mod every = 0 -> (
      Buffer.clear t.sub_buf;
      Sink.add_metrics_line_cached t.sub_enc t.sub_buf ~frame:fr
        (Metrics.snapshot (Telemetry.metrics t.tel));
      let line = Buffer.contents t.sub_buf in
      try push line with _ -> t.sub <- None)
    | _ -> ())
  done

let step_impl t ~record ~frames =
  if frames < 1 then invalid_arg "Engine.step: frames must be >= 1";
  run_frames t frames;
  if record then begin
    journal_op t
      (Wire.obj [ ("op", Wire.Str "frames"); ("count", Wire.Int frames) ]);
    if
      t.ck <> None
      && t.cfg.checkpoint_every > 0
      && t.frames_since_ckpt >= t.cfg.checkpoint_every
    then checkpoint t
  end

let step t ~frames = step_impl t ~record:true ~frames

(* -------------------------------------------------------- accessors *)

let frame t = Protocol.frame_index t.protocol
let in_flight t = Protocol.in_flight t.protocol
let pending t = t.pending_copies
let tenants t = Hashtbl.length t.by_name
let potential t = Protocol.potential t.protocol
let report t = Protocol.report t.protocol
let telemetry t = t.tel
let injector t = t.injector
let shedding t ~klass = class_shedding t klass

let class_latency t ~klass =
  Metrics.histo t.class_stats.(Classes.priority klass).h_latency

let class_shed t ~klass =
  Metrics.counter_value t.class_stats.(Classes.priority klass).c_class_shed

let budget_violations t ~klass =
  Metrics.counter_value t.class_stats.(Classes.priority klass).c_budget

let tenant_stats t ~tenant =
  match Hashtbl.find_opt t.by_name tenant with
  | None -> None
  | Some ten ->
    Some
      ( ten.klass,
        Metrics.counter_value ten.c_admitted,
        Metrics.counter_value ten.c_delivered )

let status_fields t =
  let r = Protocol.report t.protocol in
  let rows = Metrics.snapshot (Telemetry.metrics t.tel) in
  [ ("frame", Wire.Int r.Protocol.frames);
    ("in_flight", Wire.Int (Protocol.in_flight t.protocol));
    ("pending", Wire.Int t.pending_copies);
    ("tenants", Wire.Int (Hashtbl.length t.by_name));
    ("injected", Wire.Int r.Protocol.injected);
    ("delivered", Wire.Int r.Protocol.delivered);
    ("potential", Wire.Int (Protocol.potential t.protocol));
    ("shedding",
     Wire.Raw
       (Wire.obj
          (List.map
             (fun k -> (Classes.to_string k, Wire.Bool (class_shedding t k)))
             Classes.all)));
    ("metrics", Wire.Raw (Sink.metrics_line ~frame:r.Protocol.frames rows)) ]

(* Read-only by design: everything is recomputed from the raw counters
   rather than read from (or written to) the derived gauges, so a
   "stats" between frames reports current values without perturbing any
   state the metrics stream or a restore replay could observe. *)
let stats_fields t =
  let tenants =
    Hashtbl.fold (fun _ ten acc -> ten :: acc) t.by_name []
    |> List.sort (fun a b -> compare a.tname b.tname)
  in
  let total_admitted =
    List.fold_left
      (fun acc ten -> acc + Metrics.counter_value ten.c_admitted)
      0 tenants
  in
  let tenant_row ten =
    let admitted = Metrics.counter_value ten.c_admitted in
    let share =
      if total_admitted = 0 then 0.
      else float_of_int admitted /. float_of_int total_admitted
    in
    Wire.Raw
      (Wire.obj
         [ ("tenant", Wire.Str ten.tname);
           ("class", Wire.Str (Classes.to_string ten.klass));
           ("admitted", Wire.Int admitted);
           ("shed", Wire.Int (Metrics.counter_value ten.c_shed));
           ("rejected", Wire.Int (Metrics.counter_value ten.c_quota));
           ("delivered", Wire.Int (Metrics.counter_value ten.c_delivered));
           ("share", Wire.Float share) ])
  in
  let class_row k =
    let cs = t.class_stats.(Classes.priority k) in
    let h = Metrics.histo cs.h_latency in
    let quantiles =
      if Histogram.count h = 0 then []
      else
        [ ("p50", Wire.Float (Histogram.quantile h 0.5));
          ("p99", Wire.Float (Histogram.quantile h 0.99)) ]
    in
    Wire.Raw
      (Wire.obj
         ([ ("class", Wire.Str (Classes.to_string k));
            ("admitted", Wire.Int (Metrics.counter_value cs.c_class_admitted));
            ("denied", Wire.Int (Metrics.counter_value cs.c_class_denied));
            ("shed", Wire.Int (Metrics.counter_value cs.c_class_shed));
            ("violations", Wire.Int (Metrics.counter_value cs.c_budget));
            ("delivered", Wire.Int (Histogram.count h));
            ("budget_slots", Wire.Int cs.budget_slots);
            ("burn", Wire.Float (class_burn cs));
            ("shed_rate",
             Wire.Float
               (class_loss_rate ~admitted:cs.c_class_admitted cs.c_class_shed));
            ("deny_rate",
             Wire.Float
               (class_loss_rate ~admitted:cs.c_class_admitted cs.c_class_denied))
          ]
         @ quantiles))
  in
  [ ("frame", Wire.Int (Protocol.frame_index t.protocol));
    ("jain", Wire.Float (jain_index t));
    ("in_flight", Wire.Int (Protocol.in_flight t.protocol));
    ("pending", Wire.Int t.pending_copies);
    ("queue_watermark",
     Wire.Int (int_of_float (Metrics.gauge_value t.g_queue_watermark)));
    ("pending_watermark",
     Wire.Int (int_of_float (Metrics.gauge_value t.g_pending_watermark)));
    ("tenants", Wire.Raw (Wire.arr (List.map tenant_row tenants)));
    ("classes", Wire.Raw (Wire.arr (List.map class_row Classes.all))) ]

(* ------------------------------------------------------ subscription *)

let subscribe t ~every ~push =
  if every < 1 then Error "field \"every\" must be >= 1"
  else begin
    t.sub <- Some (every, push);
    Ok ()
  end

let unsubscribe t =
  let was = t.sub <> None in
  t.sub <- None;
  was

let subscribed t = Option.map fst t.sub

(* --------------------------------------------------- create / close *)

let create ?sinks ?checkpoint_dir ?jobs cfg =
  let t = make_engine ?sinks ?jobs cfg in
  (match checkpoint_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let journal =
      open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644
        (journal_path dir)
    in
    t.ck <- Some { dir; journal };
    checkpoint t);
  t

let close t =
  if not t.closed then begin
    t.closed <- true;
    Telemetry.emit_metrics t.tel ~frame:(Protocol.frame_index t.protocol);
    checkpoint t;
    (match t.ck with None -> () | Some ck -> close_out ck.journal);
    t.ck <- None;
    Telemetry.flush t.tel
  end

(* ----------------------------------------------------------- restore *)

type restore_report = {
  replayed_ops : int;
  replayed_frames : int;
  dropped_tail : bool;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ( let* ) = Result.bind

let json_str name j =
  match Json.member name j with
  | Some (Json.Str s) -> Ok s
  | _ -> Error (Printf.sprintf "missing field %S" name)

let json_int name j =
  match Json.member name j with
  | Some v -> (
    match Json.to_int v with
    | i -> Ok i
    | exception Json.Error _ ->
      Error (Printf.sprintf "field %S must be an integer" name))
  | None -> Error (Printf.sprintf "missing field %S" name)

let json_float name j =
  match Json.member name j with
  | Some v -> (
    match Json.to_float v with
    | f -> Ok f
    | exception Json.Error _ ->
      Error (Printf.sprintf "field %S must be a number" name))
  | None -> Error (Printf.sprintf "missing field %S" name)

let json_str_opt name j =
  match Json.member name j with Some (Json.Str s) -> Some s | _ -> None

(* Re-execute one journaled op through the same code path that produced
   it; for injections the journaled outcome doubles as an integrity
   check — replay is deterministic, so any disagreement means the
   journal does not belong to this checkpoint. *)
let apply_op t ~lineno j =
  let fail msg = Error (Printf.sprintf "journal line %d: %s" lineno msg) in
  let lift = function Ok v -> Ok v | Error msg -> fail msg in
  let* op = lift (json_str "op" j) in
  match op with
  | "attach" ->
    let* tenant = lift (json_str "tenant" j) in
    let* klass = lift (json_str "class" j) in
    let* klass = lift (Classes.of_string klass) in
    let* rate = lift (json_float "rate" j) in
    let* burst = lift (json_float "burst" j) in
    lift (attach_impl t ~record:false ~tenant ~klass ~rate ~burst)
  | "detach" ->
    let* tenant = lift (json_str "tenant" j) in
    lift (detach_impl t ~record:false ~tenant)
  | "inject" ->
    let* tenant = lift (json_str "tenant" j) in
    let* links =
      match Json.member "path" j with
      | Some (Json.Arr items) -> (
        match List.map Json.to_int items with
        | links -> Ok links
        | exception Json.Error _ -> fail "field \"path\" must hold integers")
      | _ -> fail "missing field \"path\""
    in
    let* delay = lift (json_int "delay" j) in
    let* copies = lift (json_int "copies" j) in
    let* expected = lift (json_str "outcome" j) in
    let* outcome =
      lift (submit_impl t ~record:false ~tenant ~links ~delay ~copies)
    in
    let got, detail_ok =
      match outcome with
      | Admitted { first_id; _ } ->
        ("admitted", json_int "id" j = Ok first_id)
      | Shed _ -> ("shed", true)
      | Overloaded { retry_after } ->
        ("overloaded", json_int "retry" j = Ok retry_after)
      | Too_large _ -> ("too-large", true)
    in
    if got <> expected then
      fail
        (Printf.sprintf "outcome mismatch (journal %S, replay %S)" expected got)
    else if not detail_ok then
      fail ("outcome detail mismatch for " ^ got)
    else Ok ()
  | "frames" ->
    let* count = lift (json_int "count" j) in
    if count < 1 then fail "field \"count\" must be >= 1"
    else begin
      run_frames t count;
      Ok ()
    end
  | other -> fail ("unknown op: " ^ other)

let restore ?sinks ?jobs ~dir () =
  let* header_text =
    match read_file (header_path dir) with
    | text -> Ok text
    | exception Sys_error msg -> Error msg
  in
  let* header =
    match Json.parse header_text with
    | j -> Ok j
    | exception Json.Error msg -> Error ("checkpoint header: " ^ msg)
  in
  let* () =
    match json_int "v" header with
    | Ok 1 -> Ok ()
    | Ok v ->
      Error (Printf.sprintf "checkpoint header: unsupported version %d" v)
    | Error msg -> Error ("checkpoint header: " ^ msg)
  in
  let* scenario =
    match Json.member "scenario" header with
    | Some j -> (
      match Scenario.of_json j with
      | s -> Ok s
      | exception Failure msg -> Error ("checkpoint header: " ^ msg))
    | None -> Error "checkpoint header: missing field \"scenario\""
  in
  let* seed = Result.map_error (( ^ ) "checkpoint header: ")
      (json_int "seed" header) in
  let* checkpoint_every =
    Result.map_error (( ^ ) "checkpoint header: ")
      (json_int "checkpoint_every" header)
  in
  let* metrics_every =
    Result.map_error (( ^ ) "checkpoint header: ")
      (json_int "metrics_every" header)
  in
  let* ops_at_ckpt = Result.map_error (( ^ ) "checkpoint header: ")
      (json_int "ops" header) in
  let* frame_at = Result.map_error (( ^ ) "checkpoint header: ")
      (json_int "frame" header) in
  let* injected_at = Result.map_error (( ^ ) "checkpoint header: ")
      (json_int "injected" header) in
  let* delivered_at =
    Result.map_error (( ^ ) "checkpoint header: ")
      (json_int "delivered" header)
  in
  let cfg =
    { scenario;
      seed;
      guard = json_str_opt "guard" header;
      faults = json_str_opt "faults" header;
      checkpoint_every;
      metrics_every }
  in
  let* t =
    match make_engine ?sinks ?jobs cfg with
    | t -> Ok t
    | exception (Invalid_argument msg | Failure msg) ->
      Error ("checkpoint header: " ^ msg)
  in
  let jp = journal_path dir in
  let* journal_text =
    match read_file jp with
    | text -> Ok text
    | exception Sys_error msg -> Error msg
  in
  let check_header count =
    if count <> ops_at_ckpt then Ok ()
    else begin
      let r = Protocol.report t.protocol in
      if
        r.Protocol.frames <> frame_at
        || r.Protocol.injected <> injected_at
        || r.Protocol.delivered <> delivered_at
      then
        Error
          (Printf.sprintf
             "checkpoint header does not match replayed journal state at op \
              %d (frame %d vs %d, injected %d vs %d, delivered %d vs %d)"
             count r.Protocol.frames frame_at r.Protocol.injected injected_at
             r.Protocol.delivered delivered_at)
      else Ok ()
    end
  in
  let ic = open_in_bin jp in
  let* count, torn =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        Reader.fold_json_classified ic ~init:(Ok (0, false))
          ~f:(fun acc ~lineno item ->
            match acc with
            | Error _ -> acc
            | Ok (count, _) -> (
              match item with
              | Error (Reader.Truncated _) ->
                (* The signature of a crash mid-append: the op never
                   completed, so the pre-op state is the truth. *)
                Ok (count, true)
              | Error (Reader.Malformed msg) ->
                Error (Printf.sprintf "journal line %d: %s" lineno msg)
              | Ok j -> (
                match apply_op t ~lineno j with
                | Error _ as e -> e
                | Ok () ->
                  t.ops <- t.ops + 1;
                  let count = count + 1 in
                  (match check_header count with
                  | Error _ as e -> e
                  | Ok () -> Ok (count, false))))))
  in
  let* () =
    if count < ops_at_ckpt then
      Error
        (Printf.sprintf
           "journal holds %d ops but the checkpoint header records %d" count
           ops_at_ckpt)
    else Ok ()
  in
  (* Reopen the journal for appending. A torn tail is cut at the last
     newline; a complete final record that merely lost its newline gets
     one, so appended ops never merge with it. *)
  let size = String.length journal_text in
  let needs_newline = size > 0 && journal_text.[size - 1] <> '\n' in
  if torn then begin
    let good =
      match String.rindex_opt journal_text '\n' with
      | Some i -> i + 1
      | None -> 0
    in
    Unix.truncate jp good
  end;
  let journal = open_out_gen [ Open_wronly; Open_append ] 0o644 jp in
  if needs_newline && not torn then output_char journal '\n';
  t.ck <- Some { dir; journal };
  t.frames_since_ckpt <-
    Int.max 0 (Protocol.frame_index t.protocol - frame_at);
  (* Re-checkpoint immediately: the on-disk header reflects the state
     actually restored (including any dropped tail). *)
  checkpoint t;
  Ok
    ( t,
      { replayed_ops = count;
        replayed_frames = Protocol.frame_index t.protocol;
        dropped_tail = torn } )
