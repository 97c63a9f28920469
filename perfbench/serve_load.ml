(* serve-journal: the real dps_serve daemon over its Unix socket, with
   the journal on (--checkpoint DIR) and the class guard on.

   Three tenants (urllc, embb, mmtc) each offer about twice their token
   bucket quota per frame; the command mix is about 85% inject, 10% step
   (one frame each) and 5% reads (stats, status). One client process on
   one connection drives, in order:

   - set-up: the daemon is started [setups] times from scratch; each
     sample is the daemon's CPU time from spawn to its first reply (a
     status);
   - [rounds] rounds of load, each an open-loop segment then a
     closed-loop chunk. The open loop runs at [open_rate] commands per
     second: each command is sent when it is due, whatever the replies
     are doing, and its latency runs from its due time to its reply.
     The closed-loop chunk sends [closed_chunk] commands, each when the
     previous reply arrived, and reads the daemon's CPU clock after
     every reply, which gives each command's CPU cost in the daemon;
   - kill -9 and --restore, [restores] times; each sample is the
     restored daemon's CPU time until its first reply, which must equal
     the status taken before the first kill.

   The gated figures come from the daemon's CPU time, read from
   /proc/PID/schedstat (nanoseconds on the CPU). The client and the
   daemon share one CPU (perfbench/run.py pins them), so whenever the
   client runs the daemon is off the CPU and its clock is up to date;
   the client's own time and the host's steal stay out. Each start,
   segment, chunk and restore is scaled by the host-speed reference
   the client takes on that CPU right before it (Host.scale). The open
   loop's wall-clock latencies are per-layer figures.

   The whole command stream is then replayed in-process through
   Wire.parse, the Engine and the reply encoders; the daemon's reply
   stream must be byte-identical to the replay's. The traced run times
   the replay stage by stage, once with the journal on and once with it
   off. *)

module Rng = Dps_prelude.Rng
module Engine = Dps_serve.Engine
module Scenario = Dps_serve.Scenario
module Classes = Dps_serve.Classes
module Wire = Dps_serve.Wire

let stations = 6
let rate = 0.1
let guard = "6:2,20:6,120:40"
let checkpoint_every = 16
let open_rate = 5000.
let rounds = 10
let closed_chunk = 4000
let setups = 15
let restores = 9

(* name, class, bucket rate (tokens per frame), burst, share of inject
   commands, copies per inject (lo, hi): at 8.5 injects per frame each
   tenant offers about twice its rate. *)
let tenants =
  [ ("ctrl", "urllc", 1., 8., 0.3, (1, 1));
    ("web", "embb", 3., 12., 0.3, (2, 3));
    ("iot", "mmtc", 8., 24., 0.4, (4, 5)) ]

type kind = Inject | Step | Stats | Status

let scenario () = Scenario.make ~model:"mac" ~topology:"mac" ~stations ~rate ()

let daemon_args ~seed ~ck ~sock =
  [ "--model"; "mac"; "--topology"; "mac"; "--stations";
    string_of_int stations; "--rate"; Printf.sprintf "%g" rate; "--seed";
    string_of_int seed; "--class-guard"; guard; "--checkpoint-every";
    string_of_int checkpoint_every; "--checkpoint"; ck; "--socket"; sock ]

(* ------------------------------------------------ the command stream *)

let attach_lines =
  List.map
    (fun (name, klass, r, b, _, _) ->
      Printf.sprintf
        "{\"do\":\"attach\",\"tenant\":\"%s\",\"class\":\"%s\",\"rate\":%g,\"burst\":%g}"
        name klass r b)
    tenants

let gen_commands rng n =
  Array.init n (fun _ ->
      let u = Rng.float rng 1. in
      if u < 0.85 then begin
        let v = Rng.float rng 1. in
        let rec pick acc = function
          | [ t ] -> t
          | ((_, _, _, _, share, _) as t) :: rest ->
            if v < acc +. share then t else pick (acc +. share) rest
          | [] -> assert false
        in
        let name, _, _, _, _, (lo, hi) = pick 0. tenants in
        let copies = lo + Rng.int rng (hi - lo + 1) in
        ( Inject,
          Printf.sprintf
            "{\"do\":\"inject\",\"tenant\":\"%s\",\"path\":[%d],\"copies\":%d}"
            name (Rng.int rng stations) copies )
      end
      else if u < 0.95 then (Step, "{\"do\":\"step\",\"frames\":1}")
      else if u < 0.98 then (Stats, "{\"do\":\"stats\"}")
      else (Status, "{\"do\":\"status\"}"))

let status_line = "{\"do\":\"status\"}"

(* --------------------------------------------------- daemon processes *)

let live = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let kill9 pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

(* Nothing the benchmark started may outlive it. *)
let () = at_exit (fun () -> List.iter kill9 !live)

let spawn ~exe ~log args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) null null err
  in
  Unix.close null;
  Unix.close err;
  live := pid :: !live;
  pid

type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  partial : Buffer.t;
  lines : (string * float) Queue.t;  (* reply, arrival time *)
  clock : Unix.file_descr;  (* the daemon's /proc/PID/schedstat *)
}

(* The daemon's CPU time in seconds: the first field of its schedstat.
   Exact only while the daemon is off the CPU, which holds whenever the
   client runs (see the header). *)
let daemon_cpu c =
  let b = Bytes.create 64 in
  ignore (Unix.lseek c.clock 0 Unix.SEEK_SET);
  let k = Unix.read c.clock b 0 64 in
  let s = Bytes.sub_string b 0 k in
  match int_of_string_opt (List.hd (String.split_on_char ' ' s)) with
  | Some ns -> float_of_int ns *. 1e-9
  | None -> failwith ("unreadable schedstat: " ^ s)

(* Connect to [sock], retrying while the daemon starts up. *)
let connect ~pid sock =
  let deadline = Out.now () +. 60. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () ->
      let clock =
        Unix.openfile (Printf.sprintf "/proc/%d/schedstat" pid) [ Unix.O_RDONLY ] 0
      in
      { fd; chunk = Bytes.create 65536; partial = Buffer.create 4096;
        lines = Queue.create (); clock }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith "dps_serve exited during start-up");
      if Out.now () > deadline then failwith "dps_serve did not start";
      Unix.sleepf 0.0002;
      go ()
  in
  go ()

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write c.fd b off (n - off)) in
  go 0

(* Wait up to [timeout] seconds for bytes; queue every complete reply
   line with the time it arrived. *)
let pump c ~timeout =
  match Unix.select [ c.fd ] [] [] (Float.max 0. timeout) with
  | [], _, _ -> ()
  | _ ->
    let k = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
    if k = 0 then failwith "dps_serve closed the connection";
    let t = Out.now () in
    for i = 0 to k - 1 do
      match Bytes.get c.chunk i with
      | '\n' ->
        Queue.push (Buffer.contents c.partial, t) c.lines;
        Buffer.clear c.partial
      | ch -> Buffer.add_char c.partial ch
    done

let rec next_reply c ~deadline =
  match Queue.take_opt c.lines with
  | Some r -> r
  | None ->
    if Out.now () > deadline then failwith "dps_serve stopped replying";
    pump c ~timeout:0.5;
    next_reply c ~deadline

(* Closed loop: send, wait for the reply. *)
let request c line =
  let t0 = Out.now () in
  send c line;
  let reply, t = next_reply c ~deadline:(t0 +. 60.) in
  (reply, t -. t0)

let close c =
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ c.fd; c.clock ]

(* One open-loop segment: [cmds] at [open_rate], each sent when due.
   Returns the replies, each command's latency from its due time, and
   how late the generator released it.

   Sends never block: the segment is one byte stream, of which the due
   prefix may be written; bytes the daemon is not reading yet stay
   queued here, so the generator keeps its schedule and keeps draining
   replies (a blocking write could deadlock against the daemon's own
   blocked reply write). Time spent queued is the daemon's
   backpressure and lands in the command's latency. *)
let open_loop c cmds =
  let n = Array.length cmds in
  let due = Array.make n 0. and lag = Array.make n 0. and lat = Array.make n 0. in
  let t0 = Out.now () +. 0.001 in
  Array.iteri (fun i _ -> due.(i) <- t0 +. (float_of_int i /. open_rate)) due;
  let stream = String.concat "" (Array.to_list (Array.map (fun (_, l) -> l ^ "\n") cmds)) in
  let ends = Array.make n 0 in
  Array.iteri
    (fun i (_, l) -> ends.(i) <- (if i = 0 then 0 else ends.(i - 1)) + String.length l + 1)
    cmds;
  let replies = Array.make n "" in
  let next = ref 0 and got = ref 0 and written = ref 0 in
  let deadline = t0 +. (float_of_int n /. open_rate) +. 60. in
  Unix.set_nonblock c.fd;
  while !got < n do
    if Out.now () > deadline then failwith "dps_serve stopped replying";
    while !next < n && due.(!next) <= Out.now () do
      lag.(!next) <- Out.now () -. due.(!next);
      incr next
    done;
    let released = if !next = 0 then 0 else ends.(!next - 1) in
    let timeout = if !next < n then due.(!next) -. Out.now () else 0.5 in
    let r, w, _ =
      Unix.select [ c.fd ] (if released > !written then [ c.fd ] else []) []
        (Float.max 0. timeout)
    in
    (if w <> [] then
       match Unix.write_substring c.fd stream !written (released - !written) with
       | k -> written := !written + k
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    if r <> [] then pump c ~timeout:0.;
    while not (Queue.is_empty c.lines) do
      let r, t = Queue.pop c.lines in
      replies.(!got) <- r;
      lat.(!got) <- t -. due.(!got);
      incr got
    done
  done;
  Unix.clear_nonblock c.fd;
  (replies, lat, lag)

(* One closed-loop chunk: each command sent when the previous reply
   arrived. Returns the replies, each reply's wall time, each command's
   daemon CPU time, and commands per daemon CPU second over the chunk. *)
let closed_loop c cmds =
  let c0 = daemon_cpu c in
  let last = ref c0 in
  let out =
    Array.map
      (fun (_, l) ->
        let reply, wall = request c l in
        let now = daemon_cpu c in
        let cpu = now -. !last in
        last := now;
        (reply, wall, cpu))
      cmds
  in
  let rate = float_of_int (Array.length cmds) /. (!last -. c0) in
  ( Array.map (fun (r, _, _) -> r) out,
    Array.map (fun (_, w, _) -> w) out,
    Array.map (fun (_, _, c) -> c) out,
    rate )

(* ------------------------------------------- the in-process replay *)

(* The daemon's own reply rendering (bin/dps_serve.ml), for the
   commands this workload sends. *)
let render_outcome = function
  | Engine.Admitted { first_id; copies } ->
    [ ("outcome", Wire.Str "admitted");
      ("id", Wire.Int first_id);
      ("copies", Wire.Int copies) ]
  | Engine.Shed { klass } ->
    [ ("outcome", Wire.Str "shed");
      ("class", Wire.Str (Classes.to_string klass)) ]
  | Engine.Overloaded { retry_after } ->
    [ ("outcome", Wire.Str "overloaded");
      ("retry_after_frames", Wire.Int retry_after) ]
  | Engine.Too_large { burst } ->
    [ ("outcome", Wire.Str "too-large"); ("burst", Wire.Float burst) ]

type stages = {
  mutable parse : float;
  mutable submit : float;
  mutable step : float;
  mutable checkpoint : float;
  mutable stats : float;
  mutable encode : float;
  mutable checkpoints : int;
  mutable wall : float;
}

(* Replay [lines] through a fresh engine; returns the replies, the
   in-process time of each command, and the stage sums. With [dir] the
   journal is on: the engine is configured not to checkpoint by itself
   and the replay checkpoints after every [checkpoint_every]-th frame,
   as the daemon does, so checkpoint time is separated from step time.
   With [timed = false] no clock is read between stages. *)
let replay ?dir ~timed ~seed lines =
  let clock = if timed then Out.now else fun () -> 0. in
  let st =
    { parse = 0.; submit = 0.; step = 0.; checkpoint = 0.; stats = 0.;
      encode = 0.; checkpoints = 0; wall = 0. }
  in
  let cfg =
    Engine.default_config ~guard
      ~checkpoint_every:(if dir = None then checkpoint_every else 0)
      ~scenario:(scenario ()) ~seed ()
  in
  let e = Engine.create ?checkpoint_dir:dir cfg in
  let n = Array.length lines in
  let replies = Array.make n "" and cost = Array.make n 0. in
  let t_start = Out.now () in
  Array.iteri
    (fun i line ->
      let t0 = clock () in
      let parsed = Wire.parse line in
      let t1 = clock () in
      st.parse <- st.parse +. (t1 -. t0);
      let engine_done acc =
        let t = clock () in
        acc t;
        t
      in
      let reply, t2 =
        match parsed with
        | Error msg ->
          (`Error msg, t1)
        | Ok (Wire.Inject { tenant; links; delay; copies }) ->
          let r = Engine.submit e ~tenant ~links ~delay ~copies in
          let t2 = engine_done (fun t -> st.submit <- st.submit +. (t -. t1)) in
          ( (match r with
            | Error msg -> `Error msg
            | Ok o -> `Ok ("inject", render_outcome o)),
            t2 )
        | Ok (Wire.Step { frames }) ->
          Engine.step e ~frames;
          let t2 = engine_done (fun t -> st.step <- st.step +. (t -. t1)) in
          let t2 =
            if dir <> None && Engine.frame e mod checkpoint_every = 0 then begin
              Engine.checkpoint e;
              st.checkpoints <- st.checkpoints + 1;
              engine_done (fun t -> st.checkpoint <- st.checkpoint +. (t -. t2))
            end
            else t2
          in
          ( `Ok
              ( "step",
                [ ("frame", Wire.Int (Engine.frame e));
                  ("in_flight", Wire.Int (Engine.in_flight e)) ] ),
            t2 )
        | Ok Wire.Status ->
          let f = Engine.status_fields e in
          (`Ok ("status", f), engine_done (fun t -> st.stats <- st.stats +. (t -. t1)))
        | Ok Wire.Stats ->
          let f = Engine.stats_fields e in
          (`Ok ("stats", f), engine_done (fun t -> st.stats <- st.stats +. (t -. t1)))
        | Ok (Wire.Attach { tenant; klass; rate; burst }) ->
          let r = Engine.attach e ~tenant ~klass ?rate ?burst () in
          let t2 = engine_done (fun t -> st.submit <- st.submit +. (t -. t1)) in
          ( (match r with
            | Error msg -> `Error msg
            | Ok () ->
              `Ok
                ( "attach",
                  [ ("tenant", Wire.Str tenant);
                    ("class", Wire.Str (Classes.to_string klass)) ] )),
            t2 )
        | Ok _ -> (`Error "command not used by this workload", t1)
      in
      replies.(i) <-
        (match reply with
        | `Error msg -> Wire.error ~err:msg []
        | `Ok (cmd, fields) -> Wire.ok ~cmd fields);
      let t3 = clock () in
      st.encode <- st.encode +. (t3 -. t2);
      cost.(i) <- t3 -. t0)
    lines;
  st.wall <- Out.now () -. t_start;
  Engine.close e;
  (replies, cost, st)

(* ------------------------------------------------------------- run *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let has_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let run ~exe ~seed ~seconds ~trace ~flambda =
  Host.print ~workload:"serve-journal" ~flambda ~working_set:0;
  let root = ".bench_run" in
  let work = Filename.concat root (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  rm_rf work;
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir work 0o755;
  let ck = Filename.concat work "ck" and sock = Filename.concat work "s.sock" in
  let log = Filename.concat work "daemon.log" in
  let finish () =
    List.iter kill9 !live;
    rm_rf work;
    try Unix.rmdir root with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:finish @@ fun () ->
  let attempted = ref 0 and failed = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr failed;
        Out.note "serve-journal: FAILED: %s" msg)
      fmt
  in
  let rng = Rng.create ~seed () in
  let per_round = int_of_float (open_rate *. seconds *. 0.4) / rounds in
  let plan =
    Array.init rounds (fun _ ->
        let o = gen_commands rng per_round in
        (o, gen_commands rng closed_chunk))
  in
  (* --- set-up *)
  let start () =
    let k = Host.scale () in
    let pid = spawn ~exe ~log (daemon_args ~seed ~ck ~sock) in
    let c = connect ~pid sock in
    let reply, _ = request c status_line in
    incr attempted;
    (pid, c, reply, k *. daemon_cpu c)
  in
  let rec boot k acc =
    let ((pid, c, _, _) as b) = start () in
    if k = 1 then (b, acc)
    else begin
      ignore (request c "{\"do\":\"quit\"}");
      incr attempted;
      close c;
      reap pid;
      boot (k - 1) (b :: acc)
    end
  in
  let (pid, c, first_status, setup_last), earlier = boot setups [] in
  let current = ref pid in
  List.iter
    (fun (_, _, r, _) ->
      if r <> first_status then fail "fresh daemons disagree on their first status")
    earlier;
  let setup_s = Out.median (setup_last :: List.map (fun (_, _, _, t) -> t) earlier) in
  let replies = ref [ first_status ] in
  List.iter
    (fun l ->
      incr attempted;
      replies := fst (request c l) :: !replies)
    attach_lines;
  (* --- load: open-loop segments and closed-loop chunks alternate, so
     both sample the whole run rather than one stretch of it *)
  let frame = (Scenario.build (scenario ())).Scenario.config.Dps_core.Protocol.frame in
  let push tbl kind v =
    Hashtbl.replace tbl kind (v :: Option.value ~default:[] (Hashtbl.find_opt tbl kind))
  in
  let lat = Hashtbl.create 3 and cpu = Hashtbl.create 4 and lags = ref [] in
  let open_sps = ref [] and rates = ref [] and closed_lat = ref [] in
  Array.iter
    (fun (o, k) ->
      let scale = Host.scale () in
      let c0 = daemon_cpu c in
      let rs, l, g = open_loop c o in
      let steps = Array.fold_left (fun n (kind, _) -> if kind = Step then n + 1 else n) 0 o in
      open_sps := float_of_int (steps * frame) /. (scale *. (daemon_cpu c -. c0)) :: !open_sps;
      Array.iteri (fun i (kind, _) -> push lat kind l.(i)) o;
      lags := Array.to_list g @ !lags;
      let scale = Host.scale () in
      let rk, lk, ck, rate = closed_loop c k in
      Array.iteri (fun i (kind, _) -> push cpu kind (scale *. ck.(i))) k;
      rates := rate /. scale :: !rates;
      closed_lat := Array.to_list lk :: !closed_lat;
      Array.iter (fun r -> replies := r :: !replies) rs;
      Array.iter (fun r -> replies := r :: !replies) rk;
      attempted := !attempted + Array.length o + Array.length k)
    plan;
  let lat kind = Option.value ~default:[] (Hashtbl.find_opt lat kind) in
  let reads tbl = tbl Stats @ tbl Status in
  let cpu kind = Option.value ~default:[] (Hashtbl.find_opt cpu kind) in
  let lag_p99 = Out.quantile !lags 0.99 and lag_max = List.fold_left Float.max 0. !lags in
  Out.note "serve-journal: open loop %d commands at %g/s, generator lag p99 %.3f ms max %.3f ms"
    (rounds * per_round) open_rate (1000. *. lag_p99) (1000. *. lag_max);
  (* The schedule is the load. Short stalls of the client (this
     includes the host descheduling it) are charged to the commands that
     were due during them; a generator that ran late for most commands,
     or stalled for long, sent a different load than the schedule says,
     and the run does not count. *)
  let lag_p50 = Out.quantile !lags 0.5 in
  if lag_p50 > 0.001 || lag_max > 0.25 then
    fail "load generator fell behind its schedule (lag p50 %.3f ms, max %.3f ms)"
      (1000. *. lag_p50) (1000. *. lag_max);
  let before, _ = request c status_line in
  incr attempted;
  replies := before :: !replies;
  let rss = Out.peak_rss_mb (string_of_int pid) in
  (* --- crash and restore *)
  close c;
  let restore_times =
    List.init restores (fun k ->
        let scale = Host.scale () in
        kill9 !current;
        let pid = spawn ~exe ~log [ "--checkpoint"; ck; "--restore"; "--socket"; sock ] in
        current := pid;
        let c = connect ~pid sock in
        let after, _ = request c status_line in
        let dt = scale *. daemon_cpu c in
        incr attempted;
        if after <> before then fail "status after restore %d differs from before the kill" (k + 1);
        if k = restores - 1 then begin
          ignore (request c "{\"do\":\"quit\"}");
          incr attempted;
          close c;
          reap pid
        end
        else close c;
        dt)
  in
  (* --- the replies must be the in-process replay's, byte for byte *)
  let lines =
    Array.of_list
      ((status_line :: attach_lines)
      @ List.concat_map
          (fun (o, k) -> Array.to_list (Array.map snd (Array.append o k)))
          (Array.to_list plan)
      @ [ status_line ])
  in
  let got_replies = Array.of_list (List.rev !replies) in
  let expected, _, st_off = replay ~timed:trace ~seed lines in
  let mismatches = ref 0 in
  Array.iteri
    (fun i r ->
      if r <> expected.(i) then begin
        if !mismatches = 0 then
          Out.note "serve-journal: reply %d differs:\n  daemon: %s\n  replay: %s" i r
            expected.(i);
        incr mismatches
      end)
    got_replies;
  if !mismatches > 0 then begin
    failed := !failed + !mismatches;
    Out.note "serve-journal: FAILED: %d replies differ from the replay" !mismatches
  end;
  let count_sub sub = Array.fold_left (fun a r -> if has_sub r sub then a + 1 else a) 0 got_replies in
  let errors = count_sub "\"ok\":false" in
  if errors > 0 then begin
    failed := !failed + errors;
    Out.note "serve-journal: FAILED: %d error replies" errors
  end;
  let ms l q = 1000. *. Out.quantile l q in
  (* The open loop's wall-clock latencies, from each command's due
     time: they hold the host's wake-up, steal and disk noise as well as
     the daemon, so they are reported with the layers, not gated. *)
  Out.add "inject_p99_ms" (ms (lat Inject) 0.99);
  Out.add "step_p99_ms" (ms (lat Step) 0.99);
  Out.add "read_p99_ms" (ms (reads lat) 0.99);
  Out.add "open.inject_p50_ms" (ms (lat Inject) 0.5);
  Out.add "open.step_p50_ms" (ms (lat Step) 0.5);
  Out.add "open.read_p50_ms" (ms (reads lat) 0.5);
  if not trace then begin
    (* Simulated slots per daemon CPU second over the open-loop
       segments, median over the segments. *)
    Out.add "slots_per_s" (Out.median !open_sps);
    Out.add "setup_s" setup_s;
    Out.add "peak_rss_mb" rss;
    Out.add "inject_p50_ms" (ms (cpu Inject) 0.5);
    Out.add "step_p50_ms" (ms (cpu Step) 0.5);
    (* A stats costs about twice a status, so one median over both
       kinds falls in the gap between them and jumps with the mix; the
       mean of their two medians does not. *)
    Out.add "read_p50_ms" ((ms (cpu Stats) 0.5 +. ms (cpu Status) 0.5) /. 2.);
    Out.add "cmds_per_s" (Out.median !rates);
    Out.add "restore_s" (Out.median restore_times)
  end
  else begin
    let dir = Filename.concat work "replay" in
    Unix.mkdir dir 0o755;
    let _, cost_on, on = replay ~dir ~timed:true ~seed lines in
    let _, _, untimed = replay ~timed:false ~seed lines in
    let restore, restore_s = Out.timed (fun () -> Engine.restore ~dir ()) in
    (match restore with
    | Ok (e, r) ->
      Engine.close e;
      Out.add "engine.restore_s" restore_s;
      Out.add "restore.replayed_ops" (float_of_int r.Engine.replayed_ops)
    | Error msg -> fail "in-process restore: %s" msg);
    let journal = Filename.concat dir "journal.jsonl" in
    Out.add "journal.bytes" (float_of_int (Unix.stat journal).Unix.st_size);
    Out.add "wire.parse_s" on.parse;
    Out.add "wire.encode_s" on.encode;
    Out.add "engine.submit_s" on.submit;
    Out.add "engine.step_s" on.step;
    Out.add "engine.checkpoint_s" on.checkpoint;
    Out.add "engine.stats_s" on.stats;
    Out.add "journal.append_s" (on.submit +. on.step -. st_off.submit -. st_off.step);
    Out.add "journal.fsyncs" (float_of_int on.checkpoints);
    (* Closed-loop commands sit at a known offset in the stream. *)
    let inproc = ref 0. in
    for r = 0 to rounds - 1 do
      let first = 1 + List.length attach_lines + (r * (per_round + closed_chunk)) + per_round in
      for i = first to first + closed_chunk - 1 do
        inproc := !inproc +. cost_on.(i)
      done
    done;
    let e2e = List.fold_left (List.fold_left ( +. )) 0. !closed_lat in
    Out.add "serve.transport_s" (e2e -. !inproc);
    Out.add "serve.admitted" (float_of_int (count_sub "\"outcome\":\"admitted\""));
    Out.add "serve.refused"
      (float_of_int
         (count_sub "\"outcome\":\"shed\"" + count_sub "\"outcome\":\"overloaded\""
        + count_sub "\"outcome\":\"too-large\""));
    Out.add "serve.errors" (float_of_int errors);
    Out.add "serve.generator_lag_ms" (1000. *. lag_p99);
    Out.add "host.reference_ms" (1000. *. Out.median !Host.references);
    Out.add "trace.overhead" ((st_off.wall /. untimed.wall) -. 1.);
    Out.add "trace.closure"
      ((on.parse +. on.submit +. on.step +. on.checkpoint +. on.stats +. on.encode)
      /. on.wall)
  end;
  (!attempted, !failed)
