(* Clocks, order statistics and the benchmark's one-line JSON result. *)

let now = Unix.gettimeofday

(* CPU time of this process, user + system, in seconds. The end-to-end
   simulation metrics are CPU times: on a shared VM, wall time also
   counts the time the hypervisor gives this CPU to others (steal),
   which moved a fixed loop by up to 2x on the tuning host while its CPU
   time held within 2%. The benchmark runs one domain, so this is the
   time of the one thread that does the work. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed_with clock f =
  let t0 = clock () in
  let x = f () in
  (x, clock () -. t0)

let timed f = timed_with now f
let timed_cpu f = timed_with cpu f

(* CPU time of one call of [f]: the calls are timed in batches, each
   twice the last, until a batch takes at least [min_s] of CPU time. *)
let per_call ~min_s f =
  let rec go n =
    let t0 = cpu () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = cpu () -. t0 in
    if dt < min_s then go (2 * n) else dt /. float_of_int n
  in
  go 1

(* Linear-interpolation quantile of an unsorted sample (q in [0, 1]). *)
let quantile xs q =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile xs 0.5

(* The metrics a run measured, by name. *)
let metrics : (string, float) Hashtbl.t = Hashtbl.create 64

let add name value = Hashtbl.replace metrics name value

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* JSON has no NaN or infinity: a metric that could not be measured is
   reported as null, which the wrapper treats as a broken run. *)
let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* Diagnostics go to stderr; stdout carries the host line and the
   result line only. *)
let note fmt = Printf.eprintf (fmt ^^ "\n%!")

(* The result line: [schema] lists every metric the run must report,
   with its unit. A metric the workload does not measure is printed as
   [missing name] decides (0 for a layer off the workload's path) or,
   when [missing] raises, fails the run. *)
let print_result ~schema ~missing ~correct ~attempted ~failed =
  let ms =
    List.map
      (fun (name, unit_) ->
        let v =
          match Hashtbl.find_opt metrics name with
          | Some v -> v
          | None -> missing name
        in
        (name, json_obj [ ("value", json_float v); ("unit", json_string unit_) ]))
      schema
  in
  print_endline
    (json_obj
       [ ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", json_obj ms) ])

(* Peak resident set size of a process, from /proc/PID/status (VmHWM,
   in kB), in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        (match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
        | Some kb -> float_of_int kb /. 1024.
        | None -> scan ())
    in
    let v = scan () in
    close_in ic;
    v
