(* The host a run measured on: cores, compiler, cache sizes. Printed
   with every run so a number can be read against the machine it came
   from, and so each workload's interference working set can be set
   against the caches it should or should not fit in. *)

let read_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let l = try Some (String.trim (input_line ic)) with End_of_file -> None in
    close_in ic;
    l

(* "1024K" / "32768K" / "8M" -> bytes. *)
let parse_size s =
  let n = String.length s in
  if n = 0 then None
  else
    let num, mult =
      match s.[n - 1] with
      | 'K' | 'k' -> (String.sub s 0 (n - 1), 1024)
      | 'M' | 'm' -> (String.sub s 0 (n - 1), 1024 * 1024)
      | _ -> (s, 1)
    in
    Option.map (fun v -> v * mult) (int_of_string_opt num)

(* Size in bytes of the level-[level] data or unified cache of cpu0, or
   0 when /sys does not say. *)
let cache_bytes level =
  let dir = "/sys/devices/system/cpu/cpu0/cache" in
  let rec go i =
    let base = Printf.sprintf "%s/index%d" dir i in
    if i > 8 || not (Sys.file_exists base) then 0
    else
      match
        (read_line (base ^ "/level"), read_line (base ^ "/type"),
         read_line (base ^ "/size"))
      with
      | Some l, Some ty, Some size
        when int_of_string_opt l = Some level && ty <> "Instruction" ->
        Option.value ~default:0 (parse_size size)
      | _ -> go (i + 1)
  in
  go 0

(* Online CPUs of the machine, from a range list such as "0-1" or
   "0,2-3"; the run itself may be pinned to fewer. *)
let cores () =
  match read_line "/sys/devices/system/cpu/online" with
  | None -> 0
  | Some l ->
    List.fold_left
      (fun acc r ->
        match String.split_on_char '-' r with
        | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b -> acc + b - a + 1
          | _ -> acc)
        | [ _ ] -> acc + 1
        | _ -> acc)
      0 (String.split_on_char ',' l)

let l2 = lazy (cache_bytes 2)
let l3 = lazy (cache_bytes 3)

(* One "host {...}" line on stdout; [working_set] is the workload's
   computed interference bytes (0 for the daemon workload). *)
let print ~workload ~flambda ~working_set =
  let l2 = Lazy.force l2 and l3 = Lazy.force l3 in
  let fits c = if c = 0 then "null" else string_of_bool (working_set <= c) in
  print_endline
    ("host "
    ^ Out.json_obj
        [ ("workload", Out.json_string workload);
          ("cores", string_of_int (cores ()));
          ("cpus_used", string_of_int (Domain.recommended_domain_count ()));
          ("ocaml", Out.json_string Sys.ocaml_version);
          ("flambda", Out.json_string flambda);
          ("l2_bytes", string_of_int l2);
          ("l3_bytes", string_of_int l3);
          ("interference_bytes", string_of_int working_set);
          ("fits_l2", fits l2);
          ("fits_l3", fits l3) ])

(* The host-speed reference. On the tuning host, a shared VM, the CPU
   time of the same work moved by up to 80% between runs minutes apart,
   and by up to 2.7x within one, with the neighbours' use of the core
   and the memory bus. [reference ()] times a fixed piece of ordinary OCaml work that
   no library of the repository runs, sorting 4096 floats with
   polymorphic compare and filling a hash table from them, and returns
   its CPU time per call. It runs right before every repetition, chunk
   or sample, and the gated times measured after it are scaled by
   [scale ()] = [nominal /. reference ()]. [nominal] fixes the unit
   only: the figures are seconds on a host where the reference takes
   1.4 ms, about its median on the tuning host. It cancels from any
   comparison of two commits on one host. *)
let nominal = 0.0014

let reference_data =
  lazy
    (let st = Random.State.make [| 42 |] in
     Array.init 4096 (fun _ -> Random.State.float st 1.))

let reference_kernel () =
  let a = Array.copy (Lazy.force reference_data) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  Array.iteri (fun i x -> Hashtbl.replace h (int_of_float (x *. 1e6)) i) a;
  Hashtbl.length h

(* Every reference time this run took, for the traced run's
   host.reference_ms. *)
let references = ref []

let reference () =
  let r = Out.per_call ~min_s:0.005 reference_kernel in
  references := r :: !references;
  r

let scale () = nominal /. reference ()
