module Histogram = Dps_prelude.Histogram

type kind = Counter | Gauge | Histogram

type entry = {
  e_name : string;
  e_labels : (string * string) list;  (* sorted by key *)
  e_lkey : string;  (* encode_labels e_labels, fixed at registration *)
  e_kind : kind;
  mutable e_count : int;  (* counters *)
  mutable e_gauge : float;  (* gauges *)
  e_histo : Histogram.t option;
}

(* [sorted] caches the entries in canonical (name, labels) order; it is
   rebuilt lazily after a registration invalidates it, so a steady-state
   {!snapshot} — the per-push cost of a live metrics subscription —
   never sorts, only reads values. *)
type t = {
  entries : (string, entry) Hashtbl.t;
  mutable sorted : entry list option;
}
type counter = entry
type gauge = entry
type histogram = entry

let char_ok c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = ':' || c = '-'

let check_token what s =
  if s = "" || not (String.for_all char_ok s) then
    invalid_arg
      (Printf.sprintf "Metrics: %s %S must match [A-Za-z0-9_.:-]+" what s)

let encode_labels labels =
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let create () = { entries = Hashtbl.create 32; sorted = None }

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let register t ~name ~labels ~kind =
  check_token "metric name" name;
  List.iter
    (fun (k, v) ->
      check_token "label key" k;
      check_token "label value" v)
    labels;
  let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) -> a = b || dup rest
    | _ -> false
  in
  if dup labels then invalid_arg "Metrics: duplicate label key";
  let key = name ^ "{" ^ encode_labels labels ^ "}" in
  match Hashtbl.find_opt t.entries key with
  | Some e ->
    if e.e_kind <> kind then
      invalid_arg
        (Printf.sprintf "Metrics: %s already registered as a %s" name
           (kind_name e.e_kind));
    e
  | None ->
    let e =
      { e_name = name;
        e_labels = labels;
        e_lkey = encode_labels labels;
        e_kind = kind;
        e_count = 0;
        e_gauge = 0.;
        e_histo = (if kind = Histogram then Some (Histogram.create ()) else None) }
    in
    Hashtbl.add t.entries key e;
    t.sorted <- None;
    e

let counter t ?(labels = []) name = register t ~name ~labels ~kind:Counter
let gauge t ?(labels = []) name = register t ~name ~labels ~kind:Gauge
let histogram t ?(labels = []) name = register t ~name ~labels ~kind:Histogram

let incr c = c.e_count <- c.e_count + 1

let add c n =
  if n < 0 then invalid_arg "Metrics.add: negative increment";
  c.e_count <- c.e_count + n

let counter_value c = c.e_count
let set g x = g.e_gauge <- x
let gauge_value g = g.e_gauge

let the_histo e =
  match e.e_histo with Some h -> h | None -> assert false

let observe h x = Histogram.add (the_histo h) x
let histo h = the_histo h

type row = {
  name : string;
  labels : (string * string) list;
  kind : string;
  value : float;
}

(* One entry's rows, already in canonical kind order — for a histogram
   that is the alphabetical count < max < min < p50 < p90 < p99 < sum,
   so concatenating entries sorted by (name, labels) yields the global
   (name, labels, kind) sort without comparing rendered rows. *)
let rows_of_entry e =
  let row kind value = { name = e.e_name; labels = e.e_labels; kind; value } in
  match e.e_kind with
  | Counter -> [ row "counter" (float_of_int e.e_count) ]
  | Gauge -> [ row "gauge" e.e_gauge ]
  | Histogram ->
    let h = the_histo e in
    let max = float_of_int (Histogram.max h)
    and min = float_of_int (Histogram.min h)
    and sum = float_of_int (Histogram.sum h) in
    if Histogram.count h = 0 then
      [ row "count" 0.; row "max" max; row "min" min; row "sum" sum ]
    else
      [ row "count" (float_of_int (Histogram.count h));
        row "max" max;
        row "min" min;
        row "p50" (Histogram.quantile h 0.5);
        row "p90" (Histogram.quantile h 0.9);
        row "p99" (Histogram.quantile h 0.99);
        row "sum" sum ]

let sorted_entries t =
  match t.sorted with
  | Some es -> es
  | None ->
    let es =
      Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
      |> List.sort (fun a b -> compare (a.e_name, a.e_lkey) (b.e_name, b.e_lkey))
    in
    t.sorted <- Some es;
    es

let snapshot t = List.concat_map rows_of_entry (sorted_entries t)
