module Par = Dps_par.Par

type t = {
  measure : Measure.t;
  jobs : int;  (* default fan-out for stale rescans *)
  par_threshold : int;  (* rescan sequentially below this many touched rows *)
  (* The four per-link arrays are allocated by the first update, so
     [create] allocates O(1): a tracker that never sees a load, like the
     failed-buffer tracker of a protocol without phase-1 failures, costs
     nothing, and restoring a channel and protocol stays cheap. *)
  mutable load : float array;  (* R *)
  mutable wr : float array;  (* W·R, maintained incrementally *)
  (* Touched flags, one byte per link: '\001' once touched since the last
     reset. *)
  mutable link_touched : Bytes.t;
  mutable touched_links : int list;
  mutable row_touched : Bytes.t;
  mutable touched_rows : int list;
  mutable touched_rows_n : int;
  (* Cached argmax of wr. When an update lowers wr at the cached argmax the
     cache goes stale and the next interference query rescans the touched
     rows (untouched rows are exactly 0). *)
  mutable max_val : float;
  mutable max_row : int;
  mutable stale : bool;
}

let default_par_threshold = 4096

let create ?(jobs = 1) ?(par_threshold = default_par_threshold) measure =
  if jobs < 1 then invalid_arg "Load_tracker.create: jobs must be >= 1";
  { measure;
    jobs;
    par_threshold;
    load = [||];
    wr = [||];
    link_touched = Bytes.empty;
    touched_links = [];
    row_touched = Bytes.empty;
    touched_rows = [];
    touched_rows_n = 0;
    max_val = 0.;
    max_row = -1;
    stale = false }

let measure t = t.measure
let size t = Measure.size t.measure
let allocated t = Array.length t.load > 0

(* Before the first update every link reads 0. This cold path is kept
   out of [load] and [interference_at], which are inlined into the
   admission and channel loops. *)
let unallocated t e =
  if e < 0 || e >= size t then invalid_arg "index out of bounds" else 0.

let[@inline] load t e = if allocated t then t.load.(e) else unallocated t e

let load_vector t =
  if allocated t then Array.copy t.load else Array.make (size t) 0.

let add_scaled t e c =
  if c <> 0. then begin
    if not (allocated t) then begin
      let m = size t in
      t.load <- Array.make m 0.;
      t.wr <- Array.make m 0.;
      t.link_touched <- Bytes.make m '\000';
      t.row_touched <- Bytes.make m '\000'
    end;
    if Bytes.get t.link_touched e = '\000' then begin
      Bytes.set t.link_touched e '\001';
      t.touched_links <- e :: t.touched_links
    end;
    t.load.(e) <- t.load.(e) +. c;
    Measure.iter_column t.measure e (fun row w ->
        if Bytes.get t.row_touched row = '\000' then begin
          Bytes.set t.row_touched row '\001';
          t.touched_rows <- row :: t.touched_rows;
          t.touched_rows_n <- t.touched_rows_n + 1
        end;
        let v = t.wr.(row) +. (w *. c) in
        t.wr.(row) <- v;
        if row = t.max_row then begin
          if v >= t.max_val then t.max_val <- v else t.stale <- true
        end
        else if v > t.max_val then begin
          t.max_val <- v;
          t.max_row <- row
        end)
  end

let add t e = add_scaled t e 1.
let remove t e = add_scaled t e (-1.)

let[@inline] interference_at t e =
  if allocated t then t.wr.(e) else unallocated t e

let max_load t =
  let best = ref 0. in
  List.iter
    (fun e ->
      let v = t.load.(e) in
      if v > !best then best := v)
    t.touched_links;
  !best

(* Sequential stale rescan: first occurrence wins on ties (strict >),
   scanning the touched list head to tail. Allocation-free. *)
let rescan_seq t =
  let best = ref 0. and best_row = ref (-1) in
  List.iter
    (fun row ->
      let v = t.wr.(row) in
      if v > !best then begin
        best := v;
        best_row := row
      end)
    t.touched_rows;
  t.max_val <- !best;
  t.max_row <- !best_row;
  t.stale <- false

(* Parallel stale rescan: chunk the touched rows in list order, take each
   chunk's strict-> first-occurrence maximum, fold the per-chunk results
   in chunk order with strict > again. Comparisons only (no float
   arithmetic), and ties resolve to the earliest occurrence exactly as
   the sequential scan does — so value AND argmax are byte-identical to
   [rescan_seq] for any [jobs] or chunking (the Dps_par.Par contract). *)
let rescan_par t ~jobs =
  let rows = Array.of_list t.touched_rows in
  let n = Array.length rows in
  let nchunks = Int.min jobs ((n + t.par_threshold - 1) / t.par_threshold) in
  let nchunks = Int.max nchunks 1 in
  let chunk_len = (n + nchunks - 1) / nchunks in
  let scan_chunk c =
    let lo = c * chunk_len in
    let hi = Int.min n (lo + chunk_len) - 1 in
    let best = ref 0. and best_row = ref (-1) in
    for i = lo to hi do
      let row = rows.(i) in
      let v = t.wr.(row) in
      if v > !best then begin
        best := v;
        best_row := row
      end
    done;
    (!best, !best_row)
  in
  let per_chunk = Par.map ~jobs scan_chunk (List.init nchunks Fun.id) in
  let best = ref 0. and best_row = ref (-1) in
  List.iter
    (fun (v, row) ->
      if v > !best then begin
        best := v;
        best_row := row
      end)
    per_chunk;
  t.max_val <- !best;
  t.max_row <- !best_row;
  t.stale <- false

let interference ?jobs t =
  if t.stale then begin
    let jobs = match jobs with Some j -> j | None -> t.jobs in
    if jobs > 1 && t.touched_rows_n >= t.par_threshold then rescan_par t ~jobs
    else rescan_seq t
  end;
  (* Matches [Measure.interference]: never below the empty maximum 0. *)
  Float.max 0. t.max_val

let reset t =
  List.iter
    (fun e ->
      t.load.(e) <- 0.;
      Bytes.set t.link_touched e '\000')
    t.touched_links;
  t.touched_links <- [];
  List.iter
    (fun row ->
      t.wr.(row) <- 0.;
      Bytes.set t.row_touched row '\000')
    t.touched_rows;
  t.touched_rows <- [];
  t.touched_rows_n <- 0;
  t.max_val <- 0.;
  t.max_row <- -1;
  t.stale <- false

let of_load ?jobs ?par_threshold measure r =
  if Array.length r <> Measure.size measure then
    invalid_arg "Load_tracker.of_load: load length differs from measure size";
  let t = create ?jobs ?par_threshold measure in
  Array.iteri (fun e c -> add_scaled t e c) r;
  t
