(* One CSR matrix behind every measure.

   Row data lives in flat Bigarray slabs (int32 column ids, float64
   weights). Storage row r spans [row_ptr.(r), row_ptr.(r+1)), its ids
   sorted ascending, the diagonal present. Link e's row is storage row
   pos.(e): the identity for every constructor in this module, a
   tile-major permutation for Tiled, whose tiles are also the storage-row
   [groups] that a [jobs > 1] [interference] fans out over.

   The CSC transpose is built lazily on first column access into one cell
   shared by every [with_jobs] copy. It scatters links in ascending id
   order, so each column lists its rows ascending by link id — the order
   Load_tracker sums in, which keeps an exact permuted measure
   byte-identical to its unpermuted equal.

   [row_error] records how far below the true dense (W·R)(e) each stored
   row may fall, per unit of ‖R‖∞: all zeros for exact measures. *)

module Par = Dps_par.Par
module A1 = Bigarray.Array1

type cols = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t
type weights = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

type transpose = {
  col_ptr : int array;  (* length m+1, indexed by link id *)
  row_ids : cols;  (* link ids, ascending inside a column *)
  col_weights : weights;
}

type t = {
  m : int;
  pos : int array;  (* link id -> storage row *)
  row_ptr : int array;  (* length m+1: storage row -> slab offset *)
  cols : cols;
  weights : weights;
  groups : int array;  (* storage-row group boundaries, 0 … m *)
  row_error : float array;  (* link id -> dropped-mass bound *)
  error_bound : float;  (* max row_error *)
  jobs : int;  (* fan-out of whole-vector [interference] *)
  transposed : transpose option ref;  (* shared by [with_jobs] copies *)
}

let size t = t.m
let nnz t = t.row_ptr.(t.m)
let error_bound t = t.error_bound
let row_error t e = t.row_error.(e)

let make ~pos ~row_ptr ~cols ~weights ~groups ~row_error =
  { m = Array.length pos;
    pos;
    row_ptr;
    cols;
    weights;
    groups;
    row_error;
    error_bound = Array.fold_left Float.max 0. row_error;
    jobs = 1;
    transposed = ref None }

(* Links are storage rows, one group, exact. *)
let untiled ~row_ptr ~cols ~weights =
  let m = Array.length row_ptr - 1 in
  make ~pos:(Array.init m Fun.id) ~row_ptr ~cols ~weights ~groups:[| 0; m |]
    ~row_error:(Array.make m 0.)

let of_slabs ~pos ~row_ptr ~cols ~weights ~groups ~row_error =
  let fail msg = invalid_arg ("Measure.of_slabs: " ^ msg) in
  let m = Array.length pos in
  if m = 0 then fail "no links";
  if Array.length row_ptr <> m + 1 || Array.length row_error <> m then
    fail "array lengths disagree";
  let n = row_ptr.(m) in
  if row_ptr.(0) <> 0 || n > A1.dim cols || n > A1.dim weights then
    fail "row_ptr outside the slabs";
  for r = 0 to m - 1 do
    if row_ptr.(r + 1) < row_ptr.(r) then fail "row_ptr must be ascending"
  done;
  let ng = Array.length groups in
  if ng < 2 || groups.(0) <> 0 || groups.(ng - 1) <> m then
    fail "groups must run from 0 to m";
  for g = 1 to ng - 1 do
    if groups.(g) < groups.(g - 1) then fail "groups must be ascending"
  done;
  let seen = Array.make m false in
  Array.iteri
    (fun e r ->
      if r < 0 || r >= m || seen.(r) then fail "pos is not a permutation";
      seen.(r) <- true;
      if not (row_error.(e) >= 0.) then fail "row_error must be >= 0";
      let prev = ref (-1) and diagonal = ref false in
      for k = row_ptr.(r) to row_ptr.(r + 1) - 1 do
        let c = Int32.to_int cols.{k} and w = weights.{k} in
        if c <= !prev || c >= m then fail "row ids out of range or unsorted";
        if not (w > 0. && w <= 1.) then fail "weight outside (0, 1]";
        if c = e then diagonal := w = 1.;
        prev := c
      done;
      if not !diagonal then fail "diagonal must be stored as 1")
    pos;
  make ~pos ~row_ptr ~cols ~weights ~groups ~row_error

let with_jobs jobs t =
  if jobs < 1 then invalid_arg "Measure.with_jobs: jobs must be >= 1";
  if jobs = t.jobs then t else { t with jobs }

let cols_init n f =
  let a = A1.create Bigarray.int32 Bigarray.c_layout n in
  for k = 0 to n - 1 do
    A1.unsafe_set a k (Int32.of_int (f k))
  done;
  a

let ones n =
  let a = A1.create Bigarray.float64 Bigarray.c_layout n in
  A1.fill a 1.;
  a

(* Pack validated sorted rows ((e', w) pairs) into CSR. *)
let pack rows =
  let m = Array.length rows in
  let n = Array.fold_left (fun acc r -> acc + Array.length r) 0 rows in
  let row_ptr = Array.make (m + 1) 0 in
  let cols = A1.create Bigarray.int32 Bigarray.c_layout n in
  let weights = A1.create Bigarray.float64 Bigarray.c_layout n in
  let k = ref 0 in
  Array.iteri
    (fun e r ->
      row_ptr.(e) <- !k;
      Array.iter
        (fun (e', w) ->
          cols.{!k} <- Int32.of_int e';
          weights.{!k} <- w;
          incr k)
        r)
    rows;
  row_ptr.(m) <- !k;
  untiled ~row_ptr ~cols ~weights

let normalize_row m e entries =
  let tbl = Hashtbl.create (List.length entries + 1) in
  List.iter
    (fun (e', w) ->
      if e' < 0 || e' >= m then invalid_arg "Measure: link id out of range";
      if Hashtbl.mem tbl e' then invalid_arg "Measure: duplicate entry in row";
      (* Negated-positive form so NaN weights are rejected too: both
         [nan <= 0.] and [nan > 1.] are false. *)
      if not (w > 0. && w <= 1.) then
        invalid_arg "Measure: weight outside (0, 1]";
      Hashtbl.add tbl e' w)
    entries;
  Hashtbl.replace tbl e 1.;
  let row = Hashtbl.fold (fun e' w acc -> (e', w) :: acc) tbl [] in
  let arr = Array.of_list row in
  Array.sort (fun (a, _) (b, _) -> compare a b) arr;
  arr

let of_rows ?m rows =
  let n = Array.length rows in
  (match m with
  | Some m when m <> n ->
    invalid_arg
      (Printf.sprintf "Measure: of_rows got %d rows for declared size m = %d" n
         m)
  | _ -> ());
  if n = 0 then invalid_arg "Measure: of_rows needs at least one row";
  pack (Array.mapi (normalize_row n) rows)

let identity m =
  if m <= 0 then invalid_arg "Measure.identity: m must be > 0";
  untiled ~row_ptr:(Array.init (m + 1) Fun.id) ~cols:(cols_init m Fun.id)
    ~weights:(ones m)

let complete m =
  if m <= 0 then invalid_arg "Measure.complete: m must be > 0";
  untiled
    ~row_ptr:(Array.init (m + 1) (fun e -> e * m))
    ~cols:(cols_init (m * m) (fun k -> k mod m))
    ~weights:(ones (m * m))

let of_function ~m f =
  if m <= 0 then invalid_arg "Measure.of_function: m must be > 0";
  (* Single pass into growable slabs: [f] may be expensive (e.g. SINR
     affectance), so it is called exactly once per pair. *)
  let resize a n =
    let b = A1.create (A1.kind a) Bigarray.c_layout n in
    let keep = Int.min n (A1.dim a) in
    A1.blit (A1.sub a 0 keep) (A1.sub b 0 keep);
    b
  in
  let cols = ref (A1.create Bigarray.int32 Bigarray.c_layout (4 * m)) in
  let weights = ref (A1.create Bigarray.float64 Bigarray.c_layout (4 * m)) in
  let k = ref 0 in
  let row_ptr = Array.make (m + 1) 0 in
  for e = 0 to m - 1 do
    row_ptr.(e) <- !k;
    for e' = 0 to m - 1 do
      let w = if e' = e then 1. else Float.min 1. (Float.max 0. (f e e')) in
      if w > 0. then begin
        if !k = A1.dim !cols then begin
          cols := resize !cols (2 * !k);
          weights := resize !weights (2 * !k)
        end;
        !cols.{!k} <- Int32.of_int e';
        !weights.{!k} <- w;
        incr k
      end
    done
  done;
  row_ptr.(m) <- !k;
  untiled ~row_ptr ~cols:(resize !cols !k) ~weights:(resize !weights !k)

let row_nnz t e =
  let r = t.pos.(e) in
  t.row_ptr.(r + 1) - t.row_ptr.(r)

let iter_row t e f =
  let r = t.pos.(e) in
  for k = t.row_ptr.(r) to t.row_ptr.(r + 1) - 1 do
    f (Int32.to_int (A1.unsafe_get t.cols k)) (A1.unsafe_get t.weights k)
  done

let row t e =
  let lo = t.row_ptr.(t.pos.(e)) in
  Array.init (row_nnz t e) (fun i ->
      let k = lo + i in
      (Int32.to_int (A1.unsafe_get t.cols k), A1.unsafe_get t.weights k))

let weight t e e' =
  let r = t.pos.(e) in
  (* Rows are sorted by link id: binary search inside the row slice. *)
  let rec search lo hi =
    if lo > hi then 0.
    else
      let mid = (lo + hi) / 2 in
      let id = Int32.to_int (A1.unsafe_get t.cols mid) in
      if id = e' then A1.unsafe_get t.weights mid
      else if id < e' then search (mid + 1) hi
      else search lo (mid - 1)
  in
  search t.row_ptr.(r) (t.row_ptr.(r + 1) - 1)

(* CSR -> CSC by counting sort, scanning links in ascending id order so
   every column's row ids come out sorted. *)
let transpose t =
  match !(t.transposed) with
  | Some tr -> tr
  | None ->
    let n = nnz t in
    let col_ptr = Array.make (t.m + 1) 0 in
    for k = 0 to n - 1 do
      let c = Int32.to_int (A1.unsafe_get t.cols k) in
      col_ptr.(c + 1) <- col_ptr.(c + 1) + 1
    done;
    for c = 1 to t.m do
      col_ptr.(c) <- col_ptr.(c) + col_ptr.(c - 1)
    done;
    let next = Array.copy col_ptr in
    let row_ids = A1.create Bigarray.int32 Bigarray.c_layout n in
    let col_weights = A1.create Bigarray.float64 Bigarray.c_layout n in
    for e = 0 to t.m - 1 do
      let r = t.pos.(e) in
      for k = t.row_ptr.(r) to t.row_ptr.(r + 1) - 1 do
        let c = Int32.to_int (A1.unsafe_get t.cols k) in
        let slot = next.(c) in
        A1.unsafe_set row_ids slot (Int32.of_int e);
        A1.unsafe_set col_weights slot (A1.unsafe_get t.weights k);
        next.(c) <- slot + 1
      done
    done;
    let tr = { col_ptr; row_ids; col_weights } in
    t.transposed := Some tr;
    tr

let ensure_transpose t = ignore (transpose t)

let column_nnz t e' =
  let tr = transpose t in
  tr.col_ptr.(e' + 1) - tr.col_ptr.(e')

let iter_column t e' f =
  let tr = transpose t in
  for k = tr.col_ptr.(e') to tr.col_ptr.(e' + 1) - 1 do
    f
      (Int32.to_int (A1.unsafe_get tr.row_ids k))
      (A1.unsafe_get tr.col_weights k)
  done

let check_load t load =
  if Array.length load <> t.m then invalid_arg "Measure: load length mismatch"

(* Ids are validated into [0, m) at construction and [load] has length m,
   so the unchecked reads stay in bounds. *)
let dot_row t load r =
  let acc = ref 0. in
  for k = t.row_ptr.(r) to t.row_ptr.(r + 1) - 1 do
    let c = Int32.to_int (A1.unsafe_get t.cols k) in
    acc := !acc +. (A1.unsafe_get t.weights k *. Array.unsafe_get load c)
  done;
  !acc

let interference_at t load e =
  check_load t load;
  dot_row t load t.pos.(e)

let max_rows t load lo hi =
  let best = ref 0. in
  for r = lo to hi - 1 do
    let v = dot_row t load r in
    if v > !best then best := v
  done;
  !best

(* A maximum is exact, so folding the per-group maxima in group order
   gives the sequential scan's value bit for bit, whatever [jobs] is. *)
let interference t load =
  check_load t load;
  let ngroups = Array.length t.groups - 1 in
  if t.jobs = 1 || ngroups = 1 then max_rows t load 0 t.m
  else
    Par.map ~jobs:t.jobs
      (fun g -> max_rows t load t.groups.(g) t.groups.(g + 1))
      (List.init ngroups Fun.id)
    |> List.fold_left Float.max 0.

let interference_of_counts t counts =
  interference t (Array.map float_of_int counts)

let max_row_sum t =
  let best = ref 0. in
  for r = 0 to t.m - 1 do
    let s = ref 0. in
    for k = t.row_ptr.(r) to t.row_ptr.(r + 1) - 1 do
      s := !s +. A1.unsafe_get t.weights k
    done;
    if !s > !best then best := !s
  done;
  !best
