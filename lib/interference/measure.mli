(** The linear interference measure of the paper (Section 2).

    A matrix [W] over the [m] network links where [W(e, e')] in [0, 1]
    quantifies how much a transmission on [e'] interferes with one on [e];
    [W(e, e) = 1] for all [e]. The interference measure induced by a load
    vector [R] (number of packets per link) is

    {[ I = ||W · R||_inf = max_e  Σ_e' W(e, e') · R(e') ]}

    Instantiating [W] recovers packet routing (identity), the multiple-access
    channel (all ones), SINR affectance matrices ({!Dps_sinr.Sinr_measure}),
    conflict graphs ({!Conflict_graph.to_measure}) and the ε-sparsified
    tiled affectance matrix ({!Tiled}).

    Every [W] has the same representation: sparse rows (zero entries
    dropped) in a CSR packing over two flat [Bigarray] slabs, int32
    column ids and float64 weights, so conflict-graph measures stay
    linear in the number of conflicts and row scans are cache-friendly.
    Rows may be stored in a permuted order split into groups ({!of_slabs}):
    {!Tiled} stores them tile-major, one group per tile, and
    {!interference} then fans out over the groups. A transposed (CSC)
    index is built lazily the first time a column is scanned;
    {!Load_tracker} uses it to push single-link load changes to the
    affected rows in O(nnz(column)). Row and column iteration visit ids
    in ascending order whatever the storage order, so an exact permuted
    measure behaves byte-identically to its unpermuted equal.

    A measure also records an {!error_bound}: how far below the true
    dense value its interference answers may fall. It is [0.] for every
    constructor here and positive for an ε-sparsified {!Tiled} build. *)

type t

(** Number of links [m]. *)
val size : t -> int

(** [identity m] — packet-routing networks: [I] is the congestion.
    Raises [Invalid_argument] if [m <= 0]. *)
val identity : int -> t

(** [complete m] — the multiple-access channel: [I] is the total number of
    packets. Raises [Invalid_argument] if [m <= 0]. *)
val complete : int -> t

(** [of_function ~m f] materializes [W(e, e') = f e e'] for all pairs,
    dropping zeros and clamping into [0, 1]. The diagonal is forced to [1]
    as the model requires. O(m²). Raises [Invalid_argument] if
    [m <= 0]. *)
val of_function : m:int -> (int -> int -> float) -> t

(** [of_rows ?m rows] builds the measure from explicit sparse rows:
    [rows.(e)] lists [(e', w)] with [w > 0]. The diagonal is forced to 1.
    When [m] is given, [Array.length rows] must equal it — pass it
    whenever the intended size is known independently of the row data,
    so a truncated or padded row array fails loudly instead of silently
    building a smaller or larger matrix. Raises [Invalid_argument] on a
    size mismatch, an empty [rows], out-of-range ids, duplicates in a
    row, or weights outside (0, 1] (NaN included). *)
val of_rows : ?m:int -> (int * float) list array -> t

(** The column-id slab: int32 link ids. *)
type cols = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(** The weight slab: float64 entries. *)
type weights =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [of_slabs ~pos ~row_ptr ~cols ~weights ~groups ~row_error] — a
    measure over prebuilt slabs, taken over without copying. Link [e]'s
    row is storage row [r = pos.(e)], stored at offsets [row_ptr.(r)]
    to [row_ptr.(r+1) - 1] of [cols]/[weights] with ids strictly
    ascending, weights in (0, 1] and the diagonal stored as 1.
    [groups] lists storage-row boundaries [0 = g0 ≤ g1 ≤ … = m]; a
    [jobs > 1] {!interference} evaluates one group per task.
    [row_error.(e) ≥ 0] is row [e]'s slack (see {!row_error}). Raises
    [Invalid_argument] when any of this does not hold. O(m + nnz). *)
val of_slabs :
  pos:int array ->
  row_ptr:int array ->
  cols:cols ->
  weights:weights ->
  groups:int array ->
  row_error:float array ->
  t

(** [with_jobs jobs t] — [t] with whole-vector {!interference} fanned
    out over [jobs] domains (default for every constructor: 1); results
    are byte-identical in [jobs]. O(1): the copy shares [t]'s slabs and
    its lazily built transpose, and is [t] itself when [jobs] is already
    [t]'s. Raises [Invalid_argument] on [jobs < 1]. *)
val with_jobs : int -> t -> t

(** [weight t e e'] is [W(e, e')] ([0.] where absent). *)
val weight : t -> int -> int -> float

(** Stored entries (nonzeros) in the whole matrix. *)
val nnz : t -> int

(** [row t e] is the sparse row of [e]: pairs [(e', W(e, e'))], including
    the diagonal. Allocates a fresh array; hot paths should use
    {!iter_row}. *)
val row : t -> int -> (int * float) array

(** Stored entries in row [e]. *)
val row_nnz : t -> int -> int

(** [iter_row t e f] calls [f e' w] for every stored [W(e, e') = w],
    in ascending [e'] order, without allocating. *)
val iter_row : t -> int -> (int -> float -> unit) -> unit

(** [ensure_transpose t] — build the CSC index now if it does not exist
    yet (idempotent, O(m + nnz)). The lazy build mutates [t], so a
    measure shared by several domains must be forced {e before} the
    fan-out — [Driver.run_many] does this for the measure inside its
    config; call it yourself when handing a fresh measure to your own
    parallel tasks (docs/PARALLELISM.md). *)
val ensure_transpose : t -> unit

(** Stored entries in column [e'] (forces the transposed index). *)
val column_nnz : t -> int -> int

(** [iter_column t e' f] calls [f e w] for every stored [W(e, e') = w] —
    the rows a load change on link [e'] affects — in ascending [e] order.
    The first call builds the CSC transpose in O(m + nnz); later calls
    reuse it. *)
val iter_column : t -> int -> (int -> float -> unit) -> unit

(** [interference_at t load e] is [(W · load)(e)], summed in ascending
    column order. Raises [Invalid_argument "Measure: load length mismatch"]
    unless [load] has length [m]. *)
val interference_at : t -> float array -> int -> float

(** [interference t load] is [I = ||W · load||_inf], never below [0.];
    byte-identical whatever the {!with_jobs} fan-out. Same length check
    as {!interference_at}. *)
val interference : t -> float array -> float

(** [interference_of_counts t counts] — same with integer per-link packet
    counts. *)
val interference_of_counts : t -> int array -> float

(** Largest row sum [max_e Σ_e' W(e, e')]; an upper bound on the measure of
    a unit load on every link. *)
val max_row_sum : t -> float

(** Global underestimation slack: the true interference of any load [R]
    exceeds [interference t R] by at most [error_bound t · ||R||_inf].
    [0.] for exact measures. *)
val error_bound : t -> float

(** [row_error t e] — per-row slack: the dense [(W·R)(e)] exceeds the
    stored row's by at most [row_error t e · ||R||_inf]. [0.] for exact
    measures. *)
val row_error : t -> int -> float
