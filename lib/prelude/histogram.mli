(** Exact, mergeable histogram of non-negative integer samples.

    Samples below {!exact_bound} are counted per integer, so their order
    statistics — and every quantile — are exact. Samples at or above it
    land in power-of-two overflow buckets [[2^k, 2^(k+1))] and their
    order statistics are interpolated inside the bucket, clamped to the
    observed [[min, max]]: within a factor of 2 of the true value.

    Recording draws no randomness, so a histogram never changes what the
    run it observes does. The per-integer count array starts small and
    doubles on demand up to {!exact_bound} cells; coarse block totals
    next to it keep a rank lookup to a few hundred cells whatever the
    largest sample. Two histograms always share the same layout, so they
    merge by adding counts. *)

type t

(** [2^16]: samples below it are counted exactly. *)
val exact_bound : int

(** An empty histogram. *)
val create : unit -> t

(** [add t x] records [x]. Raises [Invalid_argument] when [x < 0].
    Allocates only when the count array grows to reach [x]. *)
val add : t -> int -> unit

(** Number of samples recorded. *)
val count : t -> int

(** Sum of all samples; [0] when empty. *)
val sum : t -> int

(** Mean sample; [0.] when empty. *)
val mean : t -> float

(** Smallest sample; [0] when empty. *)
val min : t -> int

(** Largest sample; [0] when empty. *)
val max : t -> int

(** [quantile t q] for [0. <= q <= 1.]: linear interpolation between the
    order statistics around position [q·(count − 1)]. Exact when every
    sample is below {!exact_bound}. Raises [Invalid_argument] when empty
    or when [q] is out of range. *)
val quantile : t -> float -> float

(** [merge a b] — a fresh histogram equal to recording both sample
    streams into one. *)
val merge : t -> t -> t

(** [pp] prints ["p50=… p90=… p99=… max=…"], or ["n=0"] when empty. *)
val pp : Format.formatter -> t -> unit
