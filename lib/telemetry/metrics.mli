(** Metrics registry: counters, gauges and histograms with labels.

    Handles are resolved {e once}, at registration time — the hot loop
    only ever bumps a mutable cell through a pre-resolved handle, never
    performs a name lookup. Registering the same (name, label set)
    twice returns the same handle, so layered wiring code can share
    metrics safely. A {!snapshot} renders every registered metric as
    flat rows in a deterministic order; sinks turn rows into CSV or
    JSONL (see [docs/OBSERVABILITY.md] for the full catalogue).

    Names and label keys/values are restricted to
    [[A-Za-z0-9_.:-]] so that every sink format can embed them without
    quoting; violations raise [Invalid_argument] at registration, never
    on the hot path. *)

type t

(** A counter: monotone non-decreasing. *)
type counter

(** A gauge: last-write-wins float. *)
type gauge

(** A histogram of observations (a {!Dps_prelude.Histogram.t} under a
    name). *)
type histogram

(** An empty registry. *)
val create : unit -> t

(** [counter t ?labels name] — register (or retrieve) a counter.
    Raises [Invalid_argument] on malformed names/labels, duplicate label
    keys, or if the (name, labels) pair is already registered with a
    different metric kind. *)
val counter : t -> ?labels:(string * string) list -> string -> counter

(** [gauge t ?labels name] — register (or retrieve) a gauge. Raises as
    {!counter}. *)
val gauge : t -> ?labels:(string * string) list -> string -> gauge

(** [histogram t ?labels name] — register (or retrieve) a histogram.
    Raises as {!counter}. *)
val histogram : t -> ?labels:(string * string) list -> string -> histogram

(** [incr c] — add 1. *)
val incr : counter -> unit

(** [add c n] — add [n >= 0]; raises [Invalid_argument] on negative
    [n]. *)
val add : counter -> int -> unit

(** Current counter value. *)
val counter_value : counter -> int

(** [set g x] — overwrite the gauge. *)
val set : gauge -> float -> unit

(** Current gauge value; [0.] before the first {!set}. *)
val gauge_value : gauge -> float

(** [observe h x] — record one sample; raises [Invalid_argument] on
    negative [x]. *)
val observe : histogram -> int -> unit

(** The underlying histogram (shared, not a copy). *)
val histo : histogram -> Dps_prelude.Histogram.t

(** One rendered metric value. Counters and gauges yield a single row
    of kind ["counter"] / ["gauge"]; a histogram expands into one row
    per statistic, kinds ["count"], ["sum"], ["min"], ["max"], ["p50"],
    ["p90"], ["p99"] (quantile rows are omitted while the histogram is
    empty). *)
type row = {
  name : string;
  labels : (string * string) list;  (** sorted by key *)
  kind : string;
  value : float;
}

(** [encode_labels labels] — the canonical ["k=v;k2=v2"] rendering used
    by the CSV sink and for ordering. *)
val encode_labels : (string * string) list -> string

(** [snapshot t] — every registered metric as rows, sorted by
    (name, encoded labels, kind). Deterministic for a fixed set of
    registrations and updates. *)
val snapshot : t -> row list
