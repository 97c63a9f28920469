(** The serving daemon's core: multi-tenant admission over a live
    protocol instance, with a crash-safe write-ahead journal.

    The engine owns one {!Dps_core.Protocol} run and advances it frame
    by frame under commands (attach/detach tenants, inject batches,
    step, checkpoint). Admission is layered, in a fixed order that
    replay depends on:

    + the tenant must be attached;
    + the path must be valid for the scenario's topology;
    + the tenant's class must not be shedding under the
      {!Dps_faults.Class_guard} (watermark hysteresis on the
      failed-buffer potential Φ, observed at every frame boundary) —
      a shed rejection consumes no tokens;
    + the tenant's token bucket must cover the batch, all or nothing —
      a quota rejection carries deterministic retry guidance
      ({!Bucket.frames_until}).

    Everything is in logical frame time — the engine never reads the
    wall clock — so the state is a pure function of the command
    sequence, which is what makes the checkpoint design work: a
    write-ahead journal of state-changing ops (flushed per op, fsync'd
    at checkpoints) plus a versioned header written via tmp + fsync +
    atomic rename. {!restore} re-executes the journal through the same
    admission code path, using the recorded outcomes as an integrity
    check, and resumes byte-identically — pinned by the \@serve-smoke
    kill/restart goldens. Formats and failure modes: docs/SERVING.md. *)

type t

type config = {
  scenario : Scenario.t;
  seed : int;
  guard : string option;
      (** class-guard watermark spec, ["H0:L0,H1:L1,..."] in priority
          order (mMTC first) — {!Dps_faults.Class_guard.parse} *)
  faults : string option;  (** fault-plan spec — {!Dps_faults.Plan.parse} *)
  checkpoint_every : int;
      (** frames between automatic checkpoints; [0] checkpoints only on
          {!checkpoint}/{!close} *)
  metrics_every : int;
      (** frames between metric snapshots to the sinks; [0] = final only *)
}

(** [default_config ~scenario ~seed ()] — checkpoint every 16 frames,
    no guard, no faults, final-only metrics. *)
val default_config :
  ?guard:string ->
  ?faults:string ->
  ?checkpoint_every:int ->
  ?metrics_every:int ->
  scenario:Scenario.t ->
  seed:int ->
  unit ->
  config

(** [create ?sinks ?checkpoint_dir ?jobs cfg] — a fresh engine at frame
    0. The telemetry bundle is always enabled (an empty sink list is
    fine: the metrics registry also backs {!status_fields}); with
    [checkpoint_dir] the journal is created ({e truncating} any previous
    one — {!restore} is the path that preserves) and an initial
    checkpoint is written. [jobs] (default 1) parallelises sparse
    scenario construction and the per-frame tracker rescans; it is an
    execution knob, not state — results and journals are byte-identical
    whatever it is, so it is {e not} recorded in checkpoint headers.
    Raises [Invalid_argument]/[Failure] on a bad scenario, guard or
    fault spec, or [jobs < 1]. *)
val create :
  ?sinks:Dps_telemetry.Sink.t list ->
  ?checkpoint_dir:string ->
  ?jobs:int ->
  config ->
  t

(** Admission verdict for one injection batch. *)
type outcome =
  | Admitted of { first_id : int; copies : int }
      (** queued for the next frame; ids [first_id .. first_id+copies-1] *)
  | Shed of { klass : Classes.t }
      (** the class guard is shedding this tenant's class *)
  | Overloaded of { retry_after : int }
      (** quota exhausted; retrying after [retry_after] frames is
          guaranteed to find the tokens (absent other traffic) *)
  | Too_large of { burst : float }
      (** the batch exceeds the bucket's burst cap: no amount of
          waiting helps *)

(** [attach t ~tenant ~klass ?rate ?burst ()] — admit a tenant with a
    fresh, full token bucket (class defaults when [rate]/[burst] are
    absent). [Error] on an invalid name, a duplicate, or bad bucket
    parameters. *)
val attach :
  t ->
  tenant:string ->
  klass:Classes.t ->
  ?rate:float ->
  ?burst:float ->
  unit ->
  (unit, string) result

(** [detach t ~tenant] — remove a tenant. Its in-flight packets still
    deliver (and keep its cumulative counters honest). *)
val detach : t -> tenant:string -> (unit, string) result

(** [submit t ~tenant ~links ~delay ~copies] — one batch through the
    admission layers; [Ok outcome] for every decided case, [Error] only
    for malformed requests (unknown tenant, invalid path, bad
    [delay]/[copies]) — those change no state and are not journaled. *)
val submit :
  t ->
  tenant:string ->
  links:int list ->
  delay:int ->
  copies:int ->
  (outcome, string) result

(** [step t ~frames] — run protocol frames. Pending admitted batches are
    injected at the first slot of the next frame; each frame boundary
    observes the class guard on Φ and refills every bucket. Auto-
    checkpoints per [checkpoint_every]. Raises [Invalid_argument] when
    [frames < 1]. *)
val step : t -> frames:int -> unit

(** Force a checkpoint now (journal fsync, then header via atomic
    rename). No-op without a checkpoint directory. *)
val checkpoint : t -> unit

(** Final metrics snapshot, checkpoint, journal close, sink flush.
    Idempotent. Sinks passed to {!create} stay open — the caller owns
    them. *)
val close : t -> unit

(** {2 Introspection} *)

val frame : t -> int
val in_flight : t -> int

(** Admitted packets waiting for the next frame boundary. *)
val pending : t -> int

val tenants : t -> int
val potential : t -> int
val report : t -> Dps_core.Protocol.report
val telemetry : t -> Dps_telemetry.Telemetry.t
val injector : t -> Dps_faults.Injector.t option

(** Is this class currently being shed? *)
val shedding : t -> klass:Classes.t -> bool

(** Delivery-latency histogram of a class, in slots (shared, live). *)
val class_latency : t -> klass:Classes.t -> Dps_prelude.Histogram.t

(** Packets shed from a class so far. *)
val class_shed : t -> klass:Classes.t -> int

(** Deliveries of the class that exceeded its frame budget
    ({!Classes.default_budget_frames}). *)
val budget_violations : t -> klass:Classes.t -> int

(** [(class, admitted, delivered)] for an attached tenant. *)
val tenant_stats : t -> tenant:string -> (Classes.t * int * int) option

(** The status reply body: counters, per-class shedding flags, and the
    full metrics snapshot rendered by {!Dps_telemetry.Sink.metrics_line}
    — the same canonical line the jsonl sink writes, so status replies
    and recorded telemetry can never drift apart. *)
val status_fields : t -> (string * Wire.value) list

(** The stats reply body: a structured fairness/SLO snapshot — Jain's
    index over per-tenant admitted shares, a per-tenant table (sorted by
    name: class, admitted/shed/rejected/delivered, share of total
    admissions) and a per-class table (admitted/denied/shed, budget
    violations, delay-budget burn = p99 latency / budget, shed and deny
    rates, p50/p99 when samples exist), plus queue/pending depths and
    their high-water marks. Read-only: everything is recomputed from the
    raw counters, so issuing [stats] perturbs nothing replay or the
    metrics stream could observe. Schema: docs/OBSERVABILITY.md §7. *)
val stats_fields : t -> (string * Wire.value) list

(** {2 Metrics subscription}

    A single optional push target for the live metrics stream: while
    subscribed, {!step} calls [push line] at every frame boundary whose
    index is a multiple of the cadence, where [line] is the canonical
    {!Dps_telemetry.Sink.metrics_line} for the full registry. The
    subscription is {e journal-exempt} — it is never recorded, a
    restored engine starts unsubscribed, and pushes happen after the
    frame boundary — so the reply/journal byte streams of a replayed
    run are unchanged by whoever was watching. *)

(** [subscribe t ~every ~push] — install (or replace) the push target;
    [Error] when [every < 1]. A [push] that raises is detached on the
    spot and the exception swallowed: a dead client must not be able to
    interrupt {!step} between state advance and journaling. *)
val subscribe :
  t -> every:int -> push:(string -> unit) -> (unit, string) result

(** [unsubscribe t] — drop the push target; returns whether one was
    installed. *)
val unsubscribe : t -> bool

(** The current cadence, when subscribed. *)
val subscribed : t -> int option

(** {2 Crash recovery} *)

type restore_report = {
  replayed_ops : int;
  replayed_frames : int;
  dropped_tail : bool;
      (** a torn final journal line (crash mid-append) was discarded *)
}

(** [restore ?sinks ?jobs ~dir ()] — rebuild from [dir]'s header and
    journal by deterministic replay, then resume journaling in place
    (the torn tail, if any, is truncated away first; a post-restore
    checkpoint re-anchors the header). [jobs] as in {!create} — replay
    is byte-identical whatever it is. [Error] on a missing/corrupt
    header, a malformed mid-stream journal line, a journal shorter than
    the header records, or any replay outcome that disagrees with the
    journaled one. *)
val restore :
  ?sinks:Dps_telemetry.Sink.t list ->
  ?jobs:int ->
  dir:string ->
  unit ->
  (t * restore_report, string) result
