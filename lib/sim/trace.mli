(** Per-run channel accounting.

    Counts slots, attempts and successes, globally and per link. Used by
    tests for conservation invariants and by the benches for utilization
    figures. *)

type t

(** [create ~m] — zeroed counters for [m] links. Raises
    [Invalid_argument] when [m <= 0]. *)
val create : m:int -> t

(** Total slots elapsed. *)
val slots : t -> int

(** Total transmission attempts across all slots. *)
val attempts : t -> int

(** Total successful transmissions. *)
val successes : t -> int

(** Slots in which at least one attempt was made. *)
val busy_slots : t -> int

(** [successes_on t e] — successful transmissions on link [e]. *)
val successes_on : t -> int -> int

(** [attempts_on t e] — attempts on link [e]. *)
val attempts_on : t -> int -> int

(** [record_vec t ~attempted ~succeeded] — fold one slot into the
    counters; allocates nothing (called by {!Channel.step_vec}). *)
val record_vec :
  t ->
  attempted:Dps_prelude.Intvec.t ->
  succeeded:Dps_prelude.Intvec.t ->
  unit

val pp : Format.formatter -> t -> unit
