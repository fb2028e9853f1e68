(** Process-wide metrics registry.

    Counters, gauges and log2-bucketed histograms, registered once by
    name and updated lock-free from any domain ([Atomic] cells — every
    domain of a pipelined campaign writes into the same registry). Handles are meant to be hoisted to module level so the hot
    path pays one atomic operation per update and never takes the
    registry lock.

    Naming convention (relied on by the determinism tests and the stage
    tables): metrics measuring {e time} end in ["ns"] (excluded from
    cross-domain determinism comparisons), pool scheduling metrics start
    with ["pool."], and per-stage probes populate ["stage.<name>.ns"] /
    ["stage.<name>.calls"] / ["stage.<name>.hist_ns"] (see {!Probe}). *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Register (or look up) a counter. Same name ⇒ same cell. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : string -> histogram

val observe : histogram -> int -> unit
(** Record one sample into its log2 bucket (negative samples clamp to
    bucket 0). *)

(** {1 Bucketing}

    Bucket 0 holds samples [<= 0]; bucket [b >= 1] holds samples in
    [[2^(b-1), 2^b - 1]]. So 1 lands in bucket 1, 2..3 in bucket 2, and
    [max_int] in bucket 62. *)

val bucket_of : int -> int
val bucket_lower : int -> int
(** Smallest sample value belonging to a bucket (0 for bucket 0). *)

(** {1 Snapshots} *)

type hist_summary = {
  h_count : int;
  h_sum : int;
  h_buckets : (int * int) list;
      (** (bucket lower bound, count), ascending, non-zero buckets only *)
}

type summary = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;
  histograms : (string * hist_summary) list;
}

val snapshot : unit -> summary
(** Consistent-enough read of every registered metric (each cell is read
    atomically; the set is not a cross-metric transaction). Sorted by
    name, so equal workloads produce equal snapshots. *)

val reset : unit -> unit
(** Zero every registered metric (registrations persist). For tests and
    for scoping a measurement window. *)

val to_json : summary -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {name:
    {"count":..,"sum":..,"buckets":{"<lower>":count,..}}}}]. *)

type stage = {
  st_name : string;  (** e.g. ["model"] for [stage.model.*] *)
  st_calls : int;
  st_total_ns : int;
}

val stage_breakdown : summary -> stage list
(** Every ["stage.<name>.ns"] / ["stage.<name>.calls"] counter pair,
    sorted by descending total time. *)
