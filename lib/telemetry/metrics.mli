(** Metrics registry: named counters, gauges and fixed-bucket
    histograms with a snapshot/diff API.

    Unlike the span tracer, metrics are always on: an increment is one
    mutable-int store, cheap enough for every hot path, so the
    registry accumulates (cache hit rates, search candidate counts,
    serve TTFTs) whether or not tracing is enabled. Use
    {!snapshot}/{!diff} to scope measurements to a region of interest
    and {!reset} for test isolation.

    Registration is get-or-create by name: asking twice for the same
    counter returns the same cell. Names are registered once; asking
    for an existing name as a different metric kind raises
    [Invalid_argument]. *)

type t
(** A registry. *)

val global : t
(** The process-wide registry used when [?registry] is omitted. *)

val create : unit -> t

(** {1 Counters} *)

type counter

val counter : ?registry:t -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : ?registry:t -> string -> gauge
val set : gauge -> float -> unit

val gauge_add : gauge -> float -> unit
(** Atomic relative adjustment (CAS loop) — for gauges tracking a level
    such as queue depth or live replica count, where concurrent [+1]/[-1]
    deltas must not lose updates the way a read-modify-[set] would. *)

val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val default_buckets : float array
(** Decades from 1e-6 to 1e2 — a seconds-oriented default. *)

val histogram : ?registry:t -> ?buckets:float array -> string -> histogram
(** [buckets] are strictly increasing upper bounds; an implicit
    overflow bucket catches larger observations. On re-registration the
    existing histogram is returned and [buckets] is ignored. Raises
    [Invalid_argument] on empty or non-increasing bounds. *)

val observe : histogram -> float -> unit
(** Count the observation in the first bucket whose bound is [>=] the
    value ([le] semantics), accumulating sum and count. Lock-free and
    domain-safe; a {!snapshot} taken while another domain observes may
    see the bucket counted before the sum. *)

(** {1 Snapshots} *)

type metric =
  | Counter of { name : string; value : int }
  | Gauge of { name : string; value : float }
  | Histogram of {
      name : string;
      buckets : float array;
      counts : int array;  (** length [Array.length buckets + 1]; last is overflow *)
      sum : float;
      count : int;
    }

type snapshot = metric list

val metric_name : metric -> string

val snapshot : ?registry:t -> unit -> snapshot
(** Current values, in registration order. *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-name deltas: counters and histograms subtract, gauges keep the
    [after] value. Metrics absent from [before] pass through; metrics
    absent from [after] are dropped. *)

val find : snapshot -> string -> metric option

val reset : ?registry:t -> unit -> unit
(** Zero every value; registrations (and bucket layouts) survive. *)
