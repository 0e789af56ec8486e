(** One order-preserving parallel map over persistent OCaml 5 worker
    domains, and the one policy that turns a job count into workers.

    The offline autotuner's candidate scoring and the batched online
    search ([Polymerize.search_batch]) go through {!map}; nothing else
    decodes or clamps a job count. A job count [j <= 0]
    means the process default ({!default_jobs}); any count is then
    clamped to [Domain.recommended_domain_count ()], read once at start
    ({!effective_jobs}). *)

val map : ?jobs:int -> min_chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ?jobs ~min_chunk f a] is [Array.map f a], computed on
    [effective_jobs jobs] domains ([jobs] defaults to [0]). The caller
    and [effective_jobs jobs - 1] persistent workers claim chunks of at
    least [min_chunk] consecutive elements, about four chunks per
    worker, from one shared cursor; the order in which elements run is
    unspecified, the result's order is [a]'s. It runs [Array.map f a] on
    the caller when that leaves one worker, when [a] has at most
    [min_chunk] elements, or when the workers are busy: another
    domain's map is running, or this map is nested in a body of
    another. So [f] must not rely on actually running concurrently.

    If a body raises, the chunks not yet claimed are skipped and the
    first exception (by wall clock, not index) is re-raised on the
    caller with its backtrace; the next map runs normally. Raises
    [Invalid_argument] when [min_chunk < 1]. *)

val effective_jobs : int -> int
(** The number of domains a map at [~jobs:j] runs its bodies on at most:
    [j], or {!default_jobs} when [j <= 0], clamped to
    [1 .. Domain.recommended_domain_count ()]. *)

val default_jobs : unit -> int
(** The process-wide default job count (the CLI's [--jobs]). Initially
    1, so nothing goes parallel unless asked to. *)

val set_default_jobs : int -> unit
(** Set the process default; [0] or below means {!recommended_jobs}. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] capped at 8: what [--jobs 0]
    (auto) sets. *)
