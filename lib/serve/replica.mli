(** One serving replica and the step machinery every event loop shares.

    {!Scheduler.run}, [Mikpoly_fleet.Fleet.run] and
    [Mikpoly_hetero.Hetero.run] differ in queue discipline, placement and
    control planes, but each replica steps the same way: admitted
    requests join an in-flight batch, the batch's token count is padded
    by a {!Bucketing} policy, every micro-kernel launch is charged by the
    program lookup ladder (replica cache, then an optional shared
    ready-at store, then an on-path compile that stalls the step — the
    paper's §5 online-overhead rule), and a successful step consumes
    each member's prompt in one step, then decodes one token per step.
    A crash loses the in-flight batch's progress and the replica's
    cache. This module is that shared machinery; the loops keep only
    their policies.

    ['a] is the loop's handle for an in-flight request: the request
    itself in {!Scheduler}, a tenant-tagged request in the fleets. *)

type completed = {
  request : Request.t;
  first_token : float;  (** absolute time of the first decoded token *)
  finish : float;
  replica : int;
}

type 'a active = {
  item : 'a;
  req : Request.t;
  mutable remaining : int;  (** output tokens still to decode *)
  mutable kv : int;  (** KV-cache length *)
  mutable prefill : int;  (** prompt tokens not yet consumed *)
  mutable first_token : float;  (** [nan] until the first decode step *)
}

type 'a slot = {
  index : int;  (** fault-draw key and [completed.replica] *)
  mutable clock : float;  (** time the replica is next free *)
  mutable down_until : float;  (** crash restart: no progress before this *)
  mutable step_no : int;  (** per-slot step index: the fault-draw key *)
  mutable cache : unit Shape_cache.t;  (** replaced on crash or retirement *)
  mutable act : 'a active list;  (** the in-flight batch, admission order *)
}

val slot : index:int -> capacity:int -> 'a slot
(** An idle slot at time 0 with an empty cache of [capacity] programs. *)

val admit : 'a slot -> item:(Request.t -> 'a) -> Request.t list -> unit
(** Append granted requests, in order, to the in-flight batch. *)

val ready_at : 'a slot -> (unit -> float option) -> float option
(** When the slot can next step: at its clock (or restart) while it has
    in-flight work, else at the thunk's time, if later — [None] for an
    empty queue. The thunk is the loop's wake-up rule: the earliest time
    its admission would take or shed a request. *)

val idle : 'a slot -> now:float -> shed:bool -> unit
(** An admission that left the batch empty. If it [shed] work the clock
    stays at [now]; otherwise it is nudged 1 µs forward so a policy that
    admits nothing cannot livelock the event loop. Each nudge counts on
    the always-on [replica.idle_nudges] counter. A loop that wakes a
    replica only when its admission can take or shed a request does not
    nudge, unless the admission discards what it took (a fleet's
    cancelled hedge copy). *)

type counters = {
  mutable steps : int;
  mutable makespan : float;
  mutable stall : float;  (** on-path compile stall, summed over steps *)
  mutable actual_tokens : int;  (** token work before padding *)
  mutable padded_tokens : int;  (** token work actually executed *)
  mutable queue_depth_sum : int;
  mutable queue_samples : int;
  mutable crashes : int;
  mutable injected : int;  (** injected faults of every kind *)
  mutable requeues : int;  (** in-flight requests sent back to a queue *)
}
(** The totals every loop reports; {!Scheduler.project} turns them into a
    {!Scheduler.outcome}. *)

val counters : unit -> counters

type batch = {
  kv_tokens : int;
  btokens : int;  (** padded token count the step executes *)
  shapes : (Shape_cache.key * int) list;  (** (shape, launches) *)
}

val batch :
  counters ->
  'a slot ->
  queued:int ->
  bucketing:Bucketing.policy ->
  coalesce:bool ->
  step_shapes:(tokens:int -> (Shape_cache.key * int) list) ->
  batch
(** Size the next step of a non-empty batch and count it: one queue
    sample of depth [queued], plus actual tokens (each prefilling
    member's prompt, 1 per decoder) and padded tokens.
    Uncoalesced, the step runs the bucket of the summed tokens.
    Coalesced, each prefilling member is padded to its own bucket and
    launches that bucket's program (plus the decoders' bucket), so a
    group of same-signature prefills reuses one compiled program. *)

val lookup :
  'a slot ->
  now:float ->
  compile:(Shape_cache.key -> float) ->
  store:float Shape_cache.t option ->
  on_store_hit:(unit -> unit) ->
  (Shape_cache.key * int) list ->
  float
(** The program lookup ladder for each [(shape, launches)] entry. Every
    micro-kernel launch counts: a hit in the replica cache costs
    nothing; else a [store] entry ready at or before [now] costs nothing
    (and calls [on_store_hit]); else the launch compiles on the step's
    critical path and the program is published to [store] as ready at
    [now + stall so far]. Either way the program enters the replica
    cache. The replica cache is probed once per distinct shape, not per
    launch: a resident shape takes all its remaining launches as hits in
    one {!Shape_cache.find_n}, and only a miss walks the rest of the
    ladder launch by launch — so counters, recency, publish times and
    the stall are those of one lookup per launch. Returns the step's
    stall. *)

val next_step : 'a slot -> int
(** The slot's fault-draw step index; advances it, so a retried step
    draws afresh. *)

val advance :
  'a slot -> fin:float -> on_done:('a active -> completed -> unit) -> unit
(** A successful step finishing at [fin]: a prefilling member consumes
    its whole prompt; every other member decodes one token, the first
    stamped [fin]. A member whose last token this was leaves the batch
    and [on_done] receives its completion record. *)

val close_step : counters -> 'a slot -> clock:float -> unit
(** Count a step whose slot is next free at [clock]. *)

val evict : 'a slot -> requeue:('a -> unit) -> int
(** Empty the in-flight batch through [requeue], last member first, so
    pushing each to a lane head leaves the batch there in its original
    order. Returns how many were evicted. *)

val retire : 'a slot -> Shape_cache.stats
(** Replace the slot's cache with an empty one of the same capacity and
    return the old cache's stats. *)

val crash :
  counters ->
  'a slot ->
  now:float ->
  restart_delay:float ->
  requeue:('a -> unit) ->
  Shape_cache.stats
(** A replica crash at [now]: count it, {!evict} the batch (counted as
    requeues), {!retire} the cache (its stats are returned for the
    report) and hold the slot down until [now + restart_delay]. *)

type 'e next
(** One next-event pick: the earliest time wins, ties go to the lowest
    priority, then to whichever candidate was considered first (loops
    consider replicas in index order). *)

val consider : 'e next -> float -> int -> 'e -> unit
(** [consider n time priority event]. *)

val drive :
  candidates:('e next -> unit) -> fire:(float -> 'e -> unit) -> unit
(** The event loop: offer every pending event to [candidates], [fire]
    the pick at its time, and repeat until nothing is pending. *)
