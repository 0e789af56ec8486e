(** Multi-replica serving scheduler over the event clock.

    Simulates a deployment of N engine replicas running continuous
    batching on the MikPoly compiler: requests are routed to the least
    loaded replica on arrival, each replica admits from its queue via a
    {!Batcher} policy, pads the step's token count via a {!Bucketing}
    policy, and executes one engine step whose GEMM programs come from a
    bounded per-replica {!Shape_cache}. A cache miss charges the online
    polymerization overhead (the modeled dispatch cost,
    {!Mikpoly_core.Polymerize.modeled_search_seconds}) as a compile
    stall on the step's critical path — at
    capacity 0 every micro-kernel launch pays it, which is what a
    cache-less dynamic-shape system does. *)

type engine = {
  engine_name : string;
  step_seconds : tokens:int -> kv_tokens:int -> float;
      (** device time of one engine step with [tokens] in flight *)
  step_shapes : tokens:int -> ((int * int * int) * int) list;
      (** GEMM shapes a step compiles, with per-step launch counts
          (shape, launches) — e.g. one per layer per projection family *)
  compile_seconds : int * int * int -> float;
      (** stall for polymerizing one uncached shape *)
  precompile_batch : jobs:int -> (int * int * int) list -> int;
      (** warm the engine's compile path for a whole shape suite in one
          batched search ({!Mikpoly_core.Compiler.warm} →
          [Polymerize.search_batch], [jobs] passed through to
          {!Mikpoly_util.Domain_pool.map}); returns the number of fresh
          compiles. Purely a wall-clock optimization of the harness —
          modeled stalls and simulated outcomes are unchanged. *)
}

val memoize :
  (module Hashtbl.HashedType with type t = 'k) -> int -> ('k -> 'v) -> 'k -> 'v
(** [memoize (module K) size compute] is [compute] memoized for the
    caller's lifetime in a table of initial [size] keyed by [K]'s
    equality and hash (e.g. {!Mikpoly_util.Int_keys}, which keeps the
    polymorphic [caml_hash] off the step path). Every engine's memo is
    one. A lock guards the table, because callers may share an engine
    across domains: a call finds under the lock, computes outside it
    (the compute takes other locks, such as the compiler's memo, and
    must not nest inside this one) and re-checks on insert, so racing
    domains converge on one entry. *)

val mikpoly_engine : Mikpoly_core.Compiler.t -> engine
(** The Llama2-13b continuous-batching engine of
    {!Mikpoly_nn.Inflight}, driven through the MikPoly compiler on the
    compiler's platform. Step times are memoized per (token, KV) bucket;
    compile stalls use the modeled online-search cost (DESIGN.md,
    "Online overhead accounting"), so runs are deterministic. *)

val synthetic_engine :
  ?base:float -> ?compile:float -> ?shape_families:int -> unit -> engine
(** A closed-form engine for tests and micro-benchmarks:
    [base + 1e-4·tokens + 1e-8·kv_tokens] seconds per step, a constant [compile]
    stall per uncached shape, [shape_families] distinct GEMM shapes per
    step (4 launches each). Fully deterministic. *)

val graph_engine :
  name:string ->
  bind:(tokens:int -> Mikpoly_graph.Infer.bound) ->
  Mikpoly_core.Compiler.t ->
  engine
(** Whole-model graph engine: one engine step executes an entire bound
    {!Mikpoly_graph.Dag} (as produced by [bind] at the step's token
    count) through the graph executor on the compiler's platform.
    [step_shapes] reports the bound graph's per-pass shape launches, so
    the scheduler's per-replica shape cache and compile-stall
    accounting apply to whole-graph admissions exactly as they do to
    flat engines; step times are memoized per token count and compile
    stalls use the modeled online-search cost, so runs are
    deterministic. KV length is ignored — the graph's own cache
    dimensions are fixed by [bind]. *)

type config = {
  replicas : int;
  batcher : Batcher.policy;
  bucketing : Bucketing.policy;
  cache_capacity : int;  (** per replica; 0 disables program caching *)
}

type completed = Replica.completed = {
  request : Request.t;
  first_token : float;  (** absolute time of the first decoded token *)
  finish : float;
  replica : int;
}

type status =
  | Completed
  | Rejected of string  (** shed before any work: batcher or queue bound *)
  | Timed_out  (** every attempt hit the per-attempt timeout *)
  | Failed of string  (** lost to faults (reason given), all retries spent *)
      (** Terminal status of one request. Every request admitted to {!run}
          ends in exactly one status — the no-silent-loss invariant the
          chaos harness asserts. *)

type resilience = {
  retry : Mikpoly_fault.Retry.policy;
      (** per-request retry budget and backoff for failed attempts *)
  attempt_timeout : float;
      (** per-attempt deadline on the event clock: a step running longer
          is abandoned at the deadline and retried ([infinity] = none) *)
  max_queue : int;  (** per-replica waiting-queue bound (0 = unbounded) *)
  shed : [ `Reject_new | `Drop_oldest ];
      (** what a full queue does: refuse the arrival, or evict its
          oldest waiting request — the smallest (arrival, id), whatever
          order the batcher admits in — to make room *)
}

val default_resilience : resilience
(** {!Mikpoly_fault.Retry.default}, no attempt timeout, unbounded queue,
    [`Reject_new]. *)

type outcome = {
  completed : completed list;  (** completion order *)
  dropped : Request.t list;  (** shed by the batcher *)
  rejected : (Request.t * string) list;
      (** shed by load-shedding admission (with reason) *)
  timed_out : Request.t list;  (** abandoned by the per-attempt timeout *)
  failed : (Request.t * string) list;
      (** lost to injected faults (with reason) — loud, never silent *)
  steps : int;
  makespan : float;  (** time the last step finished *)
  compile_stall_seconds : float;
  adapt_stall_seconds : float;
      (** online-adaptation recompilation time charged via [?adapt] *)
  actual_tokens : int;  (** token work before padding, summed over steps *)
  padded_tokens : int;  (** token work actually executed *)
  cache : Shape_cache.stats list;
      (** per replica, plus one entry per cache retired by a crash *)
  queue_depth_sum : int;  (** total waiting requests, summed per step *)
  queue_samples : int;
  retries : int;  (** re-attempts granted (step faults and crashes) *)
  crashes : int;  (** replica crash events that fired *)
  injected_faults : int;  (** step faults + stragglers + crashes *)
}

val project :
  Replica.counters ->
  completed:completed list ->
  dropped:Request.t list ->
  rejected:(Request.t * string) list ->
  timed_out:Request.t list ->
  failed:(Request.t * string) list ->
  adapt_stall_seconds:float ->
  cache:Shape_cache.stats list ->
  outcome
(** The one projection of a loop's {!Replica.counters} and terminal
    lists onto an outcome ([retries] are the counters' requeues), shared
    by every serving loop so the {!Metrics} pipeline applies to all. *)

val statuses : outcome -> (Request.t * status) list
(** Terminal status of every request the run touched, in no particular
    order. Its length equals the input trace length exactly — the
    conservation check chaos runs assert. *)

val run :
  ?jobs:int -> ?adapt:(unit -> float) -> ?faults:Mikpoly_fault.Plan.t ->
  ?resilience:resilience -> config -> engine -> Request.t list -> outcome
(** Simulate the full trace to drain. Deterministic for a deterministic
    engine: the same configuration and trace produce the identical
    outcome. The empty trace yields an empty outcome. Raises
    [Invalid_argument] before the first event when a crash in [faults]
    names a replica outside [0, replicas), when the batcher policy is
    invalid, or when the trace fails {!Request.validate_trace}: the
    waiting queues order requests by (arrival, id) ({!Batcher.queue}),
    and a request with nothing to decode never completes. Queueing an
    arrival, and admitting or shedding a request, costs O(log n)
    amortized in a queue of [n]; no arrival
    or step walks a whole queue. Per event, the loop recomputes the
    wake-up of the one replica the event touched (the arrival's
    assignee, the crashed or the stepped replica) and picks the next
    event by scanning the [replicas] cached wake-up times, so an event
    costs O(replicas) float reads plus that queue work.

    [adapt] is polled once after every engine step; a positive return is
    online-adaptation work (drift-reaction recompiles) in seconds, charged
    on the stepping replica's event clock like a compile stall and summed
    into [adapt_stall_seconds]. Wire
    {!Mikpoly_adapt.Adapter.drain_stall_seconds} here to make a serving
    replica pay for its adapter's recompilations; the default
    [fun () -> 0.] is equivalent to no adaptation.

    [jobs] ([0], the default, inherits
    {!Mikpoly_util.Domain_pool.default_jobs}; [1] forces sequential)
    controls a concurrent precompile phase: when
    [Domain_pool.effective_jobs jobs > 1], the GEMM shapes reachable
    from the batcher's admissible bucketed token counts (decode batches
    up to [min max_batch (List.length requests)]) are compiled up front
    through [engine.precompile_batch ~jobs] and the engine's
    mutex-guarded memos, before the (inherently sequential) event loop
    runs. This accelerates the harness's wall clock only — the simulated
    outcome, including per-replica compile stalls, is identical for
    every job count.

    Telemetry: every run feeds the always-on [serve.*] metrics (steps,
    completions, drops, TTFT and stall histograms). With the tracer
    enabled ({!Mikpoly_telemetry.Tracer.enable}) it also records
    per-phase spans on the virtual ["serve"] track (one lane per
    replica, simulated seconds): [queue] per admitted request,
    [step]/[compile_stall] per engine step, and a whole-request
    [request] span whose attributes carry the TTFT attribution. *)
