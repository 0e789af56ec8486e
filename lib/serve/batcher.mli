(** Continuous-batching admission policies.

    Between engine steps a replica decides which waiting requests join
    the in-flight batch. This generalizes the single-policy loop of
    {!Mikpoly_nn.Inflight}:

    - [Greedy]: admit oldest-first whenever a slot is free (vLLM-style
      continuous batching);
    - [Timeout]: hold arrivals back up to [window] seconds to form
      larger batches, unless the queue alone can already fill the batch
      (classic dynamic batching à la Triton);
    - [Slo_aware]: earliest-deadline-first admission, shedding requests
      whose end-to-end deadline has already passed instead of wasting
      device time on them. *)

type policy =
  | Greedy of { max_batch : int }
  | Timeout of {
      max_batch : int;
      window : float;  (** seconds a request may be held for batching *)
    }
  | Slo_aware of { max_batch : int }

val name : policy -> string

val max_batch : policy -> int

val validate : policy -> unit
(** Raises [Invalid_argument] if [max_batch < 1] or a [Timeout] window
    is negative or NaN. *)

(** {1 Waiting queue}

    One replica's waiting requests, kept in (arrival, id) order — the
    order {!Request.compare_arrival} defines — and, under [Slo_aware],
    also in (deadline, id) order ({!Request.deadline}, ties by id). Both
    keys must be unique, so the requests of one queue need distinct ids
    and finite arrivals. With [n] requests queued, [length] costs O(1);
    [push], and taking one request through {!pop_oldest} or {!admit},
    cost O(log n) amortized. *)

type queue

val queue : policy -> queue
(** An empty queue that admits under [policy]. Raises
    [Invalid_argument] as {!validate} does. *)

val length : queue -> int

val push : queue -> Request.t -> unit

val pop_oldest : queue -> Request.t option
(** Remove the smallest (arrival, id); [None] iff the queue is empty. *)

type decision = {
  admitted : Request.t list;  (** join the batch now, admission order *)
  dropped : Request.t list;  (** shed ([Slo_aware] only), arrival order *)
}

val admit : queue -> now:float -> in_flight:int -> decision
(** Take the requests that join the batch at [now], and those shed;
    the rest stay queued. [in_flight] is the number of requests already
    in the batch; at most [max_batch - in_flight] are admitted.

    - [Greedy]: the oldest, in (arrival, id) order.
    - [Timeout]: the same when [length + in_flight >= max_batch];
      otherwise only the oldest with [now >= arrival +. window].
    - [Slo_aware]: first every request with [not (now < deadline)] is
      shed; then the earliest deadlines are admitted, in (deadline, id)
      order. *)

val admit_list :
  policy ->
  now:float ->
  in_flight:int ->
  Request.t list ->
  decision * Request.t list
(** {!admit} on a queue holding exactly the given requests (distinct ids,
    finite arrivals), for a caller that holds a short list rather than a
    queue: the same decision, and the requests left, in the order [admit]
    takes them — (deadline, id) under [Slo_aware], (arrival, id)
    otherwise. Costs one sort of the list; raises like {!queue}. *)

val next_eligible : queue -> float option
(** Earliest instant at which [admit] on an idle replica would admit at
    least one request (or drop one, for [Slo_aware]) — the event time an
    idle replica sleeps until. Read from the oldest request: its arrival,
    plus the window under [Timeout] unless [length >= max_batch]. [None]
    iff the queue is empty. *)
