(** Weighted fair queueing across tenants (start-time fair queueing).

    One FIFO lane per tenant; a request reaching the head of its lane
    is stamped with a frozen virtual finish tag
    [max(lane_finish, vtime) + cost/weight] where cost is the request's
    token work and weight its tier's ({!Tenant.weight}). Selection
    takes the eligible lane head with the smallest tag, ties to the
    lowest tenant id; virtual time advances to each grant's start tag,
    so an idle tenant re-enters at the current virtual time rather than
    cashing in unused credit, while a waiting head keeps its tag and
    cannot be outrun forever by a backlogged heavier lane.

    Invariants:
    - per-tenant FIFO: a tenant's requests are granted in push order;
    - weighted shares: over any interval where a set of tenants stays
      backlogged, each receives granted cost proportional to its weight,
      within one maximal request of exact — so a weight-w tenant facing
      total weight W is never starved below w/W of service;
    - determinism: identical push/take sequences produce identical
      grants (ties never consult hash order). *)

type t

type lane_stats = {
  s_tenant : Tenant.t;
  s_queued : int;  (** requests still waiting in the lane *)
  s_grants : int;  (** requests granted so far *)
  s_cost : float;  (** token cost granted so far *)
}

val create : unit -> t
(** An empty queue. *)

val push : t -> Tenant.tagged -> unit
(** Enqueue at the tail of the request's tenant lane. *)

val push_front : t -> Tenant.tagged -> unit
(** Re-queue at the head of the tenant lane without charging virtual
    time — for work bounced back by a replica crash. *)

val length : t -> int
(** O(1). *)

val is_empty : t -> bool

val fold : t -> ('a -> Tenant.tagged -> 'a) -> 'a -> 'a
(** Fold over every queued request in deterministic (tenant id, FIFO)
    order — for reading the queue, not consuming it. O(n), and it copies
    nothing. There is no list view of a queue: copying it on every event
    made the fleet loop's cost grow with its backlog. *)

val fold_heads : t -> ('a -> Tenant.tagged -> 'a) -> 'a -> 'a
(** Fold over the head of every non-empty lane, in tenant-id order.
    Every grant of {!take} takes a lane head, so these are the requests
    it can grant first. O(lanes). *)

val take :
  t -> max:int -> eligible:(Tenant.tagged -> bool) ->
  ?first:(Tenant.tagged -> bool) ->
  ?group:(Tenant.tagged -> Tenant.tagged -> bool) -> unit ->
  Tenant.tagged list
(** Grant up to [max] requests in WFQ order, charging each to its
    tenant's virtual time. Only requests satisfying [eligible] are
    considered. The first grant must additionally satisfy [first] (the
    coalescing affinity filter); if no head does, nothing is granted.
    Subsequent grants prefer requests matching [group leader r] — the
    coalescing legality rule: a request may jump ahead of WFQ order
    only into a group whose shape signature matches its own — and fall
    back to plain WFQ order when none match, so the offer stays
    work-conserving. *)

val stats : t -> lane_stats list
(** Per-lane totals in tenant-id order. *)
