(** Circuit breaker for a fallible, costly operation (e.g. the adapter's
    drift-reaction recalibration).

    Closed passes work through and counts consecutive failures; at
    [failure_threshold] it trips Open and rejects work for [cooldown]
    units of the caller's clock; the first request after the cooldown is
    admitted as a Half_open probe — its success re-closes the breaker,
    its failure re-trips it. The clock is supplied by the caller
    ([~now]), so a breaker embedded in the simulated stack is as
    deterministic as the clock it is fed. *)

type state = Closed | Open | Half_open

val state_name : state -> string

type policy = {
  failure_threshold : int;  (** consecutive failures that trip (>= 1) *)
  cooldown : float;  (** clock units Open rejects work for *)
}

val default : policy
(** Trip after 3 consecutive failures, 1.0 clock units of cooldown. *)

type stats = {
  trips : int;  (** times the breaker opened (incl. failed probes) *)
  probes : int;  (** half-open probes admitted *)
  consecutive_failures : int;  (** current closed-state failure run *)
  rejected : int;  (** calls refused while open/probing *)
}

type t

val validate : policy -> unit
(** Raises [Invalid_argument] unless [failure_threshold >= 1] and
    [cooldown >= 0] (so a NaN cooldown is rejected). *)

val create : ?policy:policy -> unit -> t
(** Raises like {!validate}. *)

val allow : t -> now:float -> bool
(** Whether the protected operation may run now. May transition
    Open → Half_open (admitting the probe). Pair every [true] with a
    subsequent {!record_success} or {!record_failure}. *)

val would_allow : t -> now:float -> bool
(** The verdict {!allow} would return, with no state transition and no
    rejection accounting — a pure peek, safe to call while ranking a
    breaker-guarded target among alternatives. A [true] only becomes a
    probe admission when {!allow} is actually called. *)

val record_success : t -> unit

val record_failure : t -> now:float -> unit

val state : t -> state

val stats : t -> stats
