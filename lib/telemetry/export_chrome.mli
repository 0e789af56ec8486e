(** Chrome [trace_event] exporter.

    Produces the JSON array-of-events format that [chrome://tracing]
    and {{:https://ui.perfetto.dev}Perfetto} load directly. Each track
    becomes a process (with a [process_name] metadata record), each
    lane a thread, and each span a complete ([ph:"X"]) event with
    microsecond timestamps — track-local times are converted through
    the per-track units function, so device-cycle spans and wall-clock
    compile spans land on one coherent timeline. Output is
    deterministic: tracks sort alphabetically, events by timestamp. *)

val to_json : units:(string -> float) -> Span.t list -> Json.t
(** [units track] is the track's units-per-second (see
    {!Tracer.units}). *)

val to_string : units:(string -> float) -> Span.t list -> string

val of_tracer : unit -> string
(** Export the global tracer's recorded spans with its track units. *)
