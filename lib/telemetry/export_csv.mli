(** CSV dump of a metrics snapshot.

    Columns are [kind,name,key,value]. Counters and gauges emit one
    row with [key = "value"]; histograms expand to one row per bucket
    ([key = "le=<bound>"], the overflow bucket as [le=+inf]) plus
    [sum] and [count] rows. *)

val of_registry : unit -> string
(** The global registry's current snapshot as CSV. *)
