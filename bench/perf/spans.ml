(* Host-time spans the benchmark records around its own calls into each
   layer. The program's tracer stays off in every run: these spans are
   stamped here, kept in memory, and written out when the run ends. *)

module Span = Mikpoly_telemetry.Span
module Sch = Mikpoly_serve.Scheduler

let base = Monotonic_clock.now ()

(* Seconds since start-up on the monotonic clock. Nanosecond resolution
   matters: a GPU search takes about 10 us. *)
let now () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) base) *. 1e-9

let track = "host"

let on = ref false

let next_id = ref 0

let parent = ref Span.no_parent

(* Scopes and leaves are kept apart so the Chrome trace can hold every
   scope but only a prefix of the (hundreds of thousands of) leaves. *)
let scopes : Span.t list ref = ref []

let leaves : Span.t list ref = ref []

let fresh () =
  incr next_id;
  !next_id

(* [scope name f] records a span enclosing the spans recorded inside [f]. *)
let scope name f =
  if not !on then f ()
  else begin
    let id = fresh () and outer = !parent and start = now () in
    parent := id;
    let r = f () in
    parent := outer;
    scopes :=
      Span.make ~id ~parent:outer ~track ~name ~start ~finish:(now ()) ()
      :: !scopes;
    r
  end

(* [leaf name f] records a span around one call into a layer. Leaves
   never nest, so they leave the parent unchanged. *)
let leaf name f =
  if not !on then f ()
  else begin
    let start = now () in
    let r = f () in
    leaves :=
      Span.make ~id:(fresh ()) ~parent:!parent ~track ~name ~start
        ~finish:(now ()) ()
      :: !leaves;
    r
  end

(* The engine with every closure the event loops call wrapped in a leaf.
   [precompile_batch] compiles too, so it is charged to [engine.compile]. *)
let engine (e : Sch.engine) =
  {
    e with
    Sch.step_seconds =
      (fun ~tokens ~kv_tokens ->
        leaf "engine.step" (fun () -> e.Sch.step_seconds ~tokens ~kv_tokens));
    step_shapes =
      (fun ~tokens -> leaf "engine.shapes" (fun () -> e.Sch.step_shapes ~tokens));
    compile_seconds =
      (fun shape -> leaf "engine.compile" (fun () -> e.Sch.compile_seconds shape));
    precompile_batch =
      (fun ~jobs shapes ->
        leaf "engine.compile" (fun () -> e.Sch.precompile_batch ~jobs shapes));
  }

(* Scopes and leaves recorded since the last call, each in the order
   they finished. *)
let take () =
  let s = (List.rev !scopes, List.rev !leaves) in
  scopes := [];
  leaves := [];
  s
