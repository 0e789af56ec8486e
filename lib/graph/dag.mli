(** Typed operator DAG over named tensor values.

    Unlike the flat [Mikpoly_nn.Op.t list], a graph here has explicit
    data edges: every node produces exactly one tensor value (the value
    shares the node's id), and [inputs] names the producer nodes whose
    values it reads. Dynamic dimensions stay symbolic ({!Symdim.dim})
    until {!Infer.bind} evaluates them against a request's environment,
    so one graph per model family serves every shape.

    Graphs are immutable; the rewrite passes ({!Rewrite}) produce new
    graphs with node ids preserved, so bind-time tables and reports can
    be joined across rewrites. Node ids are strictly increasing in
    [nodes], which is therefore always a topological order. *)

type fused_epilogue = {
  fe_label : string;  (** label of the elementwise node folded in *)
  fe_ratio : float;
      (** removed DRAM traffic as a multiple of the producer's output
          bytes (the epilogue's traffic factor times its input count) *)
  fe_inputs : int list;
      (** extra values the fused write-back reads (e.g. the residual
          stream) — they stay live until the producer executes *)
}

type kind =
  | Input of Symdim.dim list  (** request tensor; dims may be symbolic *)
  | Weight of int list  (** resident parameter; always concrete *)
  | View of Symdim.dim list
      (** zero-cost reinterpretation of its input (slice, transpose,
          flatten); owns no buffer and no device time *)
  | Gemm of { repeat : int }
      (** [a @ b] with [a : (m, k)] and [b : (k, n)]; [repeat] models a
          batched GEMM of identical instances (per-head attention) *)
  | Conv of { out_channels : int; kernel : int; stride : int; pad : int }
      (** square convolution over an NCHW input; lowered to its im2col
          GEMM shape at bind time via {!Mikpoly_tensor.Conv_spec} *)
  | Pool of { kernel : int; stride : int; pad : int; traffic : float }
      (** spatial pooling; bandwidth-bound, [traffic] x input bytes *)
  | Global_pool of { target : int; traffic : float }
      (** adaptive pooling to a [target x target] map *)
  | Elemwise of { ew : string; traffic : float }
      (** elementwise over same-shape inputs (ReLU, softmax, residual
          add + norm); DRAM cost is [traffic] x the summed input bytes *)
  | Scan of { traffic : float }
      (** state scan over a cache operand (decode-time KV attention):
          output keeps the first input's shape, DRAM cost is [traffic]
          x the remaining inputs' bytes *)
  | Concat of { axis : int }  (** concatenation along [axis] *)
  | Comm of { gbps : float; traffic : float }
      (** collective over the input value at [gbps] GB/s; [traffic]
          scales the wire bytes (ring all-reduce moves ~2x) *)

type node = {
  id : int;
  label : string;  (** unique within the graph *)
  kind : kind;
  inputs : int list;  (** producer node ids, in operand order *)
  fused : fused_epilogue list;  (** set by {!Rewrite.fuse_epilogues} *)
  chain : int option;
      (** set by {!Rewrite.fuse_gemm_chains}: an input value that stays
          resident on-chip from its producer, skipping a DRAM round
          trip *)
}

type t = {
  name : string;
  nodes : node list;  (** strictly increasing ids = topological order *)
  outputs : int list;  (** values that must materialize *)
}

(** {1 Builder} *)

type builder

type value
(** Handle to a node's output, only valid with the builder that made
    it. *)

val value_id : value -> int

val builder : name:string -> builder

val input : builder -> label:string -> dims:Symdim.dim list -> value

val weight : builder -> label:string -> dims:int list -> value

val view : builder -> label:string -> dims:Symdim.dim list -> value -> value

val gemm : builder -> ?repeat:int -> label:string -> value -> value -> value
(** [gemm b ~label a bv] multiplies [a : (m, k)] by [bv : (k, n)]. *)

val conv :
  builder -> ?stride:int -> ?pad:int -> label:string -> out_channels:int ->
  kernel:int -> value -> value
(** [pad] defaults to [kernel / 2] (same-ish padding), matching
    {!Mikpoly_tensor.Conv_spec.make}. *)

val pool :
  builder -> ?kernel:int -> ?stride:int -> ?pad:int -> ?traffic:float ->
  label:string -> value -> value
(** Defaults: 3x3 window, stride 2, pad 0, traffic 2 (read + write). *)

val global_pool :
  builder -> ?traffic:float -> label:string -> target:int -> value -> value

val elemwise :
  builder -> ?traffic:float -> label:string -> ew:string -> value list ->
  value
(** Default [traffic] 2 (read + write of one stream). *)

val scan : builder -> ?traffic:float -> label:string -> value -> value -> value
(** [scan b ~label state cache]: state first, cache operand second. *)

val concat : builder -> label:string -> axis:int -> value list -> value

val comm :
  builder -> ?traffic:float -> label:string -> gbps:float -> value -> value

val finish : ?outputs:value list -> builder -> t
(** Freeze the graph. Without [outputs], every non-source value with no
    consumer becomes an output. Raises [Invalid_argument] if the result
    fails {!validate} (e.g. no outputs at all). *)

(** {1 Accessors} *)

val find : t -> int -> node
(** Raises [Invalid_argument] on an unknown id. *)

val root : t -> int -> int
(** Chase {!View} nodes to the value that owns the storage. *)

val consumers : t -> (int, int list) Hashtbl.t
(** Producer id -> consumer node ids, one entry per read (duplicate
    reads appear twice); reads through [fused] epilogues count. *)

val is_source : node -> bool
(** [Input] or [Weight]. *)

val device_nodes : t -> node list
(** Nodes that execute on the device, in topological order. *)

val op_count : t -> int
(** [List.length (device_nodes t)]. *)

val kind_name : kind -> string

val rename : t -> string -> t

val validate : t -> (unit, string) result
(** Structural invariants: increasing unique ids, inputs reference
    earlier nodes, unique labels, per-kind arities, positive
    parameters, non-empty outputs. *)
