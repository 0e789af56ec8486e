(** Graph rewrite passes.

    Each pass maps a graph to a rewritten graph plus its rewrite count,
    with legality checked per candidate before any mutation: a rewrite
    fires only when the values it removes or internalizes have no other
    reader and are not graph outputs. {!run} chains passes, validates
    the graph after every pass, and renames the result ["<name>+fused"]
    only when at least one rewrite fired (mirroring
    [Mikpoly_nn.Fusion]). *)

type pass = { pass_name : string; apply : Dag.t -> Dag.t * int }

type stats = { pass_name : string; rewrites : int }

val merge_siblings : unit -> pass
(** Polymerization-friendly neighbor merging: sibling GEMMs with
    identical operand lists and repeat, each read exactly once by one
    shared consumer, collapse into a single batched GEMM whose [repeat]
    is the group size (per-head attention becomes one grouped launch
    that packs device waves a lone head would leave idle). Runs to a
    fixpoint; the kept node is the group's earliest, so ids survive for
    joining reports. *)

val fuse_epilogues : unit -> pass
(** Port of [Mikpoly_nn.Fusion] to the DAG: an elementwise node whose
    first operand is a GEMM/conv value read by nobody else folds into
    that producer's write-back. Legality is symbolic — the epilogue's
    DRAM cost is [traffic x inputs x producer-output bytes], so the
    ratio [traffic x inputs] must be at most 4.0, matching
    [Fusion.fuse_epilogues]. One epilogue per producer; in a
    back-to-back chain only the first folds, and extra epilogue
    operands must be scheduled before the producer (a residual whose
    second operand is a later node stays unfused). *)

val fuse_gemm_chains : unit -> pass
(** GEMM-chain fusion: a GEMM/conv operand produced by another
    GEMM/conv and read nowhere else stays resident on-chip ([chain]
    set), skipping its DRAM round trip. Marking only — the executor
    prices the saved traffic. *)

val run : Dag.t -> Dag.t * stats list
(** Apply [merge_siblings; fuse_epilogues; fuse_gemm_chains] in order —
    merging first so per-head values disappear before epilogue legality
    is judged, chains last so they see the post-fusion data edges. Each pass
    runs inside a [graph.pass.<name>] tracer span and the graph is
    re-validated after it (raising [Invalid_argument] on a pass bug).
    Stats are returned in pass order. *)
