(** Numerical self-verification of compiled programs.

    A downstream user of a tensor compiler needs a way to convince
    themselves that an exotic polymerization is still computing the right
    answer. This module executes a compiled program on random inputs
    through the functional executor and compares against the reference
    operator. MikPoly's correctness claim — any shape, any pattern, zero
    invalid runs — is checkable on demand. *)

type failure = {
  shape : int * int * int;
  max_abs_diff : float;
  program : string;  (** rendering of the offending program *)
}

val check_gemm :
  ?tolerance:float -> ?seed:int -> Compiler.t -> m:int -> n:int -> k:int ->
  (unit, failure) result
(** Compile the shape, execute the program on random tensors, compare with
    the reference GEMM (default tolerance 1e-3). *)

val check_random_shapes :
  ?tolerance:float -> ?seed:int -> ?max_dim:int -> Compiler.t -> count:int ->
  (int, failure) result
(** Verify [count] random shapes (dimensions log-uniform in
    [\[1, max_dim\]], default 300); returns the number checked or the
    first failure. *)

type prune_failure = {
  pf_shape : int * int * int;
  pf_pruned_key : string;  (** pruned arm's program rendering *)
  pf_unpruned_key : string;
  pf_pruned_cost : float;
  pf_unpruned_cost : float;
}

val check_prune :
  ?config:Config.t -> Compiler.t -> m:int -> n:int -> k:int ->
  (int, prune_failure) result
(** Prune-soundness oracle: run the online search twice on the
    compiler's kernel set — {!Config.analytic_prune} on and off — and
    demand a structurally identical program, identical rendering and
    bit-equal [predicted_cost]. [config] overrides the compiler's
    configuration as the base (the prune flag is still forced per arm).
    Returns the pruned arm's [pruned_analytic] tally on success. *)

val check_prune_random :
  ?config:Config.t -> ?seed:int -> ?max_dim:int -> Compiler.t -> count:int ->
  (int, prune_failure) result
(** {!check_prune} over [count] random shapes (dimensions log-uniform in
    [\[1, max_dim\]], default 4096); returns the summed
    [pruned_analytic] tally or the first divergence. *)
