(** Pure-OCaml gradient-boosted stumps — the learned ranking model.

    Trained offline on {!Features} vectors with log-residual targets
    (log observed∕predicted cycles of one region), applied as a
    multiplicative correction to the raw Eq.-2 cost. Fitting is greedy
    least-squares with deterministic tie-breaks (lowest feature index,
    then lowest threshold), so the same observations always produce the
    same model, bit for bit. *)

type stump = {
  s_feature : int;
  s_threshold : float;
  s_left : float;
  s_right : float;
}

type t = {
  base : float;
  stumps : stump list;
}

val predict : t -> float array -> float

val fit :
  ?base:t -> ?rounds:int -> ?learning_rate:float ->
  features:float array array -> targets:float array -> unit -> t
(** Fit [rounds] (default 64) stumps with shrinkage [learning_rate]
    (default 0.25). With [base], boosting {e continues} from the given
    model's predictions — the GPU→NPU warm start: the base's stumps are
    kept and the new rounds fit the base's residuals on the new data.
    Stops early when every feature is constant on the examples.
    Raises [Invalid_argument] on empty input or negative [rounds]. *)
