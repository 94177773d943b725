(** Remove Equilibrium (RE): no agent improves by dropping one incident
    edge.  By Proposition A.2 this coincides with the Pure Nash Equilibrium
    of the bilateral game.  Exact, [O(m)] candidate moves.

    The checker is a functor over the cost kernel ({!Metric_sig.METRIC});
    the top-level entry points are its [Cost.Metric] specialisation and
    are bit-identical to the pre-functor checker. *)

module Make (M : Metric_sig.METRIC) : sig
  val check : alpha:float -> Graph.t -> Verdict.t
  val check_oracle : alpha:float -> Graph.t -> Dist_oracle.t -> Verdict.t
  val is_stable : alpha:float -> Graph.t -> bool
end

val check : alpha:float -> Graph.t -> Verdict.t
(** [check ~alpha g] never answers [Exhausted]. *)

val check_oracle : alpha:float -> Graph.t -> Dist_oracle.t -> Verdict.t
(** [check_oracle ~alpha g o] is [check] evaluated over [o], which must
    be an oracle for [g]; [o] comes back representing [g].  Lets
    callers (e.g. {!Pairwise}) share one oracle's row cache across
    several checkers.  Bit-identical to [check]. *)

val is_stable : alpha:float -> Graph.t -> bool
