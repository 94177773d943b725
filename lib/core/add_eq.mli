(** Bilateral Add Equilibrium (BAE): no two agents both improve by jointly
    creating their missing edge.  Exact.  The closed-form gain
    [Σ_x max 0 (d(u,x) − (1 + d(v,x)))] on one APSP prunes the non-edges
    that cannot pay for an edge ({!Metric_sig.METRIC.gain_improves}); each
    survivor is decided by adding the edge, pricing both endpoints and
    removing it again.  Under the linear cost the prune is exact, so a full
    check stays [O(n³)] even on large constructions.

    Functorized over the cost kernel; the top-level entry points are the
    [Cost.Metric] specialisation, and the generalized game applies
    [Make] to [Cost_gen.Metric]. *)

module Make (M : Metric_sig.METRIC) : sig
  val check : alpha:float -> Graph.t -> Verdict.t
  val check_oracle : alpha:float -> Graph.t -> Dist_oracle.t -> Verdict.t
  val is_stable : alpha:float -> Graph.t -> bool
end

val check : alpha:float -> Graph.t -> Verdict.t
(** [check ~alpha g] never answers [Exhausted]. *)

val check_oracle : alpha:float -> Graph.t -> Dist_oracle.t -> Verdict.t
(** [check_oracle ~alpha g o] is [check] reading its distance rows from
    [o], which must be an oracle for [g].  Candidate additions are priced
    by flipping them on [o] and back, so [o] comes back representing [g]
    (its row cache may differ).  Bit-identical to [check]; the point is
    sharing a warmed row cache. *)

val is_stable : alpha:float -> Graph.t -> bool
