(** Definition-literal reference checkers for differential testing.

    Every checker here is a direct transcription of the deviation
    definitions from Section 1.1 of the paper — persistent {!Graph}
    operations and a metric's scratch-BFS pricing
    ({!Metric_sig.METRIC.of_graph}) only, no Bitgraph, no memoisation,
    no pruning.  They are intentionally slow and intentionally boring:
    the fuzz harness ({!Fuzz}) compares their verdicts against the
    optimised checkers behind {!Concept.check} on thousands of random
    instances, so any cleverness that sneaks in here would defeat the
    purpose. *)

(** The reference oracle for the bilateral deviation vocabulary under
    any cost kernel.  It reads the metric only through [M.of_graph] and
    [M.strictly_less] — never its prune hooks — so it stays
    definition-literal whatever metric it is given. *)
module Make (M : Metric_sig.METRIC) : sig
  val check : ?budget:int -> alpha:float -> Concept.t -> Graph.t -> Verdict.t
  (** See {!check} below; same contract, priced by [M]. *)
end

val check : ?budget:int -> alpha:float -> Concept.t -> Graph.t -> Verdict.t
(** [check ~alpha concept g] is the oracle verdict for [g]: [Stable] or
    [Unstable m] with an improving deviation [m] (valid for
    [Move.apply], and genuinely improving per [Move.is_improving]).
    It is [Make (Cost.Metric)].
    The oracle enumerates exhaustively and never returns [Exhausted];
    [budget] is accepted for signature compatibility and ignored.
    @raise Invalid_argument for coalition concepts ([KBSE _], [BSE])
    when [Graph.n g > 6] — the outcome enumeration is exponential in
    [n (n-1) / 2] and refuses to pretend otherwise. *)

val max_n : Concept.t -> int
(** [max_n concept] is the largest [n] the oracle handles in reasonable
    time: [6] for coalition concepts (hard limit), [9] for [BNE]
    (advisory), unbounded for the single-edge concepts.  Case
    generators use this to cap instance sizes per concept. *)

(** {1 Generalized BNCG oracles}

    The generalized game (arXiv 2510.00239) keeps the bilateral
    deviation vocabulary and changes only how an agent prices
    distances, so its oracle is {!Make} applied to
    {!Cost_gen.Metric} — the same quantifications, priced by
    scratch BFS per evaluation through [Cost_gen.agent_cost]. *)

val check_generalized :
  ?budget:int ->
  f:Dist_cost.t ->
  alpha:float ->
  Concept.t ->
  Graph.t ->
  Verdict.t
(** [check_generalized ~f ~alpha base g] is [Make (Cost_gen.Metric (F))]
    with [F.f = f], read at the bilateral base concept [base].  Never
    returns [Exhausted]; [budget] is ignored.
    @raise Invalid_argument for coalition concepts when [Graph.n g > 6],
    as in {!check}. *)

(** {1 Unilateral NCG oracles}

    Naive counterparts of {!Bncg_game.Unilateral}, returning the same
    result shapes so differential tests can compare [Ok]/[Error]
    outcomes directly (witnesses may differ between implementations). *)

val unilateral_nash : alpha:float -> Strategy.assignment -> (unit, int * int list) result
(** Exhaustive best-response check: every agent, every alternative
    strategy set, graph rebuilt per deviation.
    @raise Invalid_argument if [n > 16]. *)

val unilateral_add_eq : alpha:float -> Strategy.assignment -> (unit, int * int) result
(** Single unilateral edge purchase. *)

val unilateral_remove_eq : alpha:float -> Strategy.assignment -> (unit, int * int) result
(** Single owned-edge deletion. *)

val unilateral_greedy_eq : alpha:float -> Strategy.assignment -> (unit, int * string) result
(** Single owned-edge removal, single addition, or single owned-edge
    swap. *)
