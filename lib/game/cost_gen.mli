(** The generalized BNCG cost model (arXiv 2510.00239) — the
    {!Dist_cost}-parameterized analogue of {!Cost}.

    Agent [u] in graph [g] pays [alpha * deg u] to buy edges plus
    [Dist_cost.eval f (dist (u, v))] for every other vertex [v] the
    function can price; pairs it cannot ([None] — unreachable, or
    beyond a cutoff radius) are counted in {!agent.far} and dominate
    the comparison lexicographically, generalizing the classic cost's
    treatment of disconnection.  With [f = Dist_cost.Linear] every
    function here agrees with its {!Cost} counterpart (same far/
    unreachable count, same money up to float summation order).

    Every pricing entry point reads a full distance row and sums
    [f] over it ({!agent_of_row}).  {!Metric} packages that pricing as
    a {!Metric_sig.METRIC}, so the generalized game runs the same
    single-edge checkers and the same reference oracle as the
    bilateral game, only with a different metric. *)

type agent = { far : int; buy : float; fdist : int }
(** [far] pairs the function cannot price (lexicographically first),
    [buy = alpha * degree], [fdist = sum of priced distances]. *)

val money : agent -> float
(** [buy + fdist], the tie-break channel. *)

val compare_agent : agent -> agent -> int
(** Lexicographic: [far] first, then {!money}. *)

val strictly_less : agent -> agent -> bool
(** [compare_agent a b < 0] — "strictly better off". *)

val agent_of_row :
  f:Dist_cost.t -> alpha:float -> degree:int -> self:int -> int array -> agent
(** Price an agent from a BFS distance row ([-1] = unreachable; entry
    [self] is skipped).  Works on [Paths.bfs] and [Dist_oracle.row]
    buffers alike. *)

val agent_cost : f:Dist_cost.t -> alpha:float -> Graph.t -> int -> agent
(** Scratch-BFS pricing — what the definition-literal oracles use. *)

val agent_cost_oracle : f:Dist_cost.t -> alpha:float -> Dist_oracle.t -> int -> agent
(** The same cost off an incremental oracle's cached row: exact across
    edge flips, so checkers can price moves flip / read / unflip. *)

type social = { far_pairs : int; social_buy : float; social_fdist : int }

val social_money : social -> float
val compare_social : social -> social -> int

val social_cost : f:Dist_cost.t -> alpha:float -> Graph.t -> social
(** Sum of {!agent_cost} over all agents (ordered pairs; every edge is
    bought twice, as in the paper). *)

val opt_cost : f:Dist_cost.t -> alpha:float -> int -> social
(** The social optimum on [n] vertices: the lexicographic better of the
    star and the clique.  This is exact for every {!Dist_cost.t} — see
    the exchange-bound argument in the implementation. *)

val rho : f:Dist_cost.t -> alpha:float -> Graph.t -> float
(** Social cost over {!opt_cost}; [infinity] when any pair is far
    (disconnected, or beyond a cutoff radius); [1.] for [n <= 1]. *)

(** The generalized cost under [F.f] as a checker kernel.  [of_bits]
    reads a {!Bitgraph.bfs} row, [of_oracle] a cached {!Dist_oracle}
    row and [of_graph] a scratch {!Paths.bfs} row, all through
    {!agent_of_row}.  The prune hooks are the permissive ones the
    {!Game_sig} laws allow — [gain_improves] is always [true],
    [net_edge_cap] is [size] and [could_join_coalition] is always
    [true] — because the linear cost's pruning theory does not
    transfer to arbitrary [f]. *)
module Metric (F : sig
  val f : Dist_cost.t
end) : Metric_sig.METRIC with type agent = agent
