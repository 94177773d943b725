(** The generalized bilateral network creation game (arXiv 2510.00239)
    as a {!Game_sig.GAME} instance.

    The state is a plain graph, as in {!Bilateral}; a concept pairs a
    bilateral base concept with a {!Dist_cost} distance-cost function,
    and every deviation is priced through {!Cost_gen}.  Concept names
    are ["BASE@F"] (e.g. ["BNE@d2"], ["RE@cut2"]); a bare bilateral
    name parses with the linear function, recovering the classic
    game's improvement order.

    [RE], [BAE], [PS], [BSwE] and [BGE] run the bilateral checker
    functors ({!Remove_eq.Make}, {!Add_eq.Make}, {!Pairwise.Make},
    {!Swap_eq.Make}, {!Greedy_eq.Make}) on {!Cost_gen.Metric}; they are
    exact and polynomial, and under [f = Linear] they return the
    bilateral verdicts move for move.  [BNE], [k-BSE] and [BSE] keep
    their own budgeted searches, which use only the accelerations that
    hold for every cost function (incremental {!Dist_oracle} pricing and
    a consent lower bound for BNE partners), and may answer
    [Exhausted].  [reference] is {!Oracle.check_generalized}. *)

type concept = { f : Dist_cost.t; base : Concept.t }

include
  Game_sig.GAME with type state = Graph.t and type concept := concept
