(* Dropping an edge saves the remover α and can only increase distances, so
   the move improves agent u iff the graph stays connected from u's view
   and the distance increase is strictly below α.  We evaluate both
   endpoints of every edge with a direct cost comparison.

   Graphs that fit the bit-parallel kernel (n <= Bitgraph.max_n) are
   checked on a single mutable bitgraph — remove, price both endpoints
   on the word-BFS kernel, re-add — with an incremental {!Dist_oracle}
   above that size.  Both paths compare the same exact costs in the same
   edge order, so they return identical verdicts and witnesses.

   The algorithm only ever prices agents and compares the results, so it
   is written once against a cost kernel (Metric_sig.METRIC); the
   top-level entry points are the [Cost.Metric] specialisation, and the
   generalized game applies [Make] to [Cost_gen.Metric]. *)

module Make (M : Metric_sig.METRIC) = struct
  (* The search over one mutable distance structure: [price] reads an
     agent's cost on its current graph, [add] / [remove] flip one edge.
     Each removal is undone before the next baseline is read, so the
     memoised intact-graph costs stay exact. *)
  let search g ~price ~add ~remove =
    let exception Found of Move.t in
    let size = Graph.n g in
    let before = Array.make (max size 1) None in
    let before_cost u =
      match before.(u) with
      | Some c -> c
      | None ->
          let c = price u in
          before.(u) <- Some c;
          c
    in
    try
      List.iter
        (fun (u, v) ->
          let bu = before_cost u and bv = before_cost v in
          remove u v;
          let u_gains = M.strictly_less (price u) bu in
          let v_gains = (not u_gains) && M.strictly_less (price v) bv in
          add u v;
          if u_gains then raise (Found (Move.Remove { agent = u; target = v }));
          if v_gains then raise (Found (Move.Remove { agent = v; target = u })))
        (Graph.edges g);
      Verdict.Stable
    with Found m -> Verdict.Unstable m

  let check_bits ~alpha g =
    let bg = Bitgraph.of_graph g in
    search g ~price:(M.of_bits ~alpha bg) ~add:(Bitgraph.add_edge bg)
      ~remove:(Bitgraph.remove_edge bg)

  (* Over a shared distance oracle the removal keeps every row whose
     distances it provably cannot change (tightness + alternate-parent
     tests), so for most edges of a large graph neither endpoint pays a
     BFS.  [o] must represent [g]; callers such as {!Pairwise} pass one
     oracle through several checkers to share the row cache. *)
  let check_oracle ~alpha g o =
    search g ~price:(M.of_oracle ~alpha o) ~add:(Dist_oracle.add_edge o)
      ~remove:(Dist_oracle.remove_edge o)

  let check ~alpha g =
    if Graph.n g <= Bitgraph.max_n then check_bits ~alpha g
    else check_oracle ~alpha g (Dist_oracle.create g)

  let is_stable ~alpha g = Verdict.is_stable (check ~alpha g)
end

include Make (Cost.Metric)
