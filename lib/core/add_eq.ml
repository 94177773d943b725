(* For connected pairs the distance gain of adding uv is exactly
   Σ_x max 0 (d(u,x) − (1 + d(v,x))): a shortest path after the addition
   either avoids the new edge or leaves u through it.  Whether such a gain
   can beat the price of the new edge is the metric's call
   ([M.gain_improves]; strictly-above-α for the BNCG cost), and the checker
   uses it only to prune.  Every surviving non-edge — and every
   cross-component pair, whose gain the formula does not measure — is
   decided exactly: add the edge, price both endpoints, remove it, as
   {!Remove_eq} does for deletions.  For the linear cost the prune and the
   exact comparison agree, so the exact pricing runs once per [Unstable]
   verdict; a permissive metric (the generalized cost) prices every
   non-edge. *)

module Make (M : Metric_sig.METRIC) = struct
  let gain_within_component dist_u dist_v =
    let gain = ref 0 in
    Array.iteri
      (fun x du ->
        let dv = dist_v.(x) in
        if du >= 0 && dv >= 0 && du > dv + 1 then gain := !gain + (du - (dv + 1)))
      dist_u;
    !gain

  (* The search over one mutable distance structure: [row] reads a BFS row
     of the intact graph, [price] an agent's current cost, and [add] /
     [remove] flip one edge.  Every flip is undone before the next row or
     baseline read, so both stay exact for [g]. *)
  let search ~alpha g ~row ~price ~add ~remove =
    let size = Graph.n g in
    let exception Found of Move.t in
    let before = Array.make (max size 1) None in
    let before_cost u =
      match before.(u) with
      | Some c -> c
      | None ->
          let c = price u in
          before.(u) <- Some c;
          c
    in
    let improves_both u v =
      let bu = before_cost u and bv = before_cost v in
      add u v;
      let ok = M.strictly_less (price u) bu && M.strictly_less (price v) bv in
      remove u v;
      ok
    in
    (* [gain_improves] is monotone, so a metric that accepts a zero gain
       never prunes: skip the gains and their BFS rows altogether. *)
    let prunes = not (M.gain_improves ~alpha 0) in
    try
      for u = 0 to size - 1 do
        for v = u + 1 to size - 1 do
          if not (Graph.has_edge g u v) then begin
            let survives =
              (not prunes)
              ||
              let du = row u in
              du.(v) < 0
              ||
              let dv = row v in
              M.gain_improves ~alpha (gain_within_component du dv)
              && M.gain_improves ~alpha (gain_within_component dv du)
            in
            if survives && improves_both u v then
              raise (Found (Move.Bilateral_add { u; v }))
          end
        done
      done;
      Verdict.Stable
    with Found m -> Verdict.Unstable m

  (* {!Pairwise} passes the oracle its RE pass already warmed, so every row
     RE left valid is free for this pass. *)
  let check_oracle ~alpha g o =
    search ~alpha g ~row:(Dist_oracle.row o) ~price:(M.of_oracle ~alpha o)
      ~add:(Dist_oracle.add_edge o) ~remove:(Dist_oracle.remove_edge o)

  let check_bits ~alpha g =
    let bg = Bitgraph.of_graph g in
    let rows = Array.init (Graph.n g) (fun u -> lazy (Bitgraph.bfs bg u)) in
    search ~alpha g
      ~row:(fun u -> Lazy.force rows.(u))
      ~price:(M.of_bits ~alpha bg) ~add:(Bitgraph.add_edge bg)
      ~remove:(Bitgraph.remove_edge bg)

  let check ~alpha g =
    if Graph.n g <= Bitgraph.max_n then check_bits ~alpha g
    else check_oracle ~alpha g (Dist_oracle.create g)

  let is_stable ~alpha g = Verdict.is_stable (check ~alpha g)
end

include Make (Cost.Metric)
