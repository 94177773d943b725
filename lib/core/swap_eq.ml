(* The swap G − uv + uw must strictly improve both u (distance only; her
   degree is unchanged) and w (distance gain strictly above α, since she
   pays for the new edge).  Three sound prunes keep large instances fast:

   - w's swap gain is at most (dist(u,w) − 1)(n − 1): every shortened path
     enters through the new edge uw;
   - w's swap gain is at most her gain from *adding* uw without the
     removal, which has the closed form Σ_x max 0 (d(w,x) − 1 − d(u,x))
     on the original graph (an O(n) scan over cached BFS rows);
   - that add-gain is n-Lipschitz in u: per target x,
     |max 0 (d(w,x)−1−d(u,x)) − max 0 (d(w,x)−1−d(u',x))| ≤ d(u,u'), so
     on connected graphs the last scanned (u', gain) pair per w bounds
     gain(u,w) by gain(u',w) + n·d(u,u') and most scans never run.  The
     skip fires only when the scan itself would conclude ineligible, so
     verdicts and witnesses are unchanged.

   Only candidates surviving the prunes pay for exact evaluation.  When w
   is unreachable from u the prunes are skipped (the swap may repair
   connectivity) and the exact cost comparison decides.

   For n <= Bitgraph.max_n the BFS rows and the surviving candidates'
   exact evaluations run on one mutable bitgraph (apply the swap, price
   both agents on the word-BFS kernel, undo).  Above that size a
   {!Dist_oracle} holds the rows and evaluates each candidate
   incrementally — remove uv, add uw, two cached prices, undo — instead
   of rebuilding the graph and re-running BFS.  Baseline costs and BFS
   rows are always taken while the mutable structure is in its original
   state.

   All three prunes are threshold tests "can this distance gain pay for
   one edge", which is the metric's [gain_improves] judgment — its
   required monotonicity in the gain is exactly what makes bounding the
   gain a sound prune.  A metric that answers [true] always (the
   generalized cost) disables them, and every swap is priced exactly. *)

module Make (M : Metric_sig.METRIC) = struct
  (* The search over one mutable distance structure: [row] reads a BFS row
     of the intact graph, [price] an agent's cost on the current graph,
     [add] / [remove] flip one edge. *)
  let search ~alpha g ~row ~price ~add ~remove =
    let size = Graph.n g in
    let exception Found of Move.t in
    let before = Array.init size (fun u -> lazy (price u)) in
    let add_gain_bound du dw =
      let gain = ref 0 in
      for x = 0 to size - 1 do
        if du.(x) >= 0 && dw.(x) > du.(x) + 1 then gain := !gain + (dw.(x) - (du.(x) + 1))
      done;
      !gain
    in
    (* Lipschitz cache: last scanned u and its add-gain, per w.  Only
       consulted on connected graphs — unreachable pairs break the per-x
       inequality. *)
    let connected = size <= 1 || Paths.is_connected g in
    let last_u = Array.make (max size 1) (-1) in
    let last_gain = Array.make (max size 1) 0 in
    (* Exact evaluation of the swap u: −v +w, both agents.  The baselines
       are forced first so the mutable structure is unmutated when they
       compute. *)
    let swap_improves_both u v w =
      let bu = Lazy.force before.(u) and bw = Lazy.force before.(w) in
      remove u v;
      add u w;
      let ok = M.strictly_less (price u) bu && M.strictly_less (price w) bw in
      remove u w;
      add u v;
      ok
    in
    (* [gain_improves] is monotone, so a metric that accepts a zero gain
       never prunes: skip the bounds and their BFS rows altogether. *)
    let prunes = not (M.gain_improves ~alpha 0) in
    try
      for u = 0 to size - 1 do
        if Graph.degree g u > 0 then begin
          let du = if prunes then row u else [||] in
          (* Swap partners that could conceivably gain more than α —
             independent of which edge u drops, so computed once per u. *)
          let partners = ref [] in
          for w = size - 1 downto 0 do
            if w <> u && not (Graph.has_edge g u w) then begin
              let eligible =
                if (not prunes) || du.(w) < 0 then true
                else if not (M.gain_improves ~alpha ((du.(w) - 1) * (size - 1))) then false
                else if
                  connected
                  && last_u.(w) >= 0
                  && not (M.gain_improves ~alpha (last_gain.(w) + (size * du.(last_u.(w)))))
                then false
                else begin
                  let dw = row w in
                  let gain = add_gain_bound du dw in
                  last_u.(w) <- u;
                  last_gain.(w) <- gain;
                  M.gain_improves ~alpha gain
                end
              in
              if eligible then partners := w :: !partners
            end
          done;
          match !partners with
          | [] -> ()
          | partners ->
              Array.iter
                (fun v ->
                  List.iter
                    (fun w ->
                      if w <> v && swap_improves_both u v w then
                        raise (Found (Move.Bilateral_swap { u; drop = v; add = w })))
                    partners)
                (Graph.neighbors g u)
        end
      done;
      Verdict.Stable
    with Found m -> Verdict.Unstable m

  (* Oracle rows are borrowed live buffers, so the oracle path re-asks the
     oracle on every use (a cached row costs an array read) instead of
     memoising the pointer across evaluations that flip edges. *)
  let check ~alpha g =
    if Graph.n g <= Bitgraph.max_n then
      let bg = Bitgraph.of_graph g in
      let rows = Array.init (Graph.n g) (fun u -> lazy (Bitgraph.bfs bg u)) in
      search ~alpha g
        ~row:(fun u -> Lazy.force rows.(u))
        ~price:(M.of_bits ~alpha bg) ~add:(Bitgraph.add_edge bg)
        ~remove:(Bitgraph.remove_edge bg)
    else
      let o = Dist_oracle.create g in
      search ~alpha g ~row:(Dist_oracle.row o) ~price:(M.of_oracle ~alpha o)
        ~add:(Dist_oracle.add_edge o) ~remove:(Dist_oracle.remove_edge o)

  let is_stable ~alpha g = Verdict.is_stable (check ~alpha g)
end

include Make (Cost.Metric)
