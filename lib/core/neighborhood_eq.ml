let default_budget = 500_000

exception Found of Move.t
exception Out_of_budget = Subsets.Out_of_budget

(* The metric surfaces in three places: pricing candidate moves (flip /
   read / unflip on the oracle), the consent prune (a partner whose best
   conceivable distance gain cannot pay for one edge never consents),
   and the net-edge cap |A| − |R| (an agent's total slack bounds how
   many priced edges she can ever profitably add). *)
module Make (M : Metric_sig.METRIC) = struct
  (* [oracle] must represent [g] and is returned pristine: every candidate
     move is priced by flipping its edges on the oracle, reading the cached
     totals, and flipping back.  [before_cost] memoises agent costs on the
     intact graph; it must only be called while the oracle is pristine,
     which [evaluate] guarantees by forcing baselines before it flips. *)
  let check_agent_inner ~alpha ~budget_left ~oracle ~before_cost g u =
    let size = Graph.n g in
    let connected = Paths.is_connected g in
    let is_tree = Tree.is_tree g in
    let dist_u = Dist_oracle.total_dist oracle u in
    (* Partners that could ever consent to one extra edge in a move centred
       elsewhere (paper's consent bound); only valid with full
       reachability. *)
    let candidates =
      let all = ref [] in
      for v = size - 1 downto 0 do
        if v <> u && not (Graph.has_edge g u v) then
          if connected then begin
            if M.gain_improves ~alpha (Delta.consent_upper_bound g v) then all := v :: !all
          end
          else all := v :: !all
      done;
      !all
    in
    let neighbors = Array.to_list (Graph.neighbors g u) in
    (* Branch labels for the tree connectivity prune: branch.(x) is the
       neighbour of u whose subtree contains x. *)
    let branch =
      if not is_tree then [||]
      else begin
        let label = Array.make size (-1) in
        List.iter
          (fun c ->
            let d = Paths.bfs (Graph.remove_edge g u c) c in
            Array.iteri (fun x dx -> if dx >= 0 then label.(x) <- c) d)
          neighbors;
        label
      end
    in
    (* Cap on |A| − |R|: u pays k·α extra for k net edges but can gain at
       most dist(u) − (n − 1). *)
    let net_cap =
      if not connected then size
      else M.net_edge_cap ~alpha ~size ~dist_sum:dist_u.Paths.sum
    in
    let budget = ref budget_left in
    let evaluate drop add =
      if drop = [] && add = [] then ()
      else begin
        decr budget;
        if !budget < 0 then raise Out_of_budget;
        let bu = before_cost u in
        let badds = List.map (fun a -> (a, before_cost a)) add in
        List.iter (fun v -> Dist_oracle.remove_edge oracle u v) drop;
        List.iter (fun a -> Dist_oracle.add_edge oracle u a) add;
        let ok =
          M.strictly_less (M.of_oracle ~alpha oracle u) bu
          && List.for_all
               (fun (a, ba) -> M.strictly_less (M.of_oracle ~alpha oracle a) ba)
               badds
        in
        List.iter (fun a -> Dist_oracle.remove_edge oracle u a) add;
        List.iter (fun v -> Dist_oracle.add_edge oracle u v) drop;
        if ok then raise (Found (Move.Neighborhood { agent = u; drop; add }))
      end
    in
    (* Enumerate A first (usually heavily pruned), then R. *)
    Subsets.iter_subsets candidates ~max_size:(List.length neighbors + net_cap) ~budget
      (fun add ->
        let removable =
          if not is_tree then neighbors
          else
            (* Only branches that receive a new edge can lose their edge. *)
            List.filter (fun c -> List.exists (fun a -> branch.(a) = c) add) neighbors
        in
        (* Pure-removal moves need only single removals: Corbo and Parkes
           show that if dropping a set of incident edges improves an agent,
           dropping one of them already does (the argument behind
           Proposition A.2), so for A = ∅ the size-1 subsets are exhaustive. *)
        let max_drop = if add = [] then 1 else List.length removable in
        Subsets.iter_subsets removable ~max_size:max_drop ~budget (fun drop ->
            if List.length add <= List.length drop + net_cap then evaluate drop add));
    !budget

  (* One oracle and one baseline memo per check: moves are always undone,
     so the oracle is pristine between evaluations and the memoised costs
     stay valid across agents. *)
  let make_eval_ctx g =
    let oracle = Dist_oracle.create g in
    let before = Array.make (max (Graph.n g) 1) None in
    let before_cost ~alpha u =
      match before.(u) with
      | Some c -> c
      | None ->
          let c = M.of_oracle ~alpha oracle u in
          before.(u) <- Some c;
          c
    in
    (oracle, before_cost)

  let check_agent ?(budget = default_budget) ~alpha g u =
    let oracle, before_cost = make_eval_ctx g in
    match
      check_agent_inner ~alpha ~budget_left:budget ~oracle
        ~before_cost:(before_cost ~alpha) g u
    with
    | _ -> Verdict.Stable
    | exception Found m -> Verdict.Unstable m
    | exception Out_of_budget ->
        Verdict.Exhausted (Printf.sprintf "BNE move space around agent %d exceeds budget" u)

  let check ?(budget = default_budget) ~alpha g =
    (* The budget is split across agents (with a floor) so the total work is
       bounded by roughly [budget] even when several agents exhaust their
       share; an instability found at a later agent still yields an exact
       [Unstable] answer. *)
    let size = Graph.n g in
    let per_agent = if size = 0 then budget else max 2_000 (budget / size) in
    let oracle, before_cost = make_eval_ctx g in
    let before_cost = before_cost ~alpha in
    let exhausted = ref None in
    let rec go u =
      if u >= size then
        match !exhausted with None -> Verdict.Stable | Some why -> Verdict.Exhausted why
      else
        match check_agent_inner ~alpha ~budget_left:per_agent ~oracle ~before_cost g u with
        | _left -> go (u + 1)
        | exception Found m -> Verdict.Unstable m
        | exception Out_of_budget ->
            if !exhausted = None then
              exhausted :=
                Some (Printf.sprintf "BNE move space around agent %d exceeds budget" u);
            go (u + 1)
    in
    go 0

  let is_stable_exn ?budget ~alpha g =
    Verdict.exactly_stable_exn "Neighborhood_eq" (check ?budget ~alpha g)
end

include Make (Cost.Metric)
