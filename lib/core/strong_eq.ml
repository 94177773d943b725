let default_budget = 2_000_000

exception Found of Move.t
exception Out_of_budget = Subsets.Out_of_budget

(* ------------------------------------------------------------------ *)
(* Shared helpers (metric-independent combinatorics)                   *)
(* ------------------------------------------------------------------ *)

(* Enumerate the size-[k] combinations of the elements of [pool]. *)
let iter_combinations pool k f =
  let pool = Array.of_list pool in
  let n = Array.length pool in
  let pick = Array.make (max k 1) 0 in
  let rec go i lo =
    if i = k then f (Array.to_list (Array.sub pick 0 k))
    else
      for v = lo to n - 1 do
        pick.(i) <- pool.(v);
        go (i + 1) (v + 1)
      done
  in
  if k >= 0 && k <= n then go 0 0

let mem x xs = List.exists (Int.equal x) xs

(* Every member must touch the move: passive members reduce to a smaller
   coalition, which is (or will be) checked separately. *)
let all_members_active members ~remove ~add =
  List.for_all
    (fun u ->
      List.exists (fun (a, b) -> a = u || b = u) remove
      || List.exists (fun (a, b) -> a = u || b = u) add)
    members

(* Minimum number of vertices from [allowed] covering all [edges];
   [limit] prunes the branch and bound.  Returns [None] if no cover of
   size <= limit exists. *)
let rec min_cover edges ~allowed ~limit =
  if limit < 0 then None
  else
    match edges with
    | [] -> Some 0
    | (u, v) :: _ ->
        let try_vertex w =
          if mem w allowed then
            let rest = List.filter (fun (a, b) -> a <> w && b <> w) edges in
            Option.map (fun c -> c + 1) (min_cover rest ~allowed ~limit:(limit - 1))
          else None
        in
        let best a b =
          match (a, b) with
          | Some x, Some y -> Some (min x y)
          | (Some _ as s), None | None, (Some _ as s) -> s
          | None, None -> None
        in
        best (try_vertex u) (try_vertex v)

let edges_incident_to g members =
  List.concat_map
    (fun u -> Array.to_list (Graph.neighbors g u) |> List.map (fun v -> (min u v, max u v)))
    members
  |> List.sort_uniq compare

let tree_path_edges rooted pairs =
  List.concat_map
    (fun (u, v) ->
      let path = Tree.path_between rooted u v in
      let rec pairs_of = function
        | a :: (b :: _ as rest) -> (min a b, max a b) :: pairs_of rest
        | [ _ ] | [] -> []
      in
      pairs_of path)
    pairs
  |> List.sort_uniq compare

type falsification = Refuted of Move.t | Not_refuted

(* ------------------------------------------------------------------ *)
(* The metric-parametric search                                        *)
(* ------------------------------------------------------------------ *)

(* The metric decides three things: move evaluation (price members on
   the flipped oracle, compare), coalition eligibility
   ([could_join_coalition]: an agent at her global cost floor never
   strictly improves — Proposition 3.16 for the BNCG cost), and the
   outcome enumeration's cost comparisons. *)
module Make (M : Metric_sig.METRIC) = struct
  let agent_costs ~alpha g = Array.init (Graph.n g) (fun u -> M.of_graph ~alpha g u)

  (* Agents that could conceivably benefit from some coalition move.
     [cost] prices an agent on the intact graph; routing it through the
     shared oracle below warms the very rows the coalition evaluations
     read. *)
  let eligible_members ~alpha ~cost size =
    let out = ref [] in
    for u = size - 1 downto 0 do
      if M.could_join_coalition ~alpha ~size (cost u) then out := u :: !out
    done;
    !out

  (* One oracle and one baseline memo per search: every coalition move is
     priced as flip / read / unflip, so the oracle is pristine between
     evaluations and the memoised intact-graph costs stay valid. *)
  let make_eval_ctx ~alpha g =
    let oracle = Dist_oracle.create g in
    let before = Array.make (max (Graph.n g) 1) None in
    let before_cost u =
      match before.(u) with
      | Some c -> c
      | None ->
          let c = M.of_oracle ~alpha oracle u in
          before.(u) <- Some c;
          c
    in
    (oracle, before_cost)

  (* Exact evaluation of the coalition move (A, R) on the oracle: baselines
     are forced first (while the oracle is pristine), then the move is
     applied, each member priced from the cached totals, and the move
     undone.  Identical values to rebuilding the graph, without the
     per-member BFS. *)
  let move_improves_all_oracle ~alpha oracle before_cost members ~remove ~add =
    let baselines = List.map (fun u -> (u, before_cost u)) members in
    List.iter (fun (a, b) -> Dist_oracle.remove_edge oracle a b) remove;
    List.iter (fun (a, b) -> Dist_oracle.add_edge oracle a b) add;
    let ok =
      List.for_all
        (fun (u, bu) -> M.strictly_less (M.of_oracle ~alpha oracle u) bu)
        baselines
    in
    List.iter (fun (a, b) -> Dist_oracle.remove_edge oracle a b) add;
    List.iter (fun (a, b) -> Dist_oracle.add_edge oracle a b) remove;
    ok

  (* ---------------------------------------------------------------- *)
  (* Outcome enumeration (exact, n <= 7)                               *)
  (* ---------------------------------------------------------------- *)

  let check_outcomes ~k ~alpha g =
    let size = Graph.n g in
    if size > 7 then invalid_arg "Strong_eq.check_outcomes: n > 7";
    let slots = size * (size - 1) / 2 in
    let pairs = Array.make (max slots 1) (0, 0) in
    let idx = ref 0 in
    for u = 0 to size - 1 do
      for v = u + 1 to size - 1 do
        pairs.(!idx) <- (u, v);
        incr idx
      done
    done;
    let base_costs = agent_costs ~alpha g in
    let base_mask = ref 0 in
    for b = 0 to slots - 1 do
      let u, v = pairs.(b) in
      if Graph.has_edge g u v then base_mask := !base_mask lor (1 lsl b)
    done;
    let exception Hit of Move.t in
    try
      for mask = 0 to (1 lsl slots) - 1 do
        if mask <> !base_mask then begin
          let g' = ref (Graph.create size) in
          for b = 0 to slots - 1 do
            if mask land (1 lsl b) <> 0 then begin
              let u, v = pairs.(b) in
              g' := Graph.add_edge !g' u v
            end
          done;
          let g' = !g' in
          let improving =
            List.init size (fun u -> u)
            |> List.filter (fun u ->
                   M.strictly_less (M.of_graph ~alpha g' u) base_costs.(u))
          in
          if improving <> [] then begin
            let added = ref [] and removed = ref [] in
            for b = 0 to slots - 1 do
              let now = mask land (1 lsl b) <> 0
              and was = !base_mask land (1 lsl b) <> 0 in
              if now && not was then added := pairs.(b) :: !added
              else if was && not now then removed := pairs.(b) :: !removed
            done;
            let add_endpoints =
              List.concat_map (fun (u, v) -> [ u; v ]) !added
              |> List.sort_uniq Int.compare
            in
            if List.for_all (fun u -> mem u improving) add_endpoints then begin
              let uncovered =
                List.filter
                  (fun (u, v) -> not (mem u add_endpoints || mem v add_endpoints))
                  !removed
              in
              let limit = k - List.length add_endpoints in
              match min_cover uncovered ~allowed:improving ~limit with
              | None -> ()
              | Some extra ->
                  (* Reconstruct one concrete witness coalition: the added
                     endpoints plus a greedy-but-exact cover. *)
                  let rec build edges acc =
                    match edges with
                    | [] -> acc
                    | (u, v) :: _ ->
                        let try_with w =
                          if mem w improving then
                            let rest =
                              List.filter (fun (a, b) -> a <> w && b <> w) edges
                            in
                            if
                              Option.is_some
                                (min_cover rest ~allowed:improving
                                   ~limit:(limit - List.length acc - 1))
                            then Some (build rest (w :: acc))
                            else None
                          else None
                        in
                        (match try_with u with
                        | Some r -> r
                        | None -> ( match try_with v with Some r -> r | None -> acc))
                  in
                  ignore extra;
                  let cover = build uncovered [] in
                  let members = List.sort_uniq Int.compare (add_endpoints @ cover) in
                  raise
                    (Hit (Move.Coalition { members; remove = !removed; add = !added }))
            end
          end
        end
      done;
      Verdict.Stable
    with Hit m -> Verdict.Unstable m

  (* ---------------------------------------------------------------- *)
  (* Tree-exact enumeration                                            *)
  (* ---------------------------------------------------------------- *)

  let check_tree ?(budget = default_budget) ~k ~alpha g =
    if not (Tree.is_tree g) then invalid_arg "Strong_eq.check_tree: not a tree";
    let size = Graph.n g in
    let rooted = if size > 0 then Some (Tree.root_at g 0) else None in
    let budget = ref budget in
    let exhausted = ref false in
    let oracle, before_cost = make_eval_ctx ~alpha g in
    let try_coalition members =
      match rooted with
      | None -> ()
      | Some rooted ->
          let non_edges_inside =
            List.concat_map
              (fun u ->
                List.filter_map
                  (fun v ->
                    if u < v && not (Graph.has_edge g u v) then Some (u, v) else None)
                  members)
              members
          in
          let incident = edges_incident_to g members in
          (* On a tree, deletions must lie on a cycle created by the
             additions, i.e. on the tree path between added endpoints. *)
          Subsets.iter_subsets ~min_size:1 non_edges_inside ~budget (fun add ->
              let removable =
                let on_paths = tree_path_edges rooted add in
                List.filter (fun e -> List.mem e on_paths) incident
              in
              Subsets.iter_subsets removable ~max_size:(List.length add)
                ~budget (fun remove ->
                  if all_members_active members ~remove ~add then
                    if
                      move_improves_all_oracle ~alpha oracle before_cost members
                        ~remove ~add
                    then raise (Found (Move.Coalition { members; remove; add }))))
    in
    let eligible = eligible_members ~alpha ~cost:before_cost size in
    match
      for csize = 2 to min k size do
        iter_combinations eligible csize (fun members ->
            match try_coalition members with
            | () -> ()
            | exception Out_of_budget -> exhausted := true)
      done
    with
    | () ->
        if !exhausted then Verdict.Exhausted "tree k-BSE search budget" else Verdict.Stable
    | exception Found m -> Verdict.Unstable m

  (* ---------------------------------------------------------------- *)
  (* General budgeted enumeration                                      *)
  (* ---------------------------------------------------------------- *)

  let check_budgeted ?(budget = default_budget) ~k ~alpha g =
    let size = Graph.n g in
    let budget = ref budget in
    let exhausted = ref false in
    let oracle, before_cost = make_eval_ctx ~alpha g in
    let try_coalition members =
      let non_edges_inside =
        List.concat_map
          (fun u ->
            List.filter_map
              (fun v -> if u < v && not (Graph.has_edge g u v) then Some (u, v) else None)
              members)
          members
      in
      let incident = edges_incident_to g members in
      Subsets.iter_subsets non_edges_inside ~budget (fun add ->
          (* Deleting a bridge of G + A disconnects the graph and can never
             improve a member; restrict deletions to non-bridges. *)
          let g_plus = Graph.add_edges g add in
          let bridge_set = Paths.bridges g_plus in
          let removable = List.filter (fun e -> not (List.mem e bridge_set)) incident in
          Subsets.iter_subsets removable ~budget (fun remove ->
              if (add <> [] || remove <> []) && all_members_active members ~remove ~add
              then
                if move_improves_all_oracle ~alpha oracle before_cost members ~remove ~add
                then raise (Found (Move.Coalition { members; remove; add }))))
    in
    let eligible = eligible_members ~alpha ~cost:before_cost size in
    match
      for csize = 1 to min k size do
        iter_combinations eligible csize (fun members ->
            match try_coalition members with
            | () -> ()
            | exception Out_of_budget -> exhausted := true)
      done
    with
    | () ->
        if !exhausted then Verdict.Exhausted "general k-BSE search budget"
        else Verdict.Stable
    | exception Found m -> Verdict.Unstable m

  let check ?budget ~k ~alpha g =
    let size = Graph.n g in
    if size <= 6 then check_outcomes ~k ~alpha g
    else if Tree.is_tree g then check_tree ?budget ~k ~alpha g
    else check_budgeted ?budget ~k ~alpha g

  let check_bse ?budget ~alpha g = check ?budget ~k:(Graph.n g) ~alpha g

  (* ---------------------------------------------------------------- *)
  (* Randomized falsification                                          *)
  (* ---------------------------------------------------------------- *)

  let falsify_random ~rng ~iterations ~k ~alpha g =
    let size = Graph.n g in
    if size < 2 then Not_refuted
    else begin
      let oracle, before_cost = make_eval_ctx ~alpha g in
      let eligible = Array.of_list (eligible_members ~alpha ~cost:before_cost size) in
      let pool = Array.length eligible in
      if pool < 2 then Not_refuted
      else begin
        let result = ref Not_refuted in
        let iteration _ =
          if !result = Not_refuted then begin
            let csize = 2 + Random.State.int rng (max 1 (min k pool - 1)) in
            let members =
              let chosen = Hashtbl.create csize in
              while Hashtbl.length chosen < min csize pool do
                Hashtbl.replace chosen eligible.(Random.State.int rng pool) ()
              done;
              Hashtbl.fold (fun u () acc -> u :: acc) chosen [] |> List.sort Int.compare
            in
            let non_edges_inside =
              List.concat_map
                (fun u ->
                  List.filter_map
                    (fun v ->
                      if u < v && not (Graph.has_edge g u v) then Some (u, v) else None)
                    members)
                members
            in
            if non_edges_inside <> [] then begin
              let add =
                List.filter (fun _ -> Random.State.bool rng) non_edges_inside |> function
                | [] ->
                    [
                      List.nth non_edges_inside
                        (Random.State.int rng (List.length non_edges_inside));
                    ]
                | l -> l
              in
              let g_plus = Graph.add_edges g add in
              let bridge_set = Paths.bridges g_plus in
              let removable =
                edges_incident_to g members
                |> List.filter (fun e -> not (List.mem e bridge_set))
              in
              let remove = List.filter (fun _ -> Random.State.bool rng) removable in
              if all_members_active members ~remove ~add then
                if move_improves_all_oracle ~alpha oracle before_cost members ~remove ~add
                then result := Refuted (Move.Coalition { members; remove; add })
            end
          end
        in
        for i = 1 to iterations do
          iteration i
        done;
        !result
      end
    end
end

include Make (Cost.Metric)
