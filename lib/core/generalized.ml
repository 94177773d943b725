(* The generalized BNCG of arXiv 2510.00239 as a GAME instance: the
   bilateral deviation vocabulary, priced through a {!Dist_cost}
   distance-cost function.

   RE, BAE, PS, BSwE and BGE are the bilateral checkers themselves,
   applied to [Cost_gen.Metric]: that metric's prune hooks are
   permissive, so the functors keep only what holds for every cost
   function (the bit-parallel and incremental-oracle pricing) and decide
   every candidate by exact pricing.

   BNE and k-BSE keep their own searches.  The bilateral ones
   ({!Neighborhood_eq}, {!Strong_eq}) prune with the Corbo-Parkes
   single-removal shortcut, the tree-branch restriction and the bridge
   restriction, and all three assume that losing reachability
   outweighs every other change in cost.  Under [Cutoff r] that fails:
   a deletion can push one vertex out of radius r while an addition in
   the same move pulls several others back inside it, so a move that
   drops a branch or a bridge can still improve every mover.  The
   searches below use only incremental distance maintenance
   ({!Dist_oracle} flip / read / unflip) and the [G_all] consent lower
   bound for BNE partners, both sound for every [f]. *)

let name = "generalized"

type state = Graph.t

let of_graph g = g
let graph s = s
let relabel = Graph.relabel

type concept = { f : Dist_cost.t; base : Concept.t }

(* Default fuzz vocabulary: every bilateral base concept under one
   strictly convex function and one cutoff function.  [Linear] is
   deliberately absent — it replays the bilateral game, which has its
   own campaigns. *)
let concepts =
  List.concat_map
    (fun base ->
      List.map (fun f -> { f; base }) [ Dist_cost.Power 2; Dist_cost.Cutoff 2 ])
    [
      Concept.RE;
      Concept.BAE;
      Concept.PS;
      Concept.BSwE;
      Concept.BGE;
      Concept.BNE;
      Concept.KBSE 2;
      Concept.BSE;
    ]

let concept_name { f; base } = Concept.name base ^ "@" ^ Dist_cost.name f

let concept_of_string s =
  let s = String.trim s in
  let base_str, f_result =
    match String.index_opt s '@' with
    | None -> (s, Ok Dist_cost.Linear)
    | Some i ->
        ( String.sub s 0 i,
          Dist_cost.of_string (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  match (Concept.of_string base_str, f_result) with
  | Ok base, Ok f -> Ok { f; base }
  | Error _, _ | _, Error _ ->
      Error
        (Printf.sprintf
           "unknown generalized concept %S (expected BASE or BASE@F with BASE one of %s \
            and F one of %s)"
           s Concept.valid_names Dist_cost.valid_names)

(* ------------------------------------------------------------------ *)
(* Checker infrastructure                                              *)
(* ------------------------------------------------------------------ *)

exception Found of Move.t
exception Out_of_budget = Subsets.Out_of_budget

(* One oracle and one baseline memo per check: moves are always undone,
   so the oracle is pristine between evaluations and the memoised
   baseline costs stay valid across agents (the memo is only read
   while the oracle is pristine — [flip]-style evaluators force their
   baselines before flipping). *)
let make_ctx ~f ~alpha g =
  let oracle = Dist_oracle.create g in
  let before = Array.make (max (Graph.n g) 1) None in
  let before_cost u =
    match before.(u) with
    | Some c -> c
    | None ->
        let c = Cost_gen.agent_cost_oracle ~f ~alpha oracle u in
        before.(u) <- Some c;
        c
  in
  (oracle, before_cost)

(* ------------------------------------------------------------------ *)
(* BNE: budgeted neighborhood enumeration with the G_all consent bound *)
(* ------------------------------------------------------------------ *)

let check_bne_agent ~f ~alpha ~oracle ~before ~budget g u =
  let size = Graph.n g in
  let cost = Cost_gen.agent_cost_oracle ~f ~alpha oracle in
  let neighbors = Array.to_list (Graph.neighbors g u) in
  let strangers = ref [] in
  for v = size - 1 downto 0 do
    if v <> u && not (Graph.has_edge g u v) then strangers := v :: !strangers
  done;
  let strangers = !strangers in
  (* Consent bound, sound for every f: price each stranger [a] in
     [G_all = G + {u-s : every stranger s}].  Any post-move graph H
     with [a] among the added partners satisfies H ⊆ G ∪ A ⊆ G_all, so
     d_H ≥ d_{G_all} pointwise, while [a]'s degree in H is exactly
     deg_G(a) + 1 = deg_{G_all}(a).  Hence [a]'s G_all cost lower-bounds
     her cost after any move of [u] that includes her; a stranger whose
     bound does not beat her current cost can never consent.  (The
     single-added-edge bound G + ua is NOT sound for |A| > 1: other
     added edges can shorten [a]'s distances through [u].) *)
  let g_all = List.fold_left (fun acc s -> Graph.add_edge acc u s) g strangers in
  let candidates =
    List.filter
      (fun a ->
        Cost_gen.strictly_less (Cost_gen.agent_cost ~f ~alpha g_all a) (before a))
      strangers
  in
  let evaluate drop add =
    if drop = [] && add = [] then ()
    else begin
      let bu = before u in
      let badds = List.map (fun a -> (a, before a)) add in
      List.iter (fun v -> Dist_oracle.remove_edge oracle u v) drop;
      List.iter (fun a -> Dist_oracle.add_edge oracle u a) add;
      let ok =
        Cost_gen.strictly_less (cost u) bu
        && List.for_all (fun (a, ba) -> Cost_gen.strictly_less (cost a) ba) badds
      in
      List.iter (fun a -> Dist_oracle.remove_edge oracle u a) add;
      List.iter (fun v -> Dist_oracle.add_edge oracle u v) drop;
      if ok then raise (Found (Move.Neighborhood { agent = u; drop; add }))
    end
  in
  (* No net-edge cap and no single-removal shortcut: both rest on the
     linear cost's arithmetic (see {!Neighborhood_eq}) and are unproven
     for general f, so the enumeration is full within the budget. *)
  Subsets.iter_subsets candidates ~budget (fun add ->
      Subsets.iter_subsets neighbors ~budget (fun drop -> evaluate drop add))

let check_bne ?(budget = Neighborhood_eq.default_budget) ~f ~alpha g =
  let size = Graph.n g in
  let per_agent = if size = 0 then budget else max 2_000 (budget / size) in
  let oracle, before = make_ctx ~f ~alpha g in
  let exhausted = ref None in
  let rec go u =
    if u >= size then
      match !exhausted with None -> Verdict.Stable | Some why -> Verdict.Exhausted why
    else
      match
        check_bne_agent ~f ~alpha ~oracle ~before ~budget:(ref per_agent) g u
      with
      | () -> go (u + 1)
      | exception Found m -> Verdict.Unstable m
      | exception Out_of_budget ->
          if !exhausted = None then
            exhausted :=
              Some (Printf.sprintf "BNE move space around agent %d exceeds budget" u);
          go (u + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* k-BSE / BSE: budgeted coalition-first enumeration                   *)
(* ------------------------------------------------------------------ *)

(* Coalition-first order (coalition, then added edges, then removals),
   equivalent to the oracle's outcome-first enumeration: an outcome
   graph g' with improving legal coalition S corresponds exactly to the
   triple (S, R, A) with R/A the removed/added edge sets, and both
   sides require every member of S to strictly improve. *)
let check_kbse ?(budget = Neighborhood_eq.default_budget) ~f ~k ~alpha g =
  if k < 1 then invalid_arg "Generalized.check: need k >= 1";
  let size = Graph.n g in
  let oracle, before = make_ctx ~f ~alpha g in
  let cost = Cost_gen.agent_cost_oracle ~f ~alpha oracle in
  let vertices = List.init size Fun.id in
  let budget = ref budget in
  try
    Subsets.iter_subsets vertices ~max_size:(min k size) ~budget (fun members ->
        if members <> [] then begin
          let mem x = List.exists (Int.equal x) members in
          let removable = List.filter (fun (u, v) -> mem u || mem v) (Graph.edges g) in
          let addable = List.filter (fun (u, v) -> mem u && mem v) (Graph.non_edges g) in
          Subsets.iter_subsets addable ~budget (fun add ->
              Subsets.iter_subsets removable ~budget (fun remove ->
                  if add <> [] || remove <> [] then begin
                    let bms = List.map (fun m -> (m, before m)) members in
                    List.iter (fun (u, v) -> Dist_oracle.remove_edge oracle u v) remove;
                    List.iter (fun (u, v) -> Dist_oracle.add_edge oracle u v) add;
                    let ok =
                      List.for_all
                        (fun (m, bm) -> Cost_gen.strictly_less (cost m) bm)
                        bms
                    in
                    List.iter (fun (u, v) -> Dist_oracle.remove_edge oracle u v) add;
                    List.iter (fun (u, v) -> Dist_oracle.add_edge oracle u v) remove;
                    if ok then raise (Found (Move.Coalition { members; remove; add }))
                  end))
        end);
    Verdict.Stable
  with
  | Found m -> Verdict.Unstable m
  | Out_of_budget ->
      Verdict.Exhausted "generalized k-BSE coalition space exceeds budget"

(* ------------------------------------------------------------------ *)
(* The GAME surface                                                    *)
(* ------------------------------------------------------------------ *)

let check ?budget ~alpha { f; base } g =
  let module M = Cost_gen.Metric (struct
    let f = f
  end) in
  match base with
  | Concept.RE ->
      let module C = Remove_eq.Make (M) in
      C.check ~alpha g
  | Concept.BAE ->
      let module C = Add_eq.Make (M) in
      C.check ~alpha g
  | Concept.PS ->
      let module C = Pairwise.Make (M) in
      C.check ~alpha g
  | Concept.BSwE ->
      let module C = Swap_eq.Make (M) in
      C.check ~alpha g
  | Concept.BGE ->
      let module C = Greedy_eq.Make (M) in
      C.check ~alpha g
  | Concept.BNE -> check_bne ?budget ~f ~alpha g
  | Concept.KBSE k -> check_kbse ?budget ~f ~k ~alpha g
  | Concept.BSE -> check_kbse ?budget ~f ~k:(max 1 (Graph.n g)) ~alpha g

let reference ~alpha { f; base } g = Oracle.check_generalized ~f ~alpha base g

(* The deviation structure (and therefore the oracle's tractable range)
   is the bilateral one; only the pricing changes with f. *)
let size_cap { base; _ } = Bilateral.size_cap base
let weighted_sizes { base; _ } sizes = Bilateral.weighted_sizes base sizes

let witness_ok ~alpha { f; _ } g m =
  match Move.apply g m with
  | exception Invalid_argument _ -> false
  | g' ->
      List.for_all
        (fun u ->
          Cost_gen.strictly_less
            (Cost_gen.agent_cost ~f ~alpha g' u)
            (Cost_gen.agent_cost ~f ~alpha g u))
        (Move.participants m)

let rho ~alpha { f; _ } g = Cost_gen.rho ~f ~alpha g
