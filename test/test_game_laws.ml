open Helpers

(* The GAME-law property bank (Game_laws) run against both shipped
   instances, plus mutation smoke: deliberately lawless instances must
   be caught, or a green bank means nothing. *)

module Bilateral_laws = Game_laws.Make (Bilateral)
module Unilateral_laws = Game_laws.Make (Unilateral_game)
module Generalized_laws = Game_laws.Make (Generalized)

(* A generalized game whose checker lies about one cost function:
   reference agreement must flag it without disturbing the others. *)
module Lying_gen_check = struct
  include Generalized

  let check ?budget ~alpha concept g =
    match concept.Generalized.f with
    | Dist_cost.Power 2 -> Verdict.Stable
    | _ -> Generalized.check ?budget ~alpha concept g
end

let fail_on viols =
  match viols with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "%d violation(s); first: %a" (List.length viols)
        Game_laws.pp_violation v

(* A bilateral game whose checker lies (claims PS-stability everywhere):
   reference agreement must flag it. *)
module Lying_check = struct
  include Bilateral

  let check ?budget ~alpha concept g =
    match concept with
    | Concept.PS -> Verdict.Stable
    | _ -> Bilateral.check ?budget ~alpha concept g
end

(* A bilateral game that corrupts every witness with an absent edge:
   the witness law must flag it. *)
module Corrupt_witness = struct
  include Bilateral

  let check ?budget ~alpha concept g =
    match Bilateral.check ?budget ~alpha concept g with
    | Verdict.Unstable _ as v -> (
        match Graph.non_edges g with
        | (u, v') :: _ -> Verdict.Unstable (Move.Remove { agent = u; target = v' })
        | [] -> v)
    | v -> v
end

(* A game whose relabel forgets to move the state: the structural
   relabel-commutes law must flag it. *)
module Frozen_relabel = struct
  include Bilateral

  let relabel s _ = s
end

(* METRIC law: [of_bits], [of_oracle] and [of_graph] price every agent
   identically, on the intact graph and across an edge flip (the flip /
   price / unflip discipline every checker relies on). *)
module Metric_laws (M : Metric_sig.METRIC) = struct
  let agree ~what ~alpha g bg o =
    for u = 0 to Graph.n g - 1 do
      let want = M.of_graph ~alpha g u in
      let label = Printf.sprintf "%s agent %d of %s" what u (Encode.to_graph6 g) in
      check_true (label ^ ": of_bits") (M.of_bits ~alpha bg u = want);
      check_true (label ^ ": of_oracle") (M.of_oracle ~alpha o u = want)
    done

  let run ~name ~seed =
    for i = 0 to 99 do
      let rng = Splitmix.derive seed [ i ] in
      let n = 1 + Splitmix.int rng 14 in
      let g =
        if i mod 2 = 0 then Casegen.connected rng n ~p:0.2 else Casegen.gnp rng n ~p:0.15
      in
      let alpha = Casegen.alpha rng in
      let bg = Bitgraph.of_graph g and o = Dist_oracle.create g in
      agree ~what:name ~alpha g bg o;
      if n >= 2 then begin
        let u = Splitmix.int rng n in
        let v = (u + 1 + Splitmix.int rng (n - 1)) mod n in
        Bitgraph.flip_edge bg u v;
        if Graph.has_edge g u v then begin
          Dist_oracle.remove_edge o u v;
          agree ~what:(name ^ " after a removal") ~alpha (Graph.remove_edge g u v) bg o
        end
        else begin
          Dist_oracle.add_edge o u v;
          agree ~what:(name ^ " after an addition") ~alpha (Graph.add_edge g u v) bg o
        end
      end
    done
end

let suite =
  [
    tc "bilateral instance is lawful on 200 cases" (fun () ->
        fail_on
          (Bilateral_laws.run ~gen:Casegen.graph ~seed:101L ()));
    tc "unilateral instance is lawful on 200 cases (canonical ownership)" (fun () ->
        fail_on
          (Unilateral_laws.run
             ~gen:(fun rng n -> Unilateral_game.of_graph (Casegen.graph rng n))
             ~seed:102L ()));
    tc "unilateral instance is lawful under random ownership" (fun () ->
        (* [of_graph]-canonical states are the common case; the laws must
           hold for arbitrary ownership too (it is part of the state). *)
        fail_on
          (Unilateral_laws.run ~cases:150 ~gen:Fuzz.unilateral_gen ~seed:103L ()));
    tc "metric law: Cost.Metric prices agree on bits, oracle and graph" (fun () ->
        let module L = Metric_laws (Cost.Metric) in
        L.run ~name:"linear" ~seed:108L);
    tc "metric law: Cost_gen.Metric prices agree for every Dist_cost.all" (fun () ->
        List.iter
          (fun f ->
            let module L = Metric_laws (Cost_gen.Metric (struct
              let f = f
            end)) in
            L.run ~name:(Dist_cost.name f) ~seed:109L)
          Dist_cost.all);
    tc "generalized instance is lawful on 200 cases" (fun () ->
        fail_on (Generalized_laws.run ~gen:Casegen.graph ~seed:107L ()));
    tc "mutation: lying generalized checker violates the reference law" (fun () ->
        let module M = Game_laws.Make (Lying_gen_check) in
        let viols =
          M.run
            ~concepts:[ { Generalized.f = Dist_cost.Power 2; base = Concept.PS } ]
            ~gen:Casegen.graph ~seed:108L ()
        in
        check_true "caught" (viols <> []);
        check_true "as a reference disagreement"
          (List.exists (fun v -> v.Game_laws.law = M.law_reference) viols));
    tc "mutation: lying checker violates the reference law" (fun () ->
        let module M = Game_laws.Make (Lying_check) in
        let viols = M.run ~concepts:[ Concept.PS ] ~gen:Casegen.graph ~seed:104L () in
        check_true "caught" (viols <> []);
        check_true "as a reference disagreement"
          (List.exists (fun v -> v.Game_laws.law = M.law_reference) viols));
    tc "mutation: corrupted witness violates the witness law" (fun () ->
        let module M = Game_laws.Make (Corrupt_witness) in
        let viols = M.run ~concepts:[ Concept.PS ] ~gen:Casegen.graph ~seed:105L () in
        check_true "caught" (viols <> []);
        check_true "as a witness rejection"
          (List.exists (fun v -> v.Game_laws.law = M.law_witness) viols));
    tc "mutation: frozen relabel violates the structural law" (fun () ->
        let module M = Game_laws.Make (Frozen_relabel) in
        let viols = M.run ~concepts:[] ~gen:Casegen.graph ~seed:106L () in
        check_true "caught" (viols <> []);
        check_true "as relabel-commutes"
          (List.exists (fun v -> v.Game_laws.law = M.law_relabel_commutes) viols));
  ]
