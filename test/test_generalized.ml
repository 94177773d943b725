open Helpers

(* The generalized game (arXiv 2510.00239): the Dist_cost vocabulary,
   Cost_gen against the classic cost under the linear function, the
   exact social optimum against brute force, BASE@F concept parsing,
   and deterministic checker-vs-oracle agreement.  The fuzz campaign
   (`bncg fuzz --game generalized`) covers the same seams at volume;
   these are the fast, pinned cases. *)

(* ------------------------------------------------------------------ *)
(* Dist_cost                                                           *)
(* ------------------------------------------------------------------ *)

let test_dist_cost_roundtrip () =
  let fs =
    Dist_cost.all
    @ [ Dist_cost.Power Dist_cost.max_power; Dist_cost.Cutoff 7 ]
  in
  List.iter
    (fun f ->
      match Dist_cost.of_string (Dist_cost.name f) with
      | Ok f' -> check_true (Dist_cost.name f) (Dist_cost.equal f f')
      | Error e -> Alcotest.failf "%s: %s" (Dist_cost.name f) e)
    fs;
  (* d1 is the linear function; parsing is case-insensitive. *)
  (match Dist_cost.of_string "d1" with
  | Ok Dist_cost.Linear -> ()
  | _ -> Alcotest.fail "d1 must normalise to Linear");
  (match Dist_cost.of_string "D2" with
  | Ok (Dist_cost.Power 2) -> ()
  | _ -> Alcotest.fail "names are case-insensitive");
  List.iter
    (fun s ->
      match Dist_cost.of_string s with
      | Ok _ -> Alcotest.failf "%S must be rejected" s
      | Error e ->
          check_true (s ^ " error lists the grammar")
            (let sub = "d (linear)" in
             let rec has i =
               i + String.length sub <= String.length e
               && (String.sub e i (String.length sub) = sub || has (i + 1))
             in
             has 0))
    [ "d9"; "d0"; "d1.5"; "cut0"; "cut"; "linear"; "" ]

let test_dist_cost_eval () =
  let some = Alcotest.(check (option int)) in
  some "linear prices d" (Some 3) (Dist_cost.eval Dist_cost.Linear 3);
  some "cube" (Some 27) (Dist_cost.eval (Dist_cost.Power 3) 3);
  some "within the radius is free" (Some 0) (Dist_cost.eval (Dist_cost.Cutoff 2) 2);
  some "beyond the radius is far" None (Dist_cost.eval (Dist_cost.Cutoff 2) 3);
  List.iter
    (fun f ->
      some (Dist_cost.name f ^ ": unreachable is far") None (Dist_cost.eval f (-1)))
    [ Dist_cost.Linear; Dist_cost.Power 2; Dist_cost.Cutoff 2 ]

(* ------------------------------------------------------------------ *)
(* Cost_gen vs Cost under the linear function                          *)
(* ------------------------------------------------------------------ *)

let test_linear_agent_cost_matches_classic () =
  for i = 0 to 49 do
    let rng = Splitmix.derive 201L [ i ] in
    let n = 2 + Splitmix.int rng 6 in
    let g = Casegen.graph rng n in
    let alpha = Casegen.alpha rng in
    for u = 0 to n - 1 do
      let gen = Cost_gen.agent_cost ~f:Dist_cost.Linear ~alpha g u in
      let classic = Cost.agent_cost ~alpha g u in
      check_int "far = unreachable" classic.Cost.unreachable gen.Cost_gen.far;
      check_float "buy" classic.Cost.buy gen.Cost_gen.buy;
      check_int "fdist = dist" classic.Cost.dist gen.Cost_gen.fdist
    done
  done

(* ------------------------------------------------------------------ *)
(* opt_cost is the true optimum (brute force over all graphs)          *)
(* ------------------------------------------------------------------ *)

let graph_of_mask n pairs mask =
  let edges = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) pairs in
  Graph.add_edges (Graph.create n) edges

let test_opt_cost_brute_force () =
  let fs =
    [
      Dist_cost.Linear;
      Dist_cost.Power 2;
      Dist_cost.Power 3;
      Dist_cost.Cutoff 1;
      Dist_cost.Cutoff 2;
    ]
  in
  for n = 2 to 5 do
    let pairs = ref [] in
    for u = n - 1 downto 0 do
      for v = n - 1 downto u + 1 do
        pairs := (u, v) :: !pairs
      done
    done;
    let pairs = !pairs in
    let m = List.length pairs in
    List.iter
      (fun f ->
        List.iter
          (fun alpha ->
            let best = ref None in
            for mask = 0 to (1 lsl m) - 1 do
              let s = Cost_gen.social_cost ~f ~alpha (graph_of_mask n pairs mask) in
              match !best with
              | Some b when Cost_gen.compare_social b s <= 0 -> ()
              | _ -> best := Some s
            done;
            let claimed = Cost_gen.opt_cost ~f ~alpha n in
            match !best with
            | None -> assert false
            | Some b ->
                check_int
                  (Printf.sprintf "opt(%s, alpha=%g, n=%d)" (Dist_cost.name f)
                     alpha n)
                  0
                  (Cost_gen.compare_social claimed b))
          [ 0.25; 1.; 2.; 5. ])
      fs
  done

(* ------------------------------------------------------------------ *)
(* Concept names                                                       *)
(* ------------------------------------------------------------------ *)

let parse_exn s =
  match Generalized.concept_of_string s with
  | Ok c -> c
  | Error e -> Alcotest.failf "%S: %s" s e

let test_concept_parsing () =
  let c = parse_exn "ps" in
  check_true "bare base is linear" (Dist_cost.equal c.Generalized.f Dist_cost.Linear);
  Alcotest.(check string) "bare base canonical name" "PS@d"
    (Generalized.concept_name c);
  Alcotest.(check string) "roundtrip" "BNE@d2"
    (Generalized.concept_name (parse_exn "bne@D2"));
  Alcotest.(check string) "coalition base" "3-BSE@cut2"
    (Generalized.concept_name (parse_exn "3-BSE@cut2"));
  List.iter
    (fun s ->
      match Generalized.concept_of_string s with
      | Ok c -> Alcotest.failf "%S parsed as %s" s (Generalized.concept_name c)
      | Error _ -> ())
    [ "PS@"; "@d2"; "PS@d9"; "XX@d2"; "PS@d2@d3"; "" ];
  (* The default fuzz vocabulary is the 8 bases under d^2 and cut2. *)
  check_int "vocabulary size" 16 (List.length Generalized.concepts);
  List.iter
    (fun c ->
      let name = Generalized.concept_name c in
      match Generalized.concept_of_string name with
      | Ok c' -> Alcotest.(check string) name name (Generalized.concept_name c')
      | Error e -> Alcotest.failf "%s: %s" name e)
    Generalized.concepts

(* ------------------------------------------------------------------ *)
(* Checker vs oracle, linear recovers bilateral                        *)
(* ------------------------------------------------------------------ *)

let kind = function
  | Verdict.Stable -> "stable"
  | Verdict.Unstable _ -> "unstable"
  | Verdict.Exhausted _ -> "exhausted"

let test_checker_agrees_with_oracle () =
  for i = 0 to 99 do
    let rng = Splitmix.derive 202L [ i ] in
    let n = 2 + Splitmix.int rng 4 in
    let g = Casegen.graph rng n in
    let alpha = Casegen.alpha rng in
    List.iter
      (fun c ->
        let got = Generalized.check ~alpha c g in
        let want = Oracle.check_generalized ~f:c.Generalized.f ~alpha c.Generalized.base g in
        match got with
        | Verdict.Exhausted _ -> ()
        | _ ->
            Alcotest.(check string)
              (Printf.sprintf "case %d %s alpha=%g %s" i
                 (Generalized.concept_name c) alpha (Graph.to_string g))
              (kind want) (kind got))
      Generalized.concepts
  done

(* RE, BAE, PS, BSwE and BGE run the bilateral checker functors on both
   games, so under the linear function the generalized verdicts must be
   the bilateral ones move for move; BNE keeps its own search and is
   compared by verdict kind only. *)
let test_linear_recovers_bilateral () =
  for i = 0 to 99 do
    let rng = Splitmix.derive 203L [ i ] in
    let n = 2 + Splitmix.int rng 4 in
    let g = Casegen.graph rng n in
    let alpha = Casegen.alpha rng in
    List.iter
      (fun base ->
        let c = { Generalized.f = Dist_cost.Linear; base } in
        let label = Printf.sprintf "case %d %s@d alpha=%g" i (Concept.name base) alpha in
        (match (Generalized.check ~alpha c g, Concept.check ~alpha base g, base) with
        | Verdict.Exhausted _, _, _ | _, Verdict.Exhausted _, _ -> ()
        | got, want, Concept.BNE ->
            Alcotest.(check string) label (kind want) (kind got)
        | got, want, _ ->
            Alcotest.(check string) label (Verdict.to_string want) (Verdict.to_string got));
        check_float
          (Printf.sprintf "rho case %d %s@d" i (Concept.name base))
          (Cost.rho ~alpha g)
          (Generalized.rho ~alpha c g))
      [ Concept.RE; Concept.BAE; Concept.PS; Concept.BSwE; Concept.BGE; Concept.BNE ]
  done

let test_rho_extremes () =
  let cut1 = { Generalized.f = Dist_cost.Cutoff 1; base = Concept.PS } in
  check_float "clique is the cut1 optimum" 1.0
    (Generalized.rho ~alpha:2.0 cut1 (Gen.clique 5));
  check_true "a star has far pairs under cut1"
    (Generalized.rho ~alpha:2.0 cut1 (Gen.star 5) = infinity);
  let cut2 = { Generalized.f = Dist_cost.Cutoff 2; base = Concept.PS } in
  check_float "a star is the cut2 optimum at high alpha" 1.0
    (Generalized.rho ~alpha:8.0 cut2 (Gen.star 6))

let suite =
  [
    tc "dist-cost: names round-trip, bad names rejected" test_dist_cost_roundtrip;
    tc "dist-cost: eval semantics (powers, cutoffs, far)" test_dist_cost_eval;
    tc "linear agent cost matches the classic cost" test_linear_agent_cost_matches_classic;
    slow "opt_cost is exact (brute force, n <= 5)" test_opt_cost_brute_force;
    tc "concept names: BASE@F parsing and vocabulary" test_concept_parsing;
    slow "checker agrees with the naive oracle" test_checker_agrees_with_oracle;
    slow "the linear function recovers the bilateral game" test_linear_recovers_bilateral;
    tc "rho: cutoff optima (clique under cut1, star under cut2)" test_rho_extremes;
  ]
