(* Command-line front end.

   bncg check  -a 2.0 -c PS -g "Dhc"            check a graph6 graph
   bncg rho    -a 2.0 -g "Dhc"                  social cost ratio
   bncg poa    -a 2.0 -c 3-BSE -n 9             worst rho over all trees
   bncg sweep  --family connected -n 6 -c PS    full (concept x alpha x n) sweep
   bncg merge  s0.json s1.json --json           combine sharded sweep outputs
   bncg serve  --socket /tmp/bncg.sock          equilibrium-oracle daemon
   bncg dyn    -a 2.0 -c BGE --tree 10 --seed 1 improving-move dynamics
   bncg dynamics -a 2.0 -c PS --family random-tree -n 64  oracle-priced dynamics
   bncg enum   -n 7                             enumeration counts
   bncg gallery                                 counterexample summary
   bncg trace  t.jsonl -o chrome.json           convert a --trace file for Perfetto

   Flag plumbing shared across subcommands lives in Cli_common; value
   validation (one stderr line, exit 2) in Cli_validate; the JSON
   payloads of check/poa are printed through the Api codecs, the same
   functions the serve daemon answers with — byte identity between the
   two is by construction, not by parallel maintenance. *)

open Cmdliner

let die = Cli_common.die
let ok_or_die = Cli_common.ok_or_die
let with_obs = Cli_common.with_obs
let with_store = Cli_common.with_store
let trace_arg = Cli_common.trace_arg
let heartbeat_arg = Cli_common.heartbeat_arg
let json_arg = Cli_common.json_arg
let no_wall_arg = Cli_common.no_wall_arg
let store_arg = Cli_common.store_arg
let concept_conv = Cli_common.concept_conv

let alpha_arg =
  Arg.(
    required
    & opt (some float) None
    & info [ "a"; "alpha" ] ~docv:"ALPHA" ~doc:"Edge price $(docv) > 0.")

let concept_arg =
  Arg.(
    value
    & opt concept_conv Concept.PS
    & info [ "c"; "concept" ] ~docv:"CONCEPT"
        ~doc:"Solution concept: RE, BAE, PS, BSwE, BGE, BNE, k-BSE (e.g. 3-BSE), BSE.")

(* For the game-aware subcommands the concept stays a raw string until
   --game is known: which vocabulary it parses against depends on the
   game, and a wrong-game name must produce the one-line exit-2
   diagnostic naming that game's valid spellings (via [ok_or_die]), not
   cmdliner's usage error. *)
let concept_name_arg =
  Arg.(
    value
    & opt string "PS"
    & info [ "c"; "concept" ] ~docv:"CONCEPT"
        ~doc:
          "Solution concept: RE, BAE, PS, BSwE, BGE, BNE, k-BSE (e.g. 3-BSE), BSE.  \
           With $(b,--game generalized): BASE or BASE@F (e.g. BNE@d2, PS@cut2) with F \
           a distance-cost function — d (linear), d2..d8 (powers) or cut1, cut2, ... \
           (cutoffs); bare BASE means BASE@d.")

(* check/poa/sweep address graph6 states, so the unilateral game (whose
   state is an ownership assignment) is not in their vocabulary. *)
let graph_games = [ "bilateral"; "generalized" ]

let game_arg =
  Arg.(
    value
    & opt string "bilateral"
    & info [ "game" ] ~docv:"GAME"
        ~doc:
          "Game instance: $(b,bilateral) (default — the PODC 2023 game) or \
           $(b,generalized) (arbitrary distance-cost functions; see $(b,--concept)).")

let graph_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "g"; "graph" ] ~docv:"GRAPH6" ~doc:"The graph in graph6 format.")

let budget_arg =
  Arg.(
    value
    & opt int Api.default_budget
    & info [ "budget" ] ~docv:"N" ~doc:"Search budget for BNE / k-BSE checkers.")

let check_cmd =
  let run alpha game concept g6 budget json =
    let game = ok_or_die (Cli_validate.game ~allowed:graph_games game) in
    let g = Encode.of_graph6 g6 in
    let concept, v, rho =
      match game with
      | "generalized" ->
          let c = ok_or_die (Generalized.concept_of_string concept) in
          ( Generalized.concept_name c,
            Generalized.check ~budget ~alpha c g,
            fun () -> Generalized.rho ~alpha c g )
      | _ ->
          let c = ok_or_die (Concept.of_string concept) in
          (Concept.name c, Concept.check ~budget ~alpha c g, fun () -> Cost.rho ~alpha g)
    in
    if json then
      print_endline
        (Json.to_string
           (Api.response_to_json
              (Api.Check_ok { game; concept; alpha; graph6 = g6; verdict = v; rho = rho () })))
    else Printf.printf "%s on %s at alpha=%g: %s\n" concept g6 alpha (Verdict.to_string v);
    match v with Verdict.Unstable _ -> exit 1 | Verdict.Stable -> () | Verdict.Exhausted _ -> exit 2
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check a graph against a solution concept.")
    Term.(
      const run $ alpha_arg $ game_arg $ concept_name_arg $ graph_arg $ budget_arg
      $ json_arg)

let rho_cmd =
  let run alpha g6 =
    let g = Encode.of_graph6 g6 in
    Printf.printf "rho = %.6f (social cost %.1f, optimum %.1f)\n" (Cost.rho ~alpha g)
      (Cost.social_money (Cost.social_cost ~alpha g))
      (Cost.opt_cost ~alpha (Graph.n g))
  in
  Cmd.v
    (Cmd.info "rho" ~doc:"Social cost ratio of a graph.")
    Term.(const run $ alpha_arg $ graph_arg)

let poa_cmd =
  let n_arg =
    Arg.(
      value & opt int 8 & info [ "n" ] ~docv:"N" ~doc:"Number of agents (trees up to 11).")
  in
  let connected_arg =
    Arg.(
      value & flag
      & info [ "general" ] ~doc:"Search connected graphs (n <= 8) instead of trees.")
  in
  let run alpha game concept n general budget store json trace heartbeat =
    let game = ok_or_die (Cli_validate.game ~allowed:graph_games game) in
    with_obs trace heartbeat @@ fun () ->
    let concept, w =
      match game with
      | "generalized" ->
          (* [Poa.run] is the bilateral funnel; the generalized game
             goes through the game-generic cell primitive over the same
             candidate families. *)
          let c = ok_or_die (Generalized.concept_of_string concept) in
          let family = if general then Sweep.Connected else Sweep.Trees in
          let w =
            with_store store (fun store ->
                let graphs = Sweep.candidates ?store family n in
                fst
                  (Sweep.run_cell_game
                     (module Generalized)
                     ~budget ?store ~concept:c ~alpha graphs))
          in
          (Generalized.concept_name c, w)
      | _ ->
          let c = ok_or_die (Concept.of_string concept) in
          let target = if general then Poa.Connected n else Poa.Trees n in
          let w =
            with_store store (fun store -> Poa.run ~budget ?store ~concept:c ~alpha target)
          in
          (Concept.name c, w)
    in
    if json then
      print_endline
        (Json.to_string
           (Api.response_to_json
              (Api.Poa_ok
                 {
                   game;
                   concept;
                   n;
                   family = (if general then Api.Connected else Api.Trees);
                   alpha;
                   worst = w;
                 })))
    else begin
      Printf.printf "%s, n=%d, alpha=%g: checked %d graphs, %d stable, %d budgeted out\n"
        concept n alpha w.Poa.checked w.Poa.stable_count w.Poa.exhausted;
      match w.Poa.witness with
      | Some g ->
          Printf.printf "worst rho = %.4f attained by %s (graph6 %s)\n" w.Poa.rho
            (Graph.to_string g) (Encode.to_graph6 g)
      | None -> print_endline "no stable graph found"
    end
  in
  Cmd.v
    (Cmd.info "poa" ~doc:"Worst-case rho over enumerated equilibria.")
    Term.(
      const run $ alpha_arg $ game_arg $ concept_name_arg $ n_arg $ connected_arg
      $ budget_arg $ store_arg $ json_arg $ trace_arg $ heartbeat_arg)

(* The text rendering of a sweep outcome, shared by [bncg sweep] and
   [bncg merge]. *)
let print_outcome_text (o : Sweep.outcome) =
  List.iter
    (fun (c : Sweep.cell) ->
      Printf.printf
        "n=%-2d %-6s alpha=%-6g rho=%-8.4f witness=%-12s stable=%d/%d exhausted=%d \
         hits=%d %.3fs\n"
        c.Sweep.size c.Sweep.concept c.Sweep.alpha c.Sweep.worst.rho
        (match c.Sweep.worst.witness with
        | Some g -> Encode.to_graph6 g
        | None -> "-")
        c.Sweep.worst.stable_count c.Sweep.worst.checked c.Sweep.worst.exhausted
        c.Sweep.cache_hits c.Sweep.wall)
    o.Sweep.cells;
  let t = o.Sweep.totals in
  Printf.printf "totals: checked %d, cache hits %d, stable %d, exhausted %d, wall %.3fs\n"
    t.Sweep.total_checked t.Sweep.total_cache_hits t.Sweep.total_stable
    t.Sweep.total_exhausted t.Sweep.total_wall

let sweep_cmd =
  let family_arg =
    Arg.(
      value
      & opt (enum [ ("trees", Sweep.Trees); ("connected", Sweep.Connected) ]) Sweep.Trees
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:"Candidate family: $(b,trees) (free trees) or $(b,connected) (all connected \
                graphs up to isomorphism, n <= 8).")
  in
  let sizes_arg =
    Arg.(
      value
      & opt (list int) [ 6 ]
      & info [ "n"; "sizes" ] ~docv:"N,.." ~doc:"Comma-separated sizes to sweep.")
  in
  let concepts_arg =
    Arg.(
      value
      & opt (list string) [ "PS" ]
      & info [ "c"; "concepts" ] ~docv:"C,.."
          ~doc:
            "Comma-separated solution concepts, in the $(b,--game)'s vocabulary (for \
             $(b,generalized): BASE@F names such as BNE@d2).")
  in
  (* Taken as a raw string so bad grids get the one-line exit-2
     diagnostic from Cli_validate instead of cmdliner's usage error. *)
  let alphas_arg =
    Arg.(
      value
      & opt string "1,2,4,8,16,32,64"
      & info [ "alphas" ] ~docv:"A,.."
          ~doc:"Comma-separated alpha grid (each finite and > 0).")
  in
  let budget_opt_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N" ~doc:"Search budget for BNE / k-BSE checkers.")
  in
  (* Raw string for the exit-2 contract, like --alphas. *)
  let shard_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "shard" ] ~docv:"K/M"
          ~doc:
            "Sweep only the $(i,K)-th of $(i,M) contiguous candidate slices (0-based).  \
             Run the $(i,M) shards as independent processes, then combine their --json \
             outputs with $(b,bncg merge) — the merged outcome is bit-identical to an \
             unsharded run.")
  in
  let run family game sizes concepts alphas budget domains shard store json no_wall
      trace heartbeat =
    let game = ok_or_die (Cli_validate.game ~allowed:graph_games game) in
    let alphas = ok_or_die (Cli_validate.alphas alphas) in
    let domains = ok_or_die (Cli_validate.domains domains) in
    let shard = ok_or_die (Cli_validate.shard shard) in
    with_obs trace heartbeat @@ fun () ->
    let o =
      match game with
      | "generalized" ->
          (* The same (size x concept x alpha) grid over the same
             candidate slices, looped through the game-generic cell
             primitive; cells carry the generalized concept names, so
             printing, --json and [bncg merge] all reuse the bilateral
             machinery unchanged. *)
          let gconcepts =
            List.map (fun s -> ok_or_die (Generalized.concept_of_string s)) concepts
          in
          with_store store (fun store ->
              let cells =
                List.concat_map
                  (fun size ->
                    let graphs = Sweep.candidates ?store ?domains ?shard family size in
                    List.concat_map
                      (fun c ->
                        List.map
                          (fun alpha ->
                            let t0 = Unix.gettimeofday () in
                            let worst, cache_hits =
                              Sweep.run_cell_game
                                (module Generalized)
                                ?budget ?domains ?store ~concept:c ~alpha graphs
                            in
                            {
                              Sweep.size;
                              concept = Generalized.concept_name c;
                              alpha;
                              worst;
                              cache_hits;
                              wall = Unix.gettimeofday () -. t0;
                            })
                          alphas)
                      gconcepts)
                  sizes
              in
              { Sweep.cells; totals = Sweep.totals_of_cells cells })
      | _ ->
          let concepts =
            List.map (fun s -> ok_or_die (Concept.of_string s)) concepts
          in
          let spec = { Sweep.family; sizes; concepts; alphas; budget; domains; shard } in
          with_store store (fun store -> Sweep.run ?store spec)
    in
    if json then print_endline (Json.to_string (Sweep.outcome_to_json ~wall:(not no_wall) o))
    else print_outcome_text o
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Exhaustive (size x concept x alpha) PoA sweep, resumable through a certificate \
          store and shardable across processes.")
    Term.(
      const run $ family_arg $ game_arg $ sizes_arg $ concepts_arg $ alphas_arg
      $ budget_opt_arg $ Cli_common.domains_arg $ shard_arg $ store_arg $ json_arg
      $ no_wall_arg $ trace_arg $ heartbeat_arg)

let merge_cmd =
  let files_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SHARD.json"
          ~doc:
            "Per-shard $(b,bncg sweep --shard k/m --json) outputs, in shard order \
             (0/m first).")
  in
  let absorb_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "absorb" ] ~docv:"DIR"
          ~doc:
            "A shard's certificate-store directory; its journals are folded into \
             --store (repeatable, in shard order).  Requires --store.")
  in
  let run files absorb store json no_wall =
    if files = [] && absorb = [] then die "nothing to merge (no shard files, no --absorb)";
    if absorb <> [] && store = None then die "--absorb requires --store";
    with_store store (fun s ->
        Option.iter
          (fun s ->
            List.iter
              (fun src ->
                match Cert_store.absorb s src with
                | n -> Printf.eprintf "bncg: absorbed %d records from %s\n%!" n src
                | exception Invalid_argument msg -> die msg)
              absorb)
          s);
    if files <> [] then begin
      let outcomes =
        List.map
          (fun path ->
            let content =
              try In_channel.with_open_text path In_channel.input_all
              with Sys_error e -> die e
            in
            match Json.of_string content with
            | Error e -> die (Printf.sprintf "cannot parse %s: %s" path e)
            | Ok j -> (
                match Sweep.outcome_of_json j with
                | Error e -> die (Printf.sprintf "%s: %s" path e)
                | Ok o -> o))
          files
      in
      let merged = ok_or_die (Sweep.merge_outcomes outcomes) in
      if json then
        print_endline (Json.to_string (Sweep.outcome_to_json ~wall:(not no_wall) merged))
      else print_outcome_text merged
    end
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Combine the outputs of a sharded sweep: the per-shard --json outcomes merge \
          into the outcome an unsharded run would produce (bit-identical worst cells; \
          byte-identical with --json --no-wall), and per-shard certificate stores fold \
          into a coordinator store with --absorb.")
    Term.(const run $ files_arg $ absorb_arg $ store_arg $ json_arg $ no_wall_arg)

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv) (replaces a stale socket file).")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"Listen on 127.0.0.1:$(docv).")
  in
  let max_inflight_arg =
    Arg.(
      value
      & opt int Serve.default_max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Per-client cap on requests queued or computing; past it a request is \
             refused with a typed $(b,overloaded) error (the connection stays open).")
  in
  let max_queue_arg =
    Arg.(
      value
      & opt int Serve.default_max_queue
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Global queued-computation cap; past it requests from every client are shed \
             with $(b,overloaded) until the queue drains.")
  in
  let client_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "client-budget" ] ~docv:"N"
          ~doc:
            "Per-connection case budget: each request is charged the fresh checker \
             calls it causes (cache hits are free); at 80% the client is warned once \
             on stderr, past 100% requests are refused with $(b,budget_exceeded).")
  in
  let run socket port max_inflight max_queue client_budget domains store trace heartbeat
      =
    let listen = ok_or_die (Cli_validate.listen socket port) in
    let max_inflight = ok_or_die (Cli_validate.max_inflight max_inflight) in
    let max_queue = ok_or_die (Cli_validate.max_queue max_queue) in
    let client_budget = ok_or_die (Cli_validate.client_budget client_budget) in
    let domains = ok_or_die (Cli_validate.domains domains) in
    with_obs trace heartbeat @@ fun () ->
    let listen =
      match listen with
      | Cli_validate.Socket path -> Serve.Unix_socket path
      | Cli_validate.Port port -> Serve.Tcp port
    in
    Serve.run { Serve.listen; domains; store; max_inflight; max_queue; client_budget }
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Equilibrium-oracle daemon: answers check / poa / sweep-cell requests as \
          line-delimited JSON over a Unix or TCP socket, coalescing identical in-flight \
          requests, caching answers (in memory and, with --store, persistently), and \
          shedding load with typed errors.  A request answered here is byte-identical \
          to the same request answered by $(b,bncg check --json) / $(b,bncg poa --json).")
    Term.(
      const run $ socket_arg $ port_arg $ max_inflight_arg $ max_queue_arg
      $ client_budget_arg $ Cli_common.domains_arg $ store_arg $ trace_arg
      $ heartbeat_arg)

let dyn_cmd =
  let tree_arg =
    Arg.(
      value & opt int 10 & info [ "tree" ] ~docv:"N" ~doc:"Random seed tree size.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
  in
  let steps_arg =
    Arg.(value & opt int 1000 & info [ "max-steps" ] ~docv:"K" ~doc:"Step limit.")
  in
  let run alpha concept n seed max_steps =
    let g = Gen.random_tree (Random.State.make [| seed |]) n in
    let out = Dynamics.run ~max_steps ~concept ~alpha g in
    Printf.printf "start: %s (rho %.3f)\n" (Encode.to_graph6 g) (Cost.rho ~alpha g);
    Printf.printf "%s dynamics: %s after %d steps\n" (Concept.name concept)
      (Dynamics.status_to_string out.Dynamics.status)
      out.Dynamics.steps;
    Printf.printf "final: %s (rho %.3f)\n"
      (Encode.to_graph6 out.Dynamics.final)
      (Cost.rho ~alpha out.Dynamics.final)
  in
  Cmd.v
    (Cmd.info "dyn" ~doc:"Run improving-move dynamics from a random tree.")
    Term.(const run $ alpha_arg $ concept_arg $ tree_arg $ seed_arg $ steps_arg)

let dynamics_cmd =
  let policy_arg =
    Arg.(
      value
      & opt (enum [ ("first", `First); ("best", `Best); ("best-social", `Best_social); ("random", `Random) ]) `First
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Move-selection policy: $(b,first) (first improving move in enumeration \
             order), $(b,best) (largest participant gain), $(b,best-social) (best \
             social-cost change), or $(b,random) (uniform over improving moves, \
             seeded by --seed).")
  in
  let engine_arg =
    Arg.(
      value
      & opt (enum [ ("oracle", true); ("scratch", false) ]) true
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Pricing engine: $(b,oracle) (incremental distance oracle, cached \
             addition prices, swap pruning) or $(b,scratch) (fresh BFS per read — the \
             slow reference the oracle engine is bit-identical to).")
  in
  let family_arg =
    Arg.(
      value
      & opt string "random-tree"
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "Start graph family: $(b,random-tree), $(b,path), $(b,star), $(b,cycle), \
             $(b,near-path), $(b,near-clique) or $(b,stretched) (largest 2-stretched \
             binary tree with at most $(b,-n) vertices).  Random families draw from \
             --seed and replay bit-identically across OCaml versions.")
  in
  let n_arg =
    Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc:"Start graph size.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Seed for the start graph and the $(b,random) policy.")
  in
  let steps_arg =
    Arg.(value & opt int 10_000 & info [ "max-steps" ] ~docv:"K" ~doc:"Step limit.")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) candidate evaluations (priced + cache hits) — the \
             deterministic work unit shared by both engines.")
  in
  let run alpha concept policy oracle family n seed max_steps eval_budget json no_wall
      trace heartbeat =
    (match concept with
    | Concept.RE | Concept.BAE | Concept.PS | Concept.BSwE | Concept.BGE -> ()
    | _ -> die (Concept.name concept ^ " is not a local concept; use RE/BAE/PS/BSwE/BGE"));
    if n < 1 then die "-n must be >= 1";
    let seed64 = Int64.of_int seed in
    let g0 =
      let rng = Splitmix.derive seed64 [ 1 ] in
      try
        match family with
        | "random-tree" -> Casegen.tree rng n
        | "path" -> Gen.path n
        | "star" -> Gen.star n
        | "cycle" -> Gen.cycle n
        | "near-path" -> Casegen.near_path rng n
        | "near-clique" -> Casegen.near_clique rng n
        | "stretched" ->
            let d = Stretched.max_depth_for_size ~k:2 ~target:(float_of_int n) in
            (Stretched.binary_tree ~d ~k:2).Stretched.graph
        | f -> die ("unknown family " ^ f)
      with Invalid_argument msg -> die msg
    in
    let policy =
      match policy with
      | `First -> Local_moves.First
      | `Best -> Local_moves.Best_response
      | `Best_social -> Local_moves.Best_social
      | `Random -> Local_moves.Random (Splitmix.derive seed64 [ 2 ])
    in
    with_obs trace heartbeat @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let r =
      Engine.run ~max_steps ?eval_budget ~oracle ~policy ~concept ~alpha g0
    in
    let wall = Unix.gettimeofday () -. t0 in
    let engine_name = if oracle then "oracle" else "scratch" in
    let policy_name =
      match policy with
      | Local_moves.First -> "first"
      | Local_moves.Best_response -> "best"
      | Local_moves.Best_social -> "best-social"
      | Local_moves.Random _ -> "random"
    in
    if json then begin
      let side g =
        Json.Obj
          [
            ("graph6", Json.String (Encode.to_graph6 g));
            ("rho", Json.number (Cost.rho ~alpha g));
          ]
      in
      let fields =
        [
          ("concept", Json.String (Concept.name concept));
          ("alpha", Json.number alpha);
          ("policy", Json.String policy_name);
          ("engine", Json.String engine_name);
          ("family", Json.String family);
          ("n", Json.Int (Graph.n g0));
          ("seed", Json.Int seed);
          ("max_steps", Json.Int max_steps);
        ]
        @ (match eval_budget with
          | None -> []
          | Some b -> [ ("budget", Json.Int b) ])
        @ [
            ("start", side g0);
            ("status", Json.String (Dynamics.status_to_string r.Engine.status));
            ("steps", Json.Int r.Engine.steps);
            ( "moves",
              Json.List
                (List.map (fun m -> Json.String (Move.to_string m)) r.Engine.moves) );
            ("priced", Json.Int r.Engine.priced);
            ("cache_hits", Json.Int r.Engine.cache_hits);
            ("evals", Json.Int (Engine.evals r));
            ("collisions", Json.Int r.Engine.collisions);
            ("scratch_rows", Json.Int r.Engine.scratch_rows);
            ("final", side r.Engine.final);
          ]
        @ if no_wall then [] else [ ("wall_s", Json.number wall) ]
      in
      print_endline (Json.to_string (Json.Obj fields))
    end
    else begin
      Printf.printf "start: %s (n=%d, rho %.3f)\n" (Encode.to_graph6 g0) (Graph.n g0)
        (Cost.rho ~alpha g0);
      Printf.printf "%s dynamics, %s policy, %s engine: %s after %d steps\n"
        (Concept.name concept) policy_name engine_name
        (Dynamics.status_to_string r.Engine.status)
        r.Engine.steps;
      Printf.printf "evals: %d (%d priced, %d cache hits), %d BFS rows, %d collisions\n"
        (Engine.evals r) r.Engine.priced r.Engine.cache_hits r.Engine.scratch_rows
        r.Engine.collisions;
      Printf.printf "final: %s (rho %.3f)\n"
        (Encode.to_graph6 r.Engine.final)
        (Cost.rho ~alpha r.Engine.final);
      if not no_wall then Printf.printf "wall: %.3fs\n" wall
    end
  in
  Cmd.v
    (Cmd.info "dynamics"
       ~doc:
         "High-throughput improvement dynamics: step a start graph to equilibrium \
          under a move-selection policy, pricing candidates through the incremental \
          distance oracle (or the scratch reference — both produce bit-identical \
          traces).")
    Term.(
      const run $ alpha_arg $ concept_arg $ policy_arg $ engine_arg $ family_arg $ n_arg
      $ seed_arg $ steps_arg $ budget_arg $ json_arg $ no_wall_arg $ trace_arg
      $ heartbeat_arg)

let enum_cmd =
  let n_arg = Arg.(value & opt int 8 & info [ "n" ] ~docv:"N" ~doc:"Size.") in
  let run n =
    let trees = ref 0 in
    Enumerate.iter_free_trees n (fun _ -> incr trees);
    Printf.printf "free trees on %d vertices: %d\n" n !trees;
    if n <= 8 then begin
      let classes = ref 0 in
      Enumerate.iter_orderly_connected n (fun _ -> incr classes);
      Printf.printf "connected graphs up to isomorphism: %d\n" !classes
    end
  in
  Cmd.v (Cmd.info "enum" ~doc:"Enumeration counts.") Term.(const run $ n_arg)

let gallery_cmd =
  let run () =
    List.iter
      (fun (c : Counterexamples.case) ->
        Printf.printf "%-18s n=%-4d alpha=%-8g %s\n" c.Counterexamples.name
          (Graph.n c.Counterexamples.graph) c.Counterexamples.alpha
          (String.concat ", "
             (List.map Concept.name c.Counterexamples.stable
             @ List.map
                 (fun (cc, _) -> "not " ^ Concept.name cc)
                 c.Counterexamples.unstable)))
      [
        Counterexamples.figure5; Counterexamples.figure6; Counterexamples.figure7 ~k:2;
        Counterexamples.figure8_equivalent;
      ]
  in
  Cmd.v
    (Cmd.info "gallery" ~doc:"Summary of the paper's counterexamples.")
    Term.(const run $ const ())

let render_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write DOT to $(docv) instead of stdout.")
  in
  let run g6 out =
    let g = Encode.of_graph6 g6 in
    let dot = Dot.to_dot g in
    match out with None -> print_string dot | Some path -> Dot.write_file path dot
  in
  Cmd.v
    (Cmd.info "render" ~doc:"Render a graph6 graph as Graphviz DOT.")
    Term.(const run $ graph_arg $ out_arg)

let profile_cmd =
  let lo_arg = Arg.(value & opt float 0.5 & info [ "lo" ] ~docv:"A" ~doc:"Grid start.") in
  let hi_arg = Arg.(value & opt float 20. & info [ "hi" ] ~docv:"B" ~doc:"Grid end.") in
  let steps_arg = Arg.(value & opt int 40 & info [ "steps" ] ~docv:"K" ~doc:"Grid points.") in
  let run concept g6 lo hi steps budget =
    let g = Encode.of_graph6 g6 in
    let grid =
      List.init steps (fun i ->
          lo +. ((hi -. lo) *. float_of_int i /. float_of_int (max 1 (steps - 1))))
    in
    let p = Alpha_profile.scan ~budget ~concept ~grid g in
    Format.printf "%s stability of %s over [%g, %g]: %a@." (Concept.name concept) g6 lo hi
      Alpha_profile.pp p
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Stability window(s) of a graph across alpha.")
    Term.(const run $ concept_arg $ graph_arg $ lo_arg $ hi_arg $ steps_arg $ budget_arg)

let fuzz_cmd =
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Campaign seed; equal seeds replay bit-identically.")
  in
  let budget_fuzz_arg =
    Arg.(
      value
      & opt int Fuzz.default_budget
      & info [ "budget" ] ~docv:"N" ~doc:"Cases per concept (not a time budget).")
  in
  (* Raw names resolved after --game is known: each game has its own
     concept vocabulary, and a wrong-game name must die with the
     one-line diagnostic naming that game's valid spellings. *)
  let concepts_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "c"; "concepts" ] ~docv:"C,.."
          ~doc:
            "Comma-separated solution concepts in the $(b,--game)'s vocabulary \
             (default: the game's full fuzz vocabulary).")
  in
  let sizes_arg =
    Arg.(
      value
      & opt (list int) Fuzz.default_sizes
      & info [ "n"; "sizes" ] ~docv:"N,.."
          ~doc:
            "Comma-separated instance sizes (clamped per concept to the oracle's \
             tractable range).")
  in
  let seconds_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "seconds" ] ~docv:"S"
          ~doc:
            "Optional wall-clock deadline.  Truncates the campaign, so output is only \
             deterministic without it (or when the budget finishes first).")
  in
  let oracle_cases_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "oracle-cases" ] ~docv:"N"
          ~doc:
            "Flip-sequence cases for the incremental-distance differential (default: \
             the campaign budget; 0 disables it).")
  in
  let game_arg =
    Arg.(
      value
      & opt string "bilateral"
      & info [ "game" ] ~docv:"G"
          ~doc:
            "Game instance to fuzz: $(b,bilateral) (default), $(b,unilateral) or \
             $(b,generalized) (distance-cost functions; concepts are BASE@F names \
             like BNE@d2).")
  in
  let run seed budget concepts sizes seconds domains oracle_cases game json trace
      heartbeat =
    let domains = ok_or_die (Cli_validate.domains domains) in
    let game = ok_or_die (Cli_validate.game game) in
    with_obs trace heartbeat @@ fun () ->
    let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) seconds in
    let seed64 = Int64.of_int seed in
    (* The concept campaign is per game; the dist-oracle differential is
       game-independent and runs either way.  [to_json]/[pp]/[failed]
       close over the instantiated engine so all branches print through
       one code path — the bilateral branch stays byte-identical to the
       pre---game output.  [--concepts] names resolve against the active
       game's vocabulary (absent means the game's full fuzz set). *)
    let resolve parse = Option.map (List.map (fun s -> ok_or_die (parse s))) concepts in
    let to_json, pp, concept_failures =
      if String.equal game "unilateral" then begin
        let concepts = resolve Unilateral_game.concept_of_string in
        let o =
          Fuzz.run_unilateral ?domains ?deadline ~sizes ?concepts ~seed:seed64 ~budget ()
        in
        ( (fun () -> Fuzz.Ufuzz.outcome_to_json o),
          (fun ppf () -> Fuzz.Ufuzz.pp_outcome ppf o),
          Fuzz.Ufuzz.total_failures o )
      end
      else if String.equal game "generalized" then begin
        let concepts = resolve Generalized.concept_of_string in
        let o =
          Fuzz.run_generalized ?domains ?deadline ~sizes ?concepts ~seed:seed64 ~budget ()
        in
        ( (fun () -> Fuzz.Gfuzz.outcome_to_json o),
          (fun ppf () -> Fuzz.Gfuzz.pp_outcome ppf o),
          Fuzz.Gfuzz.total_failures o )
      end
      else begin
        let concepts = resolve Concept.of_string in
        let o = Fuzz.run ?domains ?deadline ~sizes ?concepts ~seed:seed64 ~budget () in
        ( (fun () -> Fuzz.outcome_to_json o),
          (fun ppf () -> Fuzz.pp_outcome ppf o),
          Fuzz.total_failures o )
      end
    in
    let od =
      match Option.value oracle_cases ~default:budget with
      | 0 -> None
      | n -> Some (Fuzz.run_oracle ?domains ?deadline ~seed:seed64 ~budget:n ())
    in
    if json then
      print_endline
        (Json.to_string
           (match od with
           | None -> to_json ()
           | Some od ->
               Json.Obj
                 [
                   ("concepts", to_json ());
                   ("dist_oracle", Fuzz.oracle_outcome_to_json od);
                 ]))
    else begin
      Format.printf "%a@." pp ();
      Option.iter (Format.printf "%a@." Fuzz.pp_oracle_outcome) od
    end;
    let oracle_failed = match od with None -> 0 | Some od -> od.Fuzz.ofailed in
    if concept_failures > 0 || oracle_failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random (graph, concept, alpha) cases checked against the \
          naive definition-literal oracle, with metamorphic relabelling checks; failures \
          are shrunk to minimal repros.  Also replays random edge-flip sequences through \
          the incremental distance oracle against fresh BFS.")
    Term.(
      const run $ seed_arg $ budget_fuzz_arg $ concepts_arg $ sizes_arg $ seconds_arg
      $ Cli_common.domains_arg $ oracle_cases_arg $ game_arg $ json_arg $ trace_arg
      $ heartbeat_arg)

let perf_cmd =
  (* [some string], not [some file]: a missing baseline must take the
     one-line exit-2 path below, not cmdliner's usage error. *)
  let check_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "check" ] ~docv:"BASELINE.json"
          ~doc:
            "Compare against a committed baseline (the bench/results.json format) and \
             exit non-zero if any benchmark regressed beyond the tolerance.")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            (Printf.sprintf "Run only the %d-benchmark CI subset instead of the suite."
               (List.length Benchkit.smoke_names)))
  in
  let only_arg =
    Arg.(
      value
      & opt (some (list ~sep:',' string)) None
      & info [ "only" ] ~docv:"NAME,.." ~doc:"Run only the named benchmarks.")
  in
  let quota_arg =
    Arg.(
      value & opt float 0.25
      & info [ "quota" ] ~docv:"S" ~doc:"Measurement seconds per benchmark.")
  in
  let tolerance_arg =
    Arg.(
      value & opt float 0.25
      & info [ "tolerance" ] ~docv:"F"
          ~doc:"Allowed slowdown fraction before --check fails (default 0.25 = 25%).")
  in
  let run check smoke only quota tolerance json trace heartbeat =
    (* Read and validate the baseline before the (slow) measurement, so
       a malformed file fails in milliseconds. *)
    let baseline =
      Option.map
        (fun path ->
          let content =
            try In_channel.with_open_text path In_channel.input_all
            with Sys_error e -> die e
          in
          match Json.of_string content with
          | Error e -> die (Printf.sprintf "cannot parse baseline %s: %s" path e)
          | Ok baseline -> (
              match Benchkit.validate_baseline baseline with
              | Error e -> die (Printf.sprintf "bad baseline %s: %s" path e)
              | Ok () -> (path, baseline)))
        check
    in
    with_obs trace heartbeat @@ fun () ->
    let only = if smoke then Some Benchkit.smoke_names else only in
    let results = Benchkit.run ~quota ?only () in
    if json then print_endline (Json.to_string (Benchkit.results_to_json results))
    else Benchkit.print_table results;
    match baseline with
    | None -> ()
    | Some (path, baseline) -> (
        match Benchkit.check_against ~baseline ~tolerance results with
        | [] ->
            Printf.printf "no regression beyond %.0f%% against %s\n" (tolerance *. 100.)
              path
        | regs ->
            List.iter
              (fun (r : Benchkit.regression) ->
                Printf.printf "REGRESSION %s: %.0f ns -> %.0f ns (%.2fx)\n"
                  r.Benchkit.bench r.Benchkit.baseline_ns r.Benchkit.fresh_ns
                  r.Benchkit.ratio)
              regs;
            exit 1)
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:
         "Microbenchmarks of the hot kernels (warmed up, trimmed-mean fitted), \
          optionally gated against a committed baseline.")
    Term.(
      const run $ check_arg $ smoke_arg $ only_arg $ quota_arg $ tolerance_arg $ json_arg
      $ trace_arg $ heartbeat_arg)

let trace_cmd =
  let src_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE.jsonl" ~doc:"A JSONL trace written by --trace.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write Chrome trace_event JSON to $(docv) — load it at \
             $(b,https://ui.perfetto.dev) or $(b,chrome://tracing).  Without $(docv) the \
             trace is only validated.")
  in
  let run src out =
    match Obs.export_chrome ~src ~dst:out with
    | Error e -> die e
    | Ok n -> (
        match out with
        | Some dst -> Printf.printf "%s: %d events -> %s\n" src n dst
        | None -> Printf.printf "%s: valid trace, %d events\n" src n)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Validate a JSONL telemetry trace (every line must parse) and optionally \
          convert it to Chrome trace_event format for Perfetto / about://tracing.")
    Term.(const run $ src_arg $ out_arg)

let welfare_cmd =
  let run alpha g6 =
    let g = Encode.of_graph6 g6 in
    Format.printf "%a@." Welfare.pp (Welfare.analyze ~alpha g)
  in
  Cmd.v
    (Cmd.info "welfare" ~doc:"Cost distribution statistics of a graph.")
    Term.(const run $ alpha_arg $ graph_arg)

let () =
  Cli_common.init_signals ();
  let info =
    Cmd.info "bncg" ~version:"1.0.0"
      ~doc:"Bilateral Network Creation Game toolbox (PODC 2023 reproduction)."
  in
  let group =
    Cmd.group info
      [
        check_cmd; rho_cmd; poa_cmd; sweep_cmd; merge_cmd; serve_cmd; dyn_cmd;
        dynamics_cmd; enum_cmd;
        gallery_cmd; render_cmd; profile_cmd; welfare_cmd; fuzz_cmd; perf_cmd; trace_cmd;
      ]
  in
  (* catch:false so a closed-pipe failure reaches exit_on_broken_pipe
     (exit 0, the Unix text-tool convention) instead of cmdliner's
     generic handler; everything else keeps cmdliner's behaviour of
     reporting the exception and exiting 125. *)
  exit
    (Cli_common.exit_on_broken_pipe (fun () ->
         try Cmd.eval ~catch:false group
         with e when not (Cli_common.is_broken_pipe e) ->
           Printf.eprintf "bncg: internal error, uncaught exception:\n%s\n%s%!"
             (Printexc.to_string e) (Printexc.get_backtrace ());
           125))
