(* The dynamics workload: first-improvement dynamics under pairwise
   stability at alpha = 2 from a random tree on 1024 vertices, cut at
   60,000 candidate evaluations.  It is the only workload above n = 63,
   where distance rows come from Dist_oracle and Paths BFS rather than
   the one-word Bitgraph path, and it runs on a single domain.  The seed
   picks the start tree.

   Besides the run itself, every pass prices the agents of the final
   graph from scratch ([Cost.agent_cost], one BFS per agent — a cold
   query) and from a Dist_oracle whose rows are current
   ([Cost.agent_cost_oracle]; a warm query prices every agent).  The
   two must agree. *)

let n = 1024
let alpha = 2.
let eval_budget = 60_000

let warm_reps = 1024
let warm_batch = 8
let warm_runs = 3

(* The start tree of [bncg dynamics --family random-tree --seed SEED]. *)
let start_graph seed = Casegen.tree (Splitmix.derive (Int64.of_int seed) [ 1 ]) n
let md5 s = Digest.to_hex (Digest.string s)
let elapsed_ns a = Int64.to_float (Int64.sub (Util.now_ns ()) a)

let run g =
  Engine.run ~eval_budget ~policy:Local_moves.First ~concept:Concept.PS ~alpha g

let digests (r : Engine.result) =
  ( md5 (Encode.to_graph6 r.Engine.final),
    md5 (Json.to_string (Json.List (List.map Move.to_json r.Engine.moves))) )

(* [child-dyn SEED [TRACE_DIR]] *)
let child args =
  let seed, tdir =
    match args with
    | [ s ] -> (int_of_string s, None)
    | [ s; d ] -> (int_of_string s, Some d)
    | _ -> Util.die "usage: child-dyn SEED [TRACE_DIR]"
  in
  let g = start_graph seed in
  Util.ready ();
  let t0 = Util.now_s () in
  let fields =
    Spans.span "run" @@ fun () ->
    Option.iter (fun d -> Obs.start ~trace:(Filename.concat d "obs.jsonl") ~echo:false ()) tdir;
    let r, wall = Util.time (fun () -> Spans.span "engine.run" (fun () -> run g)) in
    Obs.stop ();
    let replayed, improving =
      Spans.span "verify.replay" (fun () ->
          List.fold_left
            (fun (h, ok) m -> (Move.apply h m, ok && Move.is_improving ~alpha h m))
            (g, true) r.Engine.moves)
    in
    let final_md5, moves_md5 = Spans.span "encode" (fun () -> digests r) in
    let replay_ok =
      improving
      && (r.Engine.status = Dynamics.Cycled
         || Spans.span "encode" (fun () -> md5 (Encode.to_graph6 replayed)) = final_md5)
    in
    let time_each f =
      Array.init n (fun u ->
          let a = Util.now_ns () in
          let c = f u in
          (c, Int64.to_float (Int64.sub (Util.now_ns ()) a)))
    in
    let final = r.Engine.final in
    let cold = Spans.span "paths.query" (fun () -> time_each (Cost.agent_cost ~alpha final)) in
    let o = Dist_oracle.create final in
    Spans.span "dist_oracle.fill" (fun () ->
        for u = 0 to n - 1 do
          ignore (Dist_oracle.row o u)
        done);
    let warm = Spans.span "dist_oracle.query" (fun () -> time_each (Cost.agent_cost_oracle ~alpha o)) in
    let agree = Array.for_all2 (fun (a, _) (b, _) -> Cost.compare_agent a b = 0) cold warm in
    (* One warm read takes nanoseconds, too close to the clock's own cost
       to time alone, and one pricing of all agents a few microseconds,
       short enough for a single interrupt to double it: a batch prices
       all agents [warm_batch] times and is reported per pricing, and a
       warm sample is the median of [warm_runs] batches, so an interrupt
       that lands on one batch does not make the sample. *)
    let batch () =
      let a = Util.now_ns () in
      for _ = 1 to warm_batch do
        for u = 0 to n - 1 do
          ignore (Cost.agent_cost_oracle ~alpha o u)
        done
      done;
      elapsed_ns a /. float_of_int warm_batch
    in
    let warm_sweeps =
      Spans.span "dist_oracle.query" (fun () ->
          List.init warm_reps (fun _ -> Util.median (List.init warm_runs (fun _ -> batch ()))))
    in
    let ns a = Array.to_list (Array.map snd a) in
    let bfs_ns =
      match tdir with
      | Some _ -> Spans.span "paths.bfs" (fun () -> Layers.bfs_ns_per_row [ g; final ])
      | None -> 0.
    in
    [
      ("wall_s", Json.Float wall);
      ("status", Json.String (Dynamics.status_to_string r.Engine.status));
      ("steps", Json.Int r.Engine.steps); ("evals", Json.Int (Engine.evals r));
      ("priced", Json.Int r.Engine.priced); ("cache_hits", Json.Int r.Engine.cache_hits);
      ("scratch_rows", Json.Int r.Engine.scratch_rows); ("final_md5", Json.String final_md5);
      ("moves_md5", Json.String moves_md5); ("replay_ok", Json.Bool replay_ok);
      ("agree", Json.Bool agree);
      ("cold_p50_ns", Json.Float (Util.quantile 0.5 (ns cold)));
      ("cold_p90_ns", Json.Float (Util.quantile 0.9 (ns cold)));
      ("warm_p99_ns", Json.Float (Util.quantile 0.99 warm_sweeps));
      ("bfs_ns_per_row", Json.Float bfs_ns);
    ]
  in
  let total = Util.now_s () -. t0 in
  Option.iter (fun d -> Spans.write (Filename.concat d "spans.jsonl")) tdir;
  print_endline
    (Json.to_string
       (Json.Obj
          (fields
          @ [
              ("total_s", Json.Float total); ("peak_rss_mb", Json.Float (Util.peak_rss_mb "self"));
            ])))

(* ------------------------------------------------------------------ *)
(* Pins: per seed, the run's status, steps and digests of the final    *)
(* graph and of the move list                                          *)
(* ------------------------------------------------------------------ *)

let pins_path = "perfbench/pins/dynamics.json"

let pin_entry (r : Engine.result) =
  let final_md5, moves_md5 = digests r in
  Json.Obj
    [
      ("status", Json.String (Dynamics.status_to_string r.Engine.status));
      ("steps", Json.Int r.Engine.steps); ("final_md5", Json.String final_md5);
      ("moves_md5", Json.String moves_md5);
    ]

let pin seeds =
  let entries =
    List.map
      (fun seed ->
        Util.log "pinning dynamics seed %d" seed;
        (string_of_int seed, pin_entry (run (start_graph seed))))
      seeds
  in
  Util.write_file pins_path
    (Json.to_string
       (Json.Obj
          [
            ("n", Json.Int n); ("alpha", Json.Float alpha); ("eval_budget", Json.Int eval_budget);
            ("seeds", Json.Obj entries);
          ])
    ^ "\n")

let pinned seed =
  match Json.of_string (Util.read_file pins_path) with
  | Ok j -> Option.bind (Json.member "seeds" j) (Json.member (string_of_int seed))
  | Error e -> Util.die "cannot read %s: %s" pins_path e

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let workload ~seed ~seconds ~trace =
  let t = Util.tally () in
  let tdir = Filename.concat Util.work_dir "dynamics-1024" in
  let pin = pinned seed in
  if pin = None then Util.log "seed %d has no pinned dynamics result; checking by replay only" seed;
  let first = ref None in
  let pass ~traced =
    let t0 = Util.now_s () in
    if traced then Util.fresh_dir tdir;
    let c = Util.spawn ([ "child-dyn"; string_of_int seed ] @ if traced then [ tdir ] else []) in
    Util.await_ready c;
    let setup = Util.now_s () -. t0 in
    let r = Util.report c in
    t.attempted <- t.attempted + 1;
    let entry =
      Json.to_string
        (Json.Obj
           [
             ("status", Json.String (Util.str "status" r)); ("steps", Json.Int (Util.int "steps" r));
             ("final_md5", Json.String (Util.str "final_md5" r));
             ("moves_md5", Json.String (Util.str "moves_md5" r));
           ])
    in
    let ok =
      List.for_all Fun.id
        [
          Util.field "replay_ok" r = Json.Bool true;
          Util.field "agree" r = Json.Bool true;
          Option.fold ~none:true ~some:(fun p -> Json.to_string p = entry) pin;
          Option.fold ~none:true ~some:(String.equal entry) !first;
        ]
    in
    if !first = None then first := Some entry;
    if not ok then t.failed <- t.failed + 1;
    Util.expect t (Printf.sprintf "dynamics seed %d: %s" seed entry) ok;
    (setup, r)
  in
  if not trace then begin
    let runs = Util.repeat_for seconds (fun () -> pass ~traced:false) in
    let per f = List.map (fun (_, r) -> f r) runs in
    let med name scale = Util.median (per (fun r -> scale *. Util.num name r)) in
    let metrics =
      [
        ("setup_s", Util.median (List.map fst runs)); ("wall_s", med "wall_s" 1.);
        ("peak_rss_mb", med "peak_rss_mb" 1.);
        ("warm_p99_us", med "warm_p99_ns" 1e-3); ("cold_p50_ms", med "cold_p50_ns" 1e-6);
        ("cold_p90_ms", med "cold_p90_ns" 1e-6);
        ( "max_qps",
          Util.median (per (fun r -> float_of_int (Util.int "evals" r) /. Util.num "wall_s" r)) );
      ]
    in
    let detail =
      Json.Obj
        [
          ("passes", Json.Int (List.length runs)); ("pinned", Json.Bool (pin <> None));
          ("setups", Util.floats (List.map fst runs)); ("walls", Util.floats (per (Util.num "wall_s")));
        ]
    in
    (t, Layers.emit Layers.end_to_end metrics, detail)
  end
  else begin
    let cycle () =
      let _, untraced = pass ~traced:false in
      let _, r = pass ~traced:true in
      let s =
        Summarize.of_files ~obs:(Filename.concat tdir "obs.jsonl") (Filename.concat tdir "spans.jsonl")
      in
      Summarize.print stderr s;
      Util.expect t "layers cover all but 5% of the traced wall time" (Summarize.attributed s);
      let i name = float_of_int (Util.int name r) in
      let ns = Util.num "bfs_ns_per_row" r and wall = Util.num "wall_s" r in
      let values =
        [
          ("engine.evals", i "evals"); ("engine.priced", i "priced");
          ("engine.cache_hit_ratio", Util.ratio (i "cache_hits") (i "evals"));
          ("engine.steps", i "steps"); ("paths.bfs_ns_per_row", ns);
          ( "paths.bfs_share",
            float_of_int (Summarize.counter s "dist_oracle.scratch") *. ns *. 1e-9 /. wall );
          ("trace.overhead_frac", (wall /. Util.num "wall_s" untraced) -. 1.);
          ("trace.unattributed_frac", Summarize.unattributed_frac s);
        ]
        @ Layers.oracle_counters s
      in
      (values, Summarize.to_json s)
    in
    let cycles = Util.repeat_for seconds cycle in
    let detail =
      Json.Obj
        [
          ("cycles", Json.Int (List.length cycles)); ("pinned", Json.Bool (pin <> None));
          ("summaries", Json.List (List.map snd cycles));
        ]
    in
    (t, Layers.emit Layers.per_layer (Layers.medians (List.map fst cycles)), detail)
  end
