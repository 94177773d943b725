(* The sweep-cold workload: the exhaustive certification path behind the
   paper's Table 1, against an empty certificate store.

   Spec: all free trees on 13 vertices and all connected graphs on 7
   vertices for {RE, BAE, PS, BSwE, BGE, BNE, 2-BSE}, plus the
   generalized game's {PS@d2, BNE@d2} on the connected graphs, over
   alpha in {1, 2, 4, ..., 64}: 112 cells, 117,488 decisions.  The seed
   permutes the concept and alpha orders the program is given; the set
   of cells, and so every pinned value, is the same under any order. *)

let alphas = [ 1.; 2.; 4.; 8.; 16.; 32.; 64. ]
let bilateral = Concept.[ RE; BAE; PS; BSwE; BGE; BNE; KBSE 2 ]

let generalized =
  List.map
    (fun s -> match Generalized.concept_of_string s with Ok c -> c | Error e -> Util.die "%s" e)
    [ "PS@d2"; "BNE@d2" ]

type game = Bilateral_game | Generalized_game
type part = { family : Sweep.family; n : int; game : game }

let parts =
  [
    { family = Sweep.Trees; n = 13; game = Bilateral_game };
    { family = Sweep.Connected; n = 7; game = Bilateral_game };
    { family = Sweep.Connected; n = 7; game = Generalized_game };
  ]

type spec = { concepts : Concept.t list; gconcepts : Generalized.concept list; order : float list }

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let spec_of_seed seed =
  let st = Random.State.make [| seed |] in
  let concepts = shuffle st bilateral in
  let gconcepts = shuffle st generalized in
  { concepts; gconcepts; order = shuffle st alphas }

let cell_key (c : Sweep.cell) =
  Printf.sprintf "%d|%s|%s" c.Sweep.size c.Sweep.concept (Json.float_repr c.Sweep.alpha)

(* ------------------------------------------------------------------ *)
(* The untraced path: the library's entry points, called as            *)
(* [bncg sweep] calls them                                             *)
(* ------------------------------------------------------------------ *)

let run_spec ~domains ~store spec =
  let cells =
    List.concat_map
      (fun p ->
        match p.game with
        | Bilateral_game ->
            (Sweep.run ~store
               {
                 Sweep.family = p.family;
                 sizes = [ p.n ];
                 concepts = spec.concepts;
                 alphas = spec.order;
                 budget = None;
                 domains = Some domains;
                 shard = None;
               })
              .Sweep.cells
        | Generalized_game ->
            let graphs = Sweep.candidates ~store ~domains p.family p.n in
            List.concat_map
              (fun c ->
                List.map
                  (fun alpha ->
                    let (worst, cache_hits), wall =
                      Util.time (fun () ->
                          Sweep.run_cell_game
                            (module Generalized)
                            ~domains ~store ~concept:c ~alpha graphs)
                    in
                    { Sweep.size = p.n; concept = Generalized.concept_name c; alpha; worst; cache_hits; wall })
                  spec.order)
              spec.gconcepts)
      parts
  in
  { Sweep.cells; totals = Sweep.totals_of_cells cells }

(* ------------------------------------------------------------------ *)
(* The traced replay: [Sweep.run_cell_game]'s store path re-enacted    *)
(* through the public functions it calls, with a span around each      *)
(* layer.  It must produce byte-identical cells.                       *)
(* ------------------------------------------------------------------ *)

type counts = {
  mutable enumerated : int;
  mutable canon_lookups : int;
  mutable canon_hits : int;
  mutable canon_computed : int;
  mutable finds : int;
  mutable hits : int;
  mutable check_calls : int;
  mutable exhausted : int;
}

let counts () =
  {
    enumerated = 0; canon_lookups = 0; canon_hits = 0; canon_computed = 0; finds = 0; hits = 0;
    check_calls = 0; exhausted = 0;
  }

(* Metric names admit no '@'. *)
let layer_name concept = String.map (function '@' -> '_' | c -> c) concept

let replay_cell (type s c) (module G : Game_sig.GAME with type state = s and type concept = c)
    ~domains ~store ~(k : counts) ~concept ~alpha (states : s list) =
  let garr = Array.of_list states in
  let graphs = List.map G.graph states in
  let cname = G.concept_name concept in
  let memo =
    Spans.span "canon" (fun () -> Array.of_list (List.map (Cert_store.find_canon store) graphs))
  in
  let missing = List.filteri (fun i _ -> memo.(i) = None) graphs in
  let computed =
    Spans.span "canon" (fun () -> Parallel.map ~domains Encode.canonical_graph6 missing)
  in
  Spans.span "cert_store.record" (fun () ->
      List.iter2 (fun g g6 -> Cert_store.record_canon store g g6) missing computed);
  let n = Array.length memo and n_missing = List.length missing in
  k.canon_lookups <- k.canon_lookups + n;
  k.canon_hits <- k.canon_hits + n - n_missing;
  k.canon_computed <- k.canon_computed + n_missing;
  let rem = ref computed in
  let g6s =
    Array.map
      (function
        | Some g6 -> g6
        | None ->
            let g6 = List.hd !rem in
            rem := List.tl !rem;
            g6)
      memo
  in
  let keys, found =
    Spans.span "cert_store.lookup" (fun () ->
        let keys =
          Array.map
            (fun canon_g6 ->
              Cert_store.cert_key ~game:G.name ~concept:cname ~alpha ~budget:None ~canon_g6 ())
            g6s
        in
        (keys, Array.map (fun key -> Cert_store.find store ~key) keys))
  in
  let miss_idx = List.filter (fun i -> found.(i) = None) (List.init n Fun.id) in
  let hits = n - List.length miss_idx in
  k.finds <- k.finds + n;
  k.hits <- k.hits + hits;
  let t0 = Util.now_ns () in
  let fresh =
    Parallel.map ~domains
      (fun i ->
        let x = garr.(i) in
        let a = Util.now_ns () in
        let verdict = G.check ~alpha concept x in
        let b = Util.now_ns () in
        let rho = G.rho ~alpha concept x in
        ({ Cert_store.verdict; rho }, Int64.sub b a, Int64.sub (Util.now_ns ()) b))
      miss_idx
  in
  let t1 = Util.now_ns () in
  let busy f = List.fold_left (fun s x -> s +. Int64.to_float (f x)) 0. fresh in
  Spans.split ~t0 ~t1
    [ ("check." ^ layer_name cname, busy (fun (_, c, _) -> c)); ("rho", busy (fun (_, _, r) -> r)) ];
  k.check_calls <- k.check_calls + List.length miss_idx;
  List.iter
    (fun ((e : Cert_store.entry), _, _) ->
      match e.Cert_store.verdict with
      | Verdict.Exhausted _ -> k.exhausted <- k.exhausted + 1
      | _ -> ())
    fresh;
  Spans.span "cert_store.record" (fun () ->
      List.iter2
        (fun i (entry, _, _) ->
          Cert_store.record ~game:G.name store ~key:keys.(i) ~canon_g6:g6s.(i) ~concept:cname
            ~alpha ~budget:None entry;
          found.(i) <- Some entry)
        miss_idx fresh);
  let worst =
    Spans.span "sweep.fold" (fun () ->
        let acc = ref Sweep.empty in
        Array.iteri
          (fun i entry ->
            let (e : Cert_store.entry) = Option.get entry in
            let a = { !acc with Sweep.checked = !acc.Sweep.checked + 1 } in
            acc :=
              match e.Cert_store.verdict with
              | Verdict.Stable ->
                  let a = { a with Sweep.stable_count = a.Sweep.stable_count + 1 } in
                  if e.Cert_store.rho > a.Sweep.rho then
                    { a with Sweep.rho = e.Cert_store.rho; witness = Some (G.graph garr.(i)) }
                  else a
              | Verdict.Unstable _ -> a
              | Verdict.Exhausted _ -> { a with Sweep.exhausted = a.Sweep.exhausted + 1 })
          found;
        !acc)
  in
  (worst, hits)

let replay_spec ~domains ~store ~k spec =
  let enumerated = Obs.counter "sweep.shard.candidates" in
  let cells =
    List.concat_map
      (fun p ->
        let before = Obs.value enumerated in
        let graphs =
          Spans.span "enumerate" (fun () -> Sweep.candidates ~store ~domains p.family p.n)
        in
        k.enumerated <- k.enumerated + Obs.value enumerated - before;
        let cell (type c) (module G : Game_sig.GAME with type state = Graph.t and type concept = c)
            (concept : c) alpha =
          let worst, cache_hits = replay_cell (module G) ~domains ~store ~k ~concept ~alpha graphs in
          { Sweep.size = p.n; concept = G.concept_name concept; alpha; worst; cache_hits; wall = 0. }
        in
        match p.game with
        | Bilateral_game ->
            List.concat_map (fun c -> List.map (cell (module Bilateral) c) spec.order) spec.concepts
        | Generalized_game ->
            List.concat_map
              (fun c -> List.map (cell (module Generalized) c) spec.order)
              spec.gconcepts)
      parts
  in
  { Sweep.cells; totals = Sweep.totals_of_cells cells }

(* ------------------------------------------------------------------ *)
(* Child process: one pass of the spec in a fresh process              *)
(* ------------------------------------------------------------------ *)

(* How many times a pass asks every cell again.  A cell's warm sample is
   the median of its re-asks, so an interrupt or a collection slice that
   lands on one of them does not make that cell's latency. *)
let reasks = 5

let outcome_string o = Json.to_string (Sweep.outcome_to_json ~wall:false o)
let walls o = Util.floats (List.map (fun c -> c.Sweep.wall) o.Sweep.cells)

(* [child-sweep SEED DOMAINS STORE [REPLAY_STORE TRACE_DIR]].
   Without the last two arguments: one pass on the empty STORE, then
   every cell asked [reasks] more times of the still-open store.  With
   them: one pass with Obs tracing on STORE, then the span-traced replay
   on the empty REPLAY_STORE, then a second replay that reads back the
   store the first one filled, writing spans and the Obs trace to
   TRACE_DIR.  The wall time of a pass includes opening the store. *)
let child args =
  let seed, domains, dir, traced =
    match args with
    | [ seed; domains; dir ] -> (seed, domains, dir, None)
    | [ seed; domains; dir; rdir; tdir ] -> (seed, domains, dir, Some (rdir, tdir))
    | _ -> Util.die "usage: child-sweep SEED DOMAINS STORE [REPLAY_STORE TRACE_DIR]"
  in
  let spec = spec_of_seed (int_of_string seed) and domains = int_of_string domains in
  Util.ready ();
  let report fields =
    print_endline
      (Json.to_string
         (Json.Obj (fields @ [ ("peak_rss_mb", Json.Float (Util.peak_rss_mb "self")) ])))
  in
  let pass () =
    let t0 = Util.now_s () in
    let store = Cert_store.open_store dir in
    let o = run_spec ~domains ~store spec in
    let wall = Util.now_s () -. t0 in
    ( store,
      o,
      [
        ("wall_s", Json.Float wall);
        ("checked", Json.Int o.Sweep.totals.Sweep.total_checked);
        ("outcome", Json.String (outcome_string o)); ("cell_walls", walls o);
      ] )
  in
  match traced with
  | None ->
      let store, _, fields = pass () in
      (* The cold pass leaves collection work behind; settle it so it does
         not land on the first cells asked again. *)
      Gc.full_major ();
      let again = List.init reasks (fun _ -> run_spec ~domains ~store spec) in
      Cert_store.close store;
      let cell_medians =
        Util.column_medians
          (List.map (fun o -> Array.of_list (List.map (fun c -> c.Sweep.wall) o.Sweep.cells)) again)
      in
      report
        (fields
        @ [
            ("again_outcomes", Json.List (List.map (fun o -> Json.String (outcome_string o)) again));
            ("again_walls", Util.floats cell_medians);
          ])
  | Some (rdir, tdir) ->
      (* Two Obs sessions: the library's own pass, then the first replay,
         with the counters zeroed in between so the replay's trace counts
         the replay alone. *)
      Obs.start ~trace:(Filename.concat tdir "obs-pass.jsonl") ~echo:false ();
      let store, o, _ = pass () in
      Cert_store.close store;
      Obs.stop ();
      Obs.reset_counters ();
      Dist_oracle.reset_global_stats ();
      let replay spans =
        let k = counts () in
        let t0 = Util.now_s () in
        let out =
          Spans.span "run" (fun () ->
              let s = Spans.span "cert_store.load" (fun () -> Cert_store.open_store rdir) in
              let r = replay_spec ~domains ~store:s ~k spec in
              Spans.span "cert_store.record" (fun () -> Cert_store.close s);
              Spans.span "json.encode" (fun () -> outcome_string r))
        in
        let wall = Util.now_s () -. t0 in
        Spans.write (Filename.concat tdir spans);
        Spans.clear ();
        (k, out, wall)
      in
      Obs.start ~trace:(Filename.concat tdir "obs.jsonl") ~echo:false ();
      let k, replayed, replay_wall = replay "spans.jsonl" in
      Obs.stop ();
      let journal_mb = float_of_int (Util.dir_bytes rdir) /. 1048576. in
      (* Every lookup of the second replay hits: it times the store's read
         path on a full journal. *)
      let w, warm_replayed, _ = replay "spans-warm.jsonl" in
      report
        [
          ("replay_wall_s", Json.Float replay_wall);
          ("traced_outcome", Json.String (outcome_string o)); ("replayed", Json.String replayed);
          ("warm_replayed", Json.String warm_replayed);
          ("enumerated", Json.Int k.enumerated); ("canon_computed", Json.Int k.canon_computed);
          ("canon_lookups", Json.Int k.canon_lookups); ("canon_hits", Json.Int k.canon_hits);
          ("warm_finds", Json.Int w.finds); ("warm_hits", Json.Int w.hits);
          ("check_calls", Json.Int k.check_calls); ("exhausted", Json.Int k.exhausted);
          ("replay_journal_mb", Json.Float journal_mb);
        ]

(* ------------------------------------------------------------------ *)
(* Pinned cells                                                        *)
(* ------------------------------------------------------------------ *)

let pins_path = "perfbench/pins/sweep.json"

let pin () =
  let dir = Filename.concat Util.work_dir "pin-sweep" in
  Util.fresh_dir dir;
  let store = Cert_store.open_store dir in
  let o = run_spec ~domains:2 ~store (spec_of_seed 0) in
  Cert_store.close store;
  let cells =
    List.sort compare
      (List.map (fun c -> (cell_key c, Sweep.worst_to_json c.Sweep.worst)) o.Sweep.cells)
  in
  Util.write_file pins_path (Json.to_string (Json.Obj [ ("cells", Json.Obj cells) ]) ^ "\n");
  Util.log "pinned %d sweep cells in %s" (List.length cells) pins_path

let load_pins () =
  let pins = Hashtbl.create 128 in
  (match Result.map (Json.member "cells") (Json.of_string (Util.read_file pins_path)) with
  | Ok (Some (Json.Obj kvs)) ->
      List.iter (fun (k, w) -> Hashtbl.replace pins k (Json.to_string w)) kvs
  | _ -> Util.die "cannot read %s" pins_path);
  pins

(* Checks every cell of an outcome against the pins; [all_hits] says
   whether every candidate must have come from the store, or none. *)
let verify (t : Util.tally) pins ~what ~all_hits outcome =
  match Result.bind (Json.of_string outcome) Sweep.outcome_of_json with
  | Error e ->
      Util.expect t (Printf.sprintf "%s: unparseable outcome (%s)" what e) false;
      []
  | Ok o ->
      Util.expect t (what ^ ": cell count") (List.length o.Sweep.cells = Hashtbl.length pins);
      List.iter
        (fun (c : Sweep.cell) ->
          t.attempted <- t.attempted + 1;
          let pinned =
            Hashtbl.find_opt pins (cell_key c)
            = Some (Json.to_string (Sweep.worst_to_json c.Sweep.worst))
          in
          let hits = c.Sweep.cache_hits = if all_hits then c.Sweep.worst.Sweep.checked else 0 in
          if not (pinned && hits) then begin
            t.failed <- t.failed + 1;
            Util.expect t (Printf.sprintf "%s: cell %s" what (cell_key c)) false
          end)
        o.Sweep.cells;
      o.Sweep.cells

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let workload ~seed ~seconds ~trace =
  let base = Filename.concat Util.work_dir "sweep-cold" in
  let store = Filename.concat base "store" and tdir = Filename.concat base "trace" in
  let pins = load_pins () and t = Util.tally () in
  let spawn ~domains dir extra =
    Util.spawn ([ "child-sweep"; string_of_int seed; string_of_int domains; dir ] @ extra)
  in
  (* One untraced pass in a fresh process.  Set-up is emptying the store
     plus starting the process, up to its readiness. *)
  let pass ~domains =
    let t0 = Util.now_s () in
    Util.fresh_dir store;
    let c = spawn ~domains store [] in
    Util.await_ready c;
    let setup = Util.now_s () -. t0 in
    let r = Util.report c in
    ignore (verify t pins ~what:"cold pass" ~all_hits:false (Util.str "outcome" r));
    List.iter
      (fun o ->
        match Json.as_string o with
        | Some o -> ignore (verify t pins ~what:"re-ask" ~all_hits:true o)
        | None -> Util.expect t "re-ask outcome" false)
      (Option.value ~default:[] (Json.as_list (Util.field "again_outcomes" r)));
    (setup, r)
  in
  if not trace then begin
    let runs = Util.repeat_for seconds (fun () -> pass ~domains:2) in
    let reports = List.map snd runs in
    let per f = List.map f reports in
    (* A cell's latency is its median over the run's passes (cold) or
       over all its re-asks (warm), so a collection or a stretch the
       machine slowed that lands on one pass does not make it; the
       quantiles are taken over the 112 cells. *)
    let cells name = Util.column_medians (per (fun r -> Array.of_list (Util.nums name r))) in
    let cold = cells "cell_walls" and warm = cells "again_walls" in
    let metrics =
      [
        ("setup_s", Util.median (List.map fst runs));
        ("wall_s", Util.median (per (Util.num "wall_s")));
        ("peak_rss_mb", Util.median (per (Util.num "peak_rss_mb")));
        ("warm_p99_us", 1e6 *. Util.quantile 0.99 warm);
        ("cold_p50_ms", 1e3 *. Util.median cold);
        ("cold_p90_ms", 1e3 *. Util.quantile 0.9 cold);
        ( "max_qps",
          Util.median (per (fun r -> float_of_int (Util.int "checked" r) /. Util.num "wall_s" r)) );
      ]
    in
    let detail =
      Json.Obj
        [
          ("passes", Json.Int (List.length runs)); ("cells_per_pass", Json.Int (Hashtbl.length pins));
          ("setups", Util.floats (List.map fst runs));
          ("walls", Util.floats (per (Util.num "wall_s")));
          ("cold_cells", Util.floats cold); ("warm_cells", Util.floats warm);
        ]
    in
    (t, Layers.emit Layers.end_to_end metrics, detail)
  end
  else begin
    (* A traced cycle: an untraced pass, the traced child (an Obs-traced
       pass, then the span-traced replays on an empty and on the filled
       store), and a one-domain pass for the scaling record. *)
    let cycle () =
      let _, untraced = pass ~domains:2 in
      let obs_store = Filename.concat base "obs" and replay_store = Filename.concat base "replay" in
      List.iter Util.fresh_dir [ obs_store; replay_store; tdir ];
      let c = spawn ~domains:2 obs_store [ replay_store; tdir ] in
      Util.await_ready c;
      let r = Util.report c in
      let replayed = Util.str "replayed" r in
      ignore (verify t pins ~what:"traced pass" ~all_hits:false (Util.str "traced_outcome" r));
      let cells = verify t pins ~what:"replay" ~all_hits:false replayed in
      ignore (verify t pins ~what:"warm replay" ~all_hits:true (Util.str "warm_replayed" r));
      Util.expect t "replay outcome is byte-equal to Sweep.run's"
        (replayed = Util.str "outcome" untraced);
      let _, single = pass ~domains:1 in
      let s =
        Summarize.of_files ~obs:(Filename.concat tdir "obs.jsonl") (Filename.concat tdir "spans.jsonl")
      and w = Summarize.of_files (Filename.concat tdir "spans-warm.jsonl") in
      Summarize.print stderr s;
      Summarize.print stderr w;
      Util.expect t "cold replay: layers cover all but 5% of the traced wall time"
        (Summarize.attributed s);
      Util.expect t "warm replay: layers cover all but 5% of the traced wall time"
        (Summarize.attributed w);
      let replay_wall = Util.num "replay_wall_s" r in
      let ns =
        Layers.bfs_ns_per_row
          (List.filter_map (fun (c : Sweep.cell) -> c.Sweep.worst.Sweep.witness) cells)
      in
      let self = Summarize.self s in
      let i name = float_of_int (Util.int name r) in
      let values =
        [
          ("enumerate.busy_s", self "enumerate"); ("enumerate.graphs", i "enumerated");
          ("canon.busy_s", self "canon"); ("canon.computed", i "canon_computed");
          ("canon.memo_hit_ratio", Util.ratio (i "canon_hits") (i "canon_lookups"));
          ("cert_store.record_s", self "cert_store.record");
          ("cert_store.journal_mb", Util.num "replay_journal_mb" r);
          ("cert_store.load_s", Summarize.self w "cert_store.load");
          ("cert_store.lookup_s", Summarize.self w "cert_store.lookup");
          ("cert_store.hit_ratio", Util.ratio (i "warm_hits") (i "warm_finds"));
          ("check.calls", i "check_calls"); ("check.exhausted", i "exhausted");
          ("rho.busy_s", self "rho"); ("rho.calls", i "check_calls");
          ("sweep.fold_s", self "sweep.fold"); ("json.encode_s", self "json.encode");
          ("parallel.speedup", Util.num "wall_s" single /. Util.num "wall_s" untraced);
          ("paths.bfs_ns_per_row", ns);
          ( "paths.bfs_share",
            float_of_int (Summarize.counter s "dist_oracle.scratch") *. ns *. 1e-9 /. replay_wall );
          ("trace.overhead_frac", (replay_wall /. Util.num "wall_s" untraced) -. 1.);
          ( "trace.unattributed_frac",
            Float.max (Summarize.unattributed_frac s) (Summarize.unattributed_frac w) );
        ]
        @ List.map (fun c -> ("check.busy_s." ^ c, self ("check." ^ c))) Layers.checked_concepts
        @ Layers.oracle_counters s
      in
      (values, Json.Obj [ ("cold", Summarize.to_json s); ("warm", Summarize.to_json w) ])
    in
    let cycles = Util.repeat_for seconds cycle in
    let detail =
      Json.Obj
        [ ("cycles", Json.Int (List.length cycles)); ("summaries", Json.List (List.map snd cycles)) ]
    in
    (t, Layers.emit Layers.per_layer (Layers.medians (List.map fst cycles)), detail)
  end
