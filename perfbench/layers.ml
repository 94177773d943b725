(* The metric catalogue.  BENCHMARK.json lists the same names, units and
   directions; every run prints every metric of its kind, each as
   measured on that workload — a layer the workload never enters reads
   0 in the traced run. *)

let end_to_end =
  [
    ("setup_s", "s"); ("wall_s", "s"); ("peak_rss_mb", "MB"); ("warm_p99_us", "us");
    ("cold_p50_ms", "ms"); ("cold_p90_ms", "ms"); ("max_qps", "1/s");
  ]

let checked_concepts = [ "RE"; "BAE"; "PS"; "BSwE"; "BGE"; "BNE"; "2-BSE"; "PS_d2"; "BNE_d2" ]

let per_layer =
  [
    ("enumerate.busy_s", "s"); ("enumerate.graphs", "count"); ("canon.busy_s", "s");
    ("canon.computed", "count"); ("canon.memo_hit_ratio", "ratio");
    ("cert_store.record_s", "s"); ("cert_store.journal_mb", "MB"); ("cert_store.load_s", "s");
    ("cert_store.lookup_s", "s"); ("cert_store.hit_ratio", "ratio");
  ]
  @ List.map (fun c -> ("check.busy_s." ^ c, "s")) checked_concepts
  @ [
      ("check.calls", "count"); ("check.exhausted", "count"); ("rho.busy_s", "s");
      ("rho.calls", "count"); ("sweep.fold_s", "s"); ("json.encode_s", "s");
      ("parallel.speedup", "x"); ("engine.evals", "count"); ("engine.priced", "count");
      ("engine.cache_hit_ratio", "ratio"); ("engine.steps", "count");
      ("dist_oracle.scratch_rows", "count"); ("dist_oracle.relaxed", "count");
      ("dist_oracle.kept", "count"); ("dist_oracle.dropped", "count");
      ("paths.bfs_ns_per_row", "ns"); ("paths.bfs_share", "ratio"); ("api.parse_us", "us");
      ("api.key_us", "us"); ("api.encode_us", "us"); ("serve.compute_ms.check", "ms");
      ("serve.compute_ms.poa", "ms"); ("serve.request_ms.check", "ms");
      ("serve.request_ms.poa", "ms"); ("serve.queue_wait_ms", "ms");
      ("serve.warm_p50_us", "us"); ("serve.cache_hit_ratio", "ratio");
      ("serve.coalesced", "count"); ("serve.shed", "count");
      ("loadgen.late_p99_us", "us"); ("trace.overhead_frac", "ratio");
      ("trace.unattributed_frac", "ratio");
    ]

(* Every metric of [catalogue], valued from [values]; absent ones are 0. *)
let emit catalogue values =
  List.map
    (fun (name, unit_) ->
      let v = Option.value ~default:0. (List.assoc_opt name values) in
      if not (Float.is_finite v) then Util.die "metric %s is not finite" name;
      Util.m name unit_ v)
    catalogue

(* Per-name medians over the value lists of several traced cycles. *)
let medians cycles =
  List.filter_map
    (fun (name, _) ->
      match List.filter_map (List.assoc_opt name) cycles with
      | [] -> None
      | vs -> Some (name, Util.median vs))
    per_layer

(* The Obs counters every traced workload reports the same way. *)
let oracle_counters (s : Summarize.t) =
  List.map
    (fun (metric, counter) -> (metric, float_of_int (Summarize.counter s counter)))
    [
      ("dist_oracle.scratch_rows", "dist_oracle.scratch"); ("dist_oracle.relaxed", "dist_oracle.relaxed");
      ("dist_oracle.kept", "dist_oracle.kept"); ("dist_oracle.dropped", "dist_oracle.dropped");
    ]

(* [Paths.bfs] from every source of every graph, in ns per row. *)
let bfs_ns_per_row graphs =
  let rows = List.fold_left (fun a g -> a + Graph.n g) 0 graphs in
  let (), s =
    Util.time (fun () ->
        List.iter (fun g -> for u = 0 to Graph.n g - 1 do ignore (Paths.bfs g u) done) graphs)
  in
  Util.ratio (s *. 1e9) (float_of_int rows)
