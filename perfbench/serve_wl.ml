(* The serve workload: a fresh [Serve] daemon (2 domains, no store) under
   an open-loop stream of mixed requests from one generator process over
   two connections.

   Most requests are warm: check lines from a bank the set-up sent once.
   Some are cold checks (a fresh connected graph on 8 vertices x {BNE,
   2-BSE} x a fresh alpha), and a few are cold poa / sweep_cell lines
   costing 1 to 10 milliseconds.  The daemon computes jobs one at a time
   inside its select loop, so a cold job delays every warm reply queued
   behind it; only an open loop with mixed costs shows that.  Requests
   are timed from when they were due to be sent.

   A run is a main phase at [main_rate] (the latency metrics), a light
   mix and then a mixed one (see [kind_at]), then a short ladder of
   rising offered rates that stops at the first rate
   whose warm p99 misses [p99_limit_s] or whose queue does not drain
   within it; max_qps is the delivered rate of the highest rate met.
   Every reply is checked byte for byte against the payload built
   in-process from the same public calls. *)

let domains = 2
let bank_size = 128
let main_rate = 300.
let ladder = [ 550.; 1100.; 2200.; 6600. ]
let limit_s = 1.0
let p99_limit_s = 0.15
let game = Api.default_game

type kind = Warm | Cold_check | Heavy
type req = { id : int; kind : kind; request : Api.request; line : string }

let line ~id r =
  match Api.request_to_json r with
  | Json.Obj fields -> Json.to_string (Json.Obj (("id", Json.Int id) :: fields))
  | j -> Json.to_string j

(* ------------------------------------------------------------------ *)
(* Inputs, all drawn from the seed                                     *)
(* ------------------------------------------------------------------ *)

let pick st l = List.nth l (Random.State.int st (List.length l))

let bank st =
  let checks =
    List.concat_map
      (fun g ->
        List.concat_map
          (fun concept ->
            List.map
              (fun alpha ->
                Api.Check
                  { game; concept; alpha; graph6 = Encode.to_graph6 g; budget = Api.default_budget })
              [ 1.; 2.; 4.; 8. ])
          [ "RE"; "BAE"; "PS"; "BSwE"; "BGE" ])
      (Enumerate.free_trees 8)
  in
  Array.of_list (List.filteri (fun i _ -> i < bank_size) (Sweep_wl.shuffle st checks))

(* An alpha no other request of the run uses, so every cold line is a
   distinct question.  All lie within 0.001 of 4, so a line shape costs
   the same whatever the seed. *)
let fresh_alpha st used =
  let rec go () =
    let a = 4. +. (float_of_int (Random.State.int st 1_000_000) *. 1e-9) in
    if Hashtbl.mem used a then go ()
    else begin
      Hashtbl.add used a ();
      a
    end
  in
  go ()

let cold_check st used =
  let g = Gen.random_connected st 8 ~p:0.5 in
  Api.Check
    {
      game;
      concept = pick st [ "BNE"; "2-BSE" ];
      alpha = fresh_alpha st used;
      graph6 = Encode.to_graph6 g;
      budget = Api.default_budget;
    }

(* The heavy lines take these shapes in turn, so every stretch of the
   stream carries the same compute whatever the seed: three poa lines on
   the trees on 12 vertices (about 10 ms each) and a sweep_cell line on
   the connected graphs on 7 vertices (about 1 ms).  Half the heavy
   lines are BGE, the longest shape, so the quantiles that fall on it
   (the cold p90, and the warm p99 through the first warm line after
   each) fall in the middle of its samples, not at their edge.  Longer
   shapes varied more from run to run: a sweep_cell line on the 11,117
   connected graphs on 8 vertices took 19 to 30 ms as the collections
   over that family's memo fell, a 2-BSE poa line 12 to 16 ms. *)
let heavy k st used =
  let alpha = fresh_alpha st used in
  let poa concept =
    Api.Poa { game; concept; alpha; n = 12; family = Api.Trees; budget = Api.default_budget }
  and cell concept =
    Api.Sweep_cell { game; family = Api.Connected; n = 7; concept; alpha; budget = None }
  in
  match k mod 4 with 0 -> poa "BGE" | 1 -> cell "BAE" | 2 -> poa "BGE" | _ -> poa "RE"

(* Set-up sends this once after the bank, so the daemon's family memo
   holds the connected graphs on 7 vertices before the heavy lines ask
   for them. *)
let family_line =
  Api.Sweep_cell { game; family = Api.Connected; n = 7; concept = "RE"; alpha = 1.; budget = None }

(* Two mixes with a fixed layout; the seed draws only the lines, so every
   seed puts the same share of each kind at the same places and the
   quantiles fall at the same place in the mix.

   [Light]: every tenth line a cold check, the rest warm.  The warm p50
   is taken here, without heavy lines: the collections they leave in the
   daemon slow its warm path by up to twice for seconds at a time, which
   would make the warm p50 follow where they fell.

   [Mixed]: every 25th line a heavy one, and one cold check in each 75
   lines, placed between two heavy lines; the rest warm.  Heavy lines
   25 apart never queue back to back and keep the daemon busy about a
   tenth of the time.  Three in four cold requests are heavy, so the
   cold p50 and p90 fall among the poa lines' compute, not on the border
   between two kinds.  About one warm line in fourteen waits behind a
   heavy one, so the warm p99 is such a wait.  The open loop sends the
   line after a heavy one together with it, so that line waits the heavy
   line's whole compute and the warm p99 follows that compute; a line
   due a gap later waits the compute less the gap, which magnifies any
   change in the compute. *)
type mix = Light | Mixed

let kind_at mix i =
  match mix with
  | Light -> if i mod 10 = 0 then Cold_check else Warm
  | Mixed -> if i mod 25 = 0 then Heavy else if i mod 75 = 12 then Cold_check else Warm

let stream st used bank mix ~first ~count =
  let heavies = ref 0 in
  Array.init count (fun i ->
      let kind = kind_at mix i in
      let request =
        match kind with
        | Warm -> bank.(Random.State.int st (Array.length bank))
        | Cold_check -> cold_check st used
        | Heavy ->
            incr heavies;
            heavy !heavies st used
      in
      let id = first + i in
      { id; kind; request; line = line ~id request })

(* ------------------------------------------------------------------ *)
(* Expected payloads, built in-process from the public calls the       *)
(* daemon makes                                                        *)
(* ------------------------------------------------------------------ *)

let concept_exn s = match Concept.of_string s with Ok c -> c | Error e -> Util.die "%s" e
let families = Hashtbl.create 4

let expected (r : Api.request) =
  match r with
  | Api.Check { game; concept; alpha; graph6; budget } ->
      let g = Encode.of_graph6 graph6 in
      Api.Check_ok
        {
          game;
          concept;
          alpha;
          graph6;
          verdict = Concept.check ~budget ~alpha (concept_exn concept) g;
          rho = Cost.rho ~alpha g;
        }
  | Api.Poa { game; concept; alpha; n; family; budget } ->
      let target = match family with Api.Trees -> Poa.Trees n | Api.Connected -> Poa.Connected n in
      let worst = Poa.run ~budget ~domains ~concept:(concept_exn concept) ~alpha target in
      Api.Poa_ok { game; concept; n; family; alpha; worst }
  | Api.Sweep_cell { game; family; n; concept; alpha; budget } ->
      let graphs =
        match Hashtbl.find_opt families (family, n) with
        | Some gs -> gs
        | None ->
            let gs = Sweep.candidates ~domains (Api.to_sweep_family family) n in
            Hashtbl.add families (family, n) gs;
            gs
      in
      let worst, _ = Sweep.run_cell ?budget ~domains ~concept:(concept_exn concept) ~alpha graphs in
      Api.Sweep_cell_ok { game; n; concept; alpha; worst }
  | Api.Stats | Api.Shutdown -> Util.die "no expected payload for stats/shutdown"

(* Expected responses by request key, with the seconds each took to
   build (0 for warm lines: the daemon answers them from its cache). *)
type oracle = (string, Api.response * float) Hashtbl.t

let expect_of (o : oracle) (r : req) =
  let key = Api.request_key r.request in
  match Hashtbl.find_opt o key with
  | Some e -> e
  | None ->
      let resp, s =
        Spans.span
          (match r.kind with
          | Warm -> "serve.compute.warm"
          | Cold_check -> "serve.compute.check"
          | Heavy -> "serve.compute.poa")
          (fun () -> Util.time (fun () -> expected r.request))
      in
      let e = (resp, if r.kind = Warm then 0. else s) in
      Hashtbl.replace o key e;
      e

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)
(* ------------------------------------------------------------------ *)

(* [child-serve SOCKET [OBS_TRACE]] *)
let child = function
  | socket :: rest ->
      Option.iter
        (fun p -> Obs.start ~trace:p ~echo:false ())
        (match rest with [ p ] -> Some p | _ -> None);
      Serve.run ~on_ready:Util.ready
        {
          Serve.listen = Serve.Unix_socket socket;
          domains = Some domains;
          store = None;
          max_inflight = Serve.default_max_inflight;
          max_queue = Serve.default_max_queue;
          client_budget = None;
        };
      Obs.stop ()
  | [] -> Util.die "usage: child-serve SOCKET [OBS_TRACE]"

let socket = Filename.concat Util.work_dir "serve.sock"
let addr = Serve_client.Unix_socket socket

let start_daemon trace =
  let c = Util.spawn ([ "child-serve"; socket ] @ Option.to_list trace) in
  Util.await_ready c;
  c

let stop_daemon (t : Util.tally) c = Util.expect t "daemon exits 0 after SIGTERM" (Util.stop c)

(* Sends every bank line once, in order, checking each reply. *)
let warm_up (t : Util.tally) (o : oracle) bank =
  let c = Serve_client.connect addr in
  Array.iter
    (fun r ->
      t.attempted <- t.attempted + 1;
      let resp, _ = expect_of o r in
      let ok = Serve_client.request_raw c r.line = Some (Api.reply_line ~id:(Some r.id) resp) in
      if not ok then t.failed <- t.failed + 1;
      Util.expect t (Printf.sprintf "warm-up reply to %s" r.line) ok)
    bank;
  Serve_client.close c

(* ------------------------------------------------------------------ *)
(* The open loop                                                       *)
(* ------------------------------------------------------------------ *)

type sample = { req : req; due : float; mutable sent : float; mutable got : float; mutable reply : string }

(* Time the generator spent sending, reading replies, and waiting in
   select for the next due time or a reply. *)
type gen_time = { mutable send_ns : float; mutable recv_ns : float; mutable wait_ns : float }

(* With [spin] (the main phase, run by [on_one_cpu]), the generator
   polls instead of sleeping while nothing is in flight, so the CPU it
   shares with the daemon's select loop never goes idle and no send waits
   for an idle CPU to wake.  While a request is in flight it sleeps until
   a reply or the next due time, leaving the daemon the CPU.  The ladder
   does not spin. *)
let open_loop ?(gt = { send_ns = 0.; recv_ns = 0.; wait_ns = 0. }) ?(spin = false) conns reqs ~rate =
  let n = Array.length reqs in
  let t0 = Util.now_s () +. 0.005 in
  (* A line right after a heavy one is due with it. *)
  let slot i = if i > 0 && reqs.(i - 1).kind = Heavy then i - 1 else i in
  let s =
    Array.mapi
      (fun i req -> { req; due = t0 +. (float_of_int (slot i) /. rate); sent = nan; got = nan; reply = "" })
      reqs
  in
  let pending = Array.map (fun _ -> Queue.create ()) conns in
  let fds = Array.to_list (Array.map Serve_client.fd conns) in
  let next = ref 0 and outstanding = ref 0 in
  let drain_until = (if n = 0 then t0 else s.(n - 1).due) +. limit_s in
  let finished = ref false in
  (* Each piece of the loop is charged the time since the previous charge,
     so the pieces cover the loop without gaps, the spinning loop's own
     checks included. *)
  let last = ref (Util.now_ns ()) in
  let since_last () =
    let t = Util.now_ns () in
    let d = Int64.to_float (Int64.sub t !last) in
    last := t;
    d
  in
  while not !finished do
    let now = Util.now_s () in
    if !next < n && now >= s.(!next).due then begin
      let i = !next in
      let k = i mod Array.length conns in
      Serve_client.send_line conns.(k) s.(i).req.line;
      s.(i).sent <- Util.now_s ();
      Queue.push i pending.(k);
      incr next;
      incr outstanding;
      gt.send_ns <- gt.send_ns +. since_last ()
    end
    else if !next >= n && (!outstanding = 0 || now >= drain_until) then finished := true
    else begin
      let until = if !next < n then s.(!next).due else drain_until in
      let timeout = if spin && !outstanding = 0 then 0. else Float.max 0. (until -. now) in
      let readable, _, _ =
        try Unix.select fds [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      gt.wait_ns <- gt.wait_ns +. since_last ();
      Array.iteri
        (fun k c ->
          if List.mem (Serve_client.fd c) readable then begin
            Serve_client.feed c;
            let rec drain () =
              match Serve_client.next_line c with
              | Some l ->
                  (match Queue.take_opt pending.(k) with
                  | Some i ->
                      s.(i).got <- Util.now_s ();
                      s.(i).reply <- l;
                      decr outstanding
                  | None -> ());
                  drain ()
              | None -> ()
            in
            drain ()
          end)
        conns;
      gt.recv_ns <- gt.recv_ns +. since_last ()
    end
  done;
  s

(* Runs [f] with the generator and the daemon's main thread (its select
   loop) on one CPU; the daemon's pool workers keep every CPU.  A request
   then wakes the daemon on the CPU the generator is about to leave idle,
   not on a second, idle CPU: on a shared virtual machine how long that
   wake-up takes follows the host's load, and it would dominate a warm
   request's latency.  Where affinity cannot be set, [f] runs unpinned;
   the second result says which. *)
let on_one_cpu (d : Util.child) f =
  match Util.cpus_allowed () with
  | None -> (f (), false)
  | Some all ->
      let first = String.to_seq all |> Seq.take_while (fun c -> c >= '0' && c <= '9') |> String.of_seq in
      let me = Unix.getpid () in
      let pinned = Util.set_affinity ~tid:me first && Util.set_affinity ~tid:d.Util.pid first in
      if not pinned then Util.log "could not set CPU affinity; the open loop runs unpinned";
      let restore () =
        ignore (Util.set_affinity ~tid:me all);
        ignore (Util.set_affinity ~tid:d.Util.pid all)
      in
      (Fun.protect ~finally:restore f, pinned)

let latency x = x.got -. x.due
let answered x = x.reply <> ""

let is_error x =
  match Api.parse_reply_line x.reply with Ok (_, Api.Error _) | Error _ -> true | Ok _ -> false

let failed x = (not (answered x)) || is_error x || latency x > limit_s

(* The answered samples of the given kinds. *)
let of_kind ks s = List.filter (fun x -> answered x && List.mem x.req.kind ks) (Array.to_list s)

(* Each half-second window's median latency (windows by due time from
   [t0]). *)
let window_p50s ~t0 scale samples =
  let by = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let w = int_of_float ((x.due -. t0) /. 0.5) in
      Hashtbl.replace by w (latency x :: Option.value ~default:[] (Hashtbl.find_opt by w)))
    samples;
  List.map (fun (_, l) -> scale *. Util.median l) (List.sort compare (List.of_seq (Hashtbl.to_seq by)))

(* The warm p50 of the calmest window: the warm path's own cost, without
   the stretches in which load on the host slowed its context switches.
   A warm round trip is mostly context switches, so it still follows the
   host: over twenty runs its interquartile range was 0.32 of its median,
   which is why it is a per-layer figure and not an end-to-end metric. *)
let calmest windows = List.fold_left Float.min Float.infinity windows

let last_reply s = Array.fold_left (fun m x -> if answered x then Float.max m x.got else m) 0. s

(* Checks every non-error reply against its expected bytes. *)
let check_replies (t : Util.tally) o s =
  Array.iter
    (fun x ->
      if answered x && not (is_error x) then begin
        let resp, _ = expect_of o x.req in
        Util.expect t
          (Printf.sprintf "reply to %s" x.req.line)
          (x.reply = Api.reply_line ~id:(Some x.req.id) resp)
      end)
    s

(* A rate is met when nothing failed, the warm p99 is within the limit,
   and the queue drained within the limit of the last due send. *)
let rate_met s =
  let warm = List.map latency (of_kind [ Warm ] s) in
  Array.for_all (fun x -> answered x && not (is_error x)) s
  && Util.quantile 0.99 warm <= p99_limit_s
  && last_reply s -. s.(Array.length s - 1).due <= p99_limit_s

(* Replies received per second, from the first due send to the last reply. *)
let delivered s =
  float_of_int (List.length (of_kind [ Warm; Cold_check; Heavy ] s)) /. (last_reply s -. s.(0).due)

(* On a connection of its own: a rate not met may leave replies in
   flight on the load connections. *)
let daemon_stats () =
  let conn = Serve_client.connect addr in
  let reply = Serve_client.request_raw conn "{\"op\":\"stats\"}" in
  Serve_client.close conn;
  match Option.map Api.parse_reply_line reply with
  | Some (Ok (_, Api.Stats_ok st)) -> st
  | _ -> Util.die "bad stats reply"

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let workload ~seed ~seconds ~trace =
  let t = Util.tally () and o : oracle = Hashtbl.create 1024 in
  let st = Random.State.make [| seed |] and used = Hashtbl.create 1024 in
  let bank_reqs = bank st in
  let bank =
    Array.mapi
      (fun id request -> { id; kind = Warm; request; line = line ~id request })
      (Array.append bank_reqs [| family_line |])
  in
  (* The main phase is the light mix for half the run, then the mixed
     one for 30%. *)
  let lines share = int_of_float (main_rate *. share *. float_of_int seconds) in
  let nl = lines 0.5 and nm = lines 0.3 in
  let light_reqs = stream st used bank_reqs Light ~first:10_000 ~count:nl in
  let main = Array.append light_reqs (stream st used bank_reqs Mixed ~first:(10_000 + nl) ~count:nm) in
  let main_phase ?gt d conns = on_one_cpu d (fun () -> open_loop ?gt ~spin:true conns main ~rate:main_rate) in
  let light s = Array.sub s 0 nl and mixed s = Array.sub s nl nm in
  let light_windows s = window_p50s ~t0:s.(0).due 1e6 (of_kind [ Warm ] (light s)) in
  let rung_s = 1.0 in
  let rungs =
    List.mapi
      (fun k rate ->
        ( rate,
          stream st used bank_reqs Mixed ~first:(100_000 * (k + 2)) ~count:(int_of_float (rate *. rung_s))
        ))
      ladder
  in
  Array.iter (fun r -> ignore (expect_of o r)) bank;
  let setup ?trace () =
    let (d, ()), s =
      Util.time (fun () ->
          let d = start_daemon trace in
          (d, warm_up t o bank))
    in
    (d, s)
  in
  let connect () = Array.init 2 (fun _ -> Serve_client.connect addr) in
  (* A main-phase request that is unanswered, or answered with an error,
     is also a wrong output; only the ladder's rungs may fail freely. *)
  let count_main s =
    Array.iter
      (fun x ->
        t.attempted <- t.attempted + 1;
        if failed x then t.failed <- t.failed + 1;
        Util.expect t
          (Printf.sprintf "reply to %s: %s" x.req.line (if answered x then x.reply else "none"))
          (answered x && not (is_error x)))
      s
  in
  if not trace then begin
    (* Set-up is timed five times; the last daemon serves the run. *)
    let spare =
      List.init 4 (fun _ ->
          let d, s = setup () in
          stop_daemon t d;
          s)
    in
    let d, s5 = setup () in
    let setups = spare @ [ s5 ] in
    let conns = connect () in
    let m, pinned = main_phase d conns in
    count_main m;
    (* The ladder stops at the first rate not met. *)
    let rung_json rate s =
      Json.Obj
        [
          ("offered", Json.Float rate); ("delivered", Json.Float (delivered s));
          ("warm_p50_us", Json.Float (1e6 *. Util.median (List.map latency (of_kind [ Warm ] s))));
          ("warm_p99_us", Json.Float (1e6 *. Util.quantile 0.99 (List.map latency (of_kind [ Warm ] s))));
          ("met", Json.Bool (rate_met s));
        ]
    in
    let rec climb best rows = function
      | [] -> (best, rows)
      | (rate, reqs) :: rest ->
          let s = open_loop conns reqs ~rate in
          check_replies t o s;
          let rows = rung_json rate s :: rows in
          if rate_met s then climb (Some (rate, delivered s)) rows rest else (best, rows)
    in
    let best, rows =
      climb (if rate_met m then Some (main_rate, delivered m) else None) [ rung_json main_rate m ] rungs
    in
    Array.iter Serve_client.close conns;
    let stats = daemon_stats () in
    let rss = Util.peak_rss_mb (string_of_int d.Util.pid) in
    stop_daemon t d;
    check_replies t o m;
    let light_warm = of_kind [ Warm ] (light m) in
    let warm = List.map (fun x -> latency x *. 1e6) (of_kind [ Warm ] (mixed m)) in
    let cold = List.map (fun x -> latency x *. 1e3) (of_kind [ Cold_check; Heavy ] (mixed m)) in
    let ms k s = Util.floats (List.map (fun x -> latency x *. 1e3) (of_kind [ k ] s)) in
    let max_qps = match best with Some (_, q) -> q | None -> delivered m in
    let windows = light_windows m in
    let metrics =
      [
        ("setup_s", Util.median setups);
        ("wall_s", last_reply m -. m.(0).due);
        ("peak_rss_mb", rss);
        ("warm_p99_us", Util.quantile 0.99 warm); ("cold_p50_ms", Util.median cold);
        ("cold_p90_ms", Util.quantile 0.9 cold); ("max_qps", max_qps);
      ]
    in
    let detail =
      Json.Obj
        [
          ("light_warm_samples", Json.Int (List.length light_warm));
          ("warm_samples", Json.Int (List.length warm)); ("cold_samples", Json.Int (List.length cold));
          ("rate_met", match best with Some (r, _) -> Json.Float r | None -> Json.Null);
          ("ladder", Json.List (List.rev rows));
          ("setups", Util.floats setups); ("cache_hits", Json.Int stats.Api.cache_hits);
          ("shed", Json.Int stats.Api.shed); ("one_cpu", Json.Bool pinned);
          ("warm_p50_us", Json.Float (calmest windows)); ("light_window_p50_us", Util.floats windows);
          ("light_cold_check_ms", ms Cold_check (light m)); ("warm_us", Util.floats warm);
          ("cold_check_ms", ms Cold_check (mixed m)); ("heavy_ms", ms Heavy (mixed m));
        ]
    in
    (t, Layers.emit Layers.end_to_end metrics, detail)
  end
  else begin
    let dir = Filename.concat Util.work_dir "serve-mixed" in
    let obs = Filename.concat dir "obs.jsonl" and spans = Filename.concat dir "spans.jsonl" in
    let d, _ = setup () in
    let conns = connect () in
    let untraced, _ = main_phase d conns in
    Array.iter Serve_client.close conns;
    stop_daemon t d;
    count_main untraced;
    Util.fresh_dir dir;
    let d, _ = setup ~trace:obs () in
    let gt = { send_ns = 0.; recv_ns = 0.; wait_ns = 0. } in
    (* The trace holds the traced phase alone, not the set-up before it. *)
    Spans.clear ();
    let m, stats =
      Spans.span "run" (fun () ->
          let m =
            let a = Util.now_ns () in
            let conns = connect () in
            let m, _ = main_phase ~gt d conns in
            Array.iter Serve_client.close conns;
            let stats = daemon_stats () in
            (* The pieces cover the generator's loop; connecting, setting
               the CPU affinity and the stats request stay in no layer. *)
            Spans.laid ~t0:a
              [
                ("loadgen.send", gt.send_ns); ("loadgen.recv", gt.recv_ns);
                ("loadgen.wait", gt.wait_ns);
              ];
            (m, stats)
          in
          Spans.span "serve.shutdown" (fun () -> stop_daemon t d);
          check_replies t o (fst m);
          m)
    in
    count_main m;
    check_replies t o untraced;
    (* Api codecs over the workload's own lines, outside the traced root. *)
    let lines = Array.to_list m in
    let per_call f =
      let reps = 20 in
      let (), s = Util.time (fun () -> for _ = 1 to reps do List.iter f lines done) in
      s *. 1e6 /. float_of_int (reps * List.length lines)
    in
    let parse_us = per_call (fun x -> ignore (Api.parse_request_line x.req.line)) in
    let key_us = per_call (fun x -> ignore (Api.request_key x.req.request)) in
    let encode_us =
      per_call (fun x -> ignore (Api.reply_line ~id:(Some x.req.id) (fst (expect_of o x.req))))
    in
    Spans.write spans;
    let s = Summarize.of_files ~obs spans in
    Summarize.print stderr s;
    Util.expect t "layers cover all but 5% of the traced wall time" (Summarize.attributed s);
    let compute ks =
      List.map (fun x -> snd (expect_of o x.req)) (of_kind ks m)
    in
    let span_ms names =
      let c, tot =
        List.fold_left
          (fun (c, tot) n ->
            let c', t' = Summarize.program_span s n in
            (c + c', tot +. t'))
          (0, 0.) names
      in
      Util.ratio (tot *. 1e3) (float_of_int c)
    in
    let all = [ Warm; Cold_check; Heavy ] in
    let waits = List.map (fun x -> latency x -. snd (expect_of o x.req)) (of_kind all m) in
    let mean_latency s = Util.mean (List.map latency (of_kind all s)) in
    let graphs =
      List.filter_map
        (fun x ->
          match x.req.request with Api.Check { graph6; _ } -> Some (Encode.of_graph6 graph6) | _ -> None)
        (of_kind [ Cold_check ] m)
    in
    let ns = Layers.bfs_ns_per_row graphs in
    let main_wall = last_reply m -. m.(0).due in
    let values =
      [
        ("api.parse_us", parse_us); ("api.key_us", key_us); ("api.encode_us", encode_us);
        ("serve.warm_p50_us", calmest (light_windows untraced));
        ("serve.compute_ms.check", 1e3 *. Util.mean (compute [ Cold_check ]));
        ("serve.compute_ms.poa", 1e3 *. Util.mean (compute [ Heavy ]));
        ("serve.request_ms.check", span_ms [ "serve.request.check" ]);
        ("serve.request_ms.poa", span_ms [ "serve.request.poa"; "serve.request.sweep_cell" ]);
        ("serve.queue_wait_ms", 1e3 *. Util.quantile 0.99 waits);
        ( "serve.cache_hit_ratio",
          Util.ratio (float_of_int stats.Api.cache_hits) (float_of_int stats.Api.accepted) );
        ("serve.coalesced", float_of_int stats.Api.coalesced);
        ("serve.shed", float_of_int stats.Api.shed);
        ( "loadgen.late_p99_us",
          1e6 *. Util.quantile 0.99 (Array.to_list (Array.map (fun x -> x.sent -. x.due) m)) );
        ("paths.bfs_ns_per_row", ns);
        ( "paths.bfs_share",
          float_of_int (Summarize.counter s "dist_oracle.scratch") *. ns *. 1e-9 /. main_wall );
        ("trace.overhead_frac", (mean_latency m /. mean_latency untraced) -. 1.);
        ("trace.unattributed_frac", Summarize.unattributed_frac s);
      ]
      @ Layers.oracle_counters s
    in
    (t, Layers.emit Layers.per_layer values, Summarize.to_json s)
  end
