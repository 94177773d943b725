(* Shared helpers: clocks, order statistics, child processes, metric
   output and run provenance. *)

let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) *. 1e-9

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* Runs [f] once, then again until [seconds] have passed since the call;
   the results in order. *)
let repeat_for seconds f =
  let deadline = now_s () +. float_of_int seconds in
  let rec go acc = if acc <> [] && now_s () > deadline then List.rev acc else go (f () :: acc) in
  go []

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks (the "inclusive" method),
   so a quantile of few samples still moves smoothly. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else
        let frac = pos -. float_of_int i in
        a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* The median of each column of equal-length rows. *)
let column_medians = function
  | [] -> []
  | r :: _ as rows -> List.init (Array.length r) (fun i -> median (List.map (fun a -> a.(i)) rows))

let sum xs = List.fold_left ( +. ) 0. xs

let mean xs =
  match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Files and processes                                                 *)
(* ------------------------------------------------------------------ *)

(* Everything a run writes lives under this directory of the checkout. *)
let work_dir = ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p

let fresh_dir d =
  rm_rf d;
  mkdir_p d

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let dir_bytes d =
  if not (Sys.file_exists d) then 0
  else
    Array.fold_left
      (fun acc e -> acc + (Unix.stat (Filename.concat d e)).Unix.st_size)
      0 (Sys.readdir d)

(* High-water resident set of a live process, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.
              | [] -> acc)
          | _ -> acc)
        0. (String.split_on_char '\n' s)

(* The CPUs this process may run on, as /proc lists them ("0-1"). *)
let cpus_allowed () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | s ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "Cpus_allowed_list"; v ] -> Some (String.trim v)
          | _ -> None)
        (String.split_on_char '\n' s)

(* Sets the CPU affinity of one thread (a process's main thread when
   [tid] is its pid) with taskset; false when that is not possible. *)
let set_affinity ~tid cpus =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let ok =
    match
      Unix.create_process "taskset"
        [| "taskset"; "-p"; "-c"; cpus; string_of_int tid |]
        Unix.stdin null null
    with
    | exception Unix.Unix_error _ -> false
    | pid -> snd (Unix.waitpid [] pid) = Unix.WEXITED 0
  in
  Unix.close null;
  ok

type child = { pid : int; out : in_channel }

(* Children not yet waited for; whatever way this process exits, they
   are killed and waited for first. *)
let live = ref []

let wait_child pid =
  live := List.filter (( <> ) pid) !live;
  snd (Unix.waitpid [] pid)

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (wait_child pid) with Unix.Unix_error _ -> ())
        !live)

(* Runs this executable again with [args]; the child's stdout comes back
   through a pipe (its stderr is shared). *)
let spawn args =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (Sys.executable_name :: args) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
  Unix.close w;
  live := pid :: !live;
  { pid; out = Unix.in_channel_of_descr r }

(* Asks a child to stop (SIGTERM) and waits; true if it exited 0. *)
let stop c =
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  close_in_noerr c.out;
  wait_child c.pid = Unix.WEXITED 0

(* Blocks until the child prints its readiness line. *)
let await_ready c =
  match In_channel.input_line c.out with
  | Some "ready" -> ()
  | Some l -> die "child %d: expected \"ready\", got %S" c.pid l
  | None -> die "child %d exited before it was ready" c.pid

let reap c =
  close_in_noerr c.out;
  match wait_child c.pid with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> die "child %d exited with %d" c.pid n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> die "child %d killed by signal %d" c.pid n

(* A child's last stdout line is its JSON report. *)
let report c =
  let rec last acc =
    match In_channel.input_line c.out with Some l -> last (Some l) | None -> acc
  in
  let line = last None in
  reap c;
  match Option.map Json.of_string line with
  | Some (Ok j) -> j
  | Some (Error e) -> die "child %d: bad report: %s" c.pid e
  | None -> die "child %d printed no report" c.pid

let ready () = print_endline "ready"

(* ------------------------------------------------------------------ *)
(* JSON accessors (reports are produced by this program: a missing     *)
(* field is a bug, not an input error)                                 *)
(* ------------------------------------------------------------------ *)

let field name j =
  match Json.member name j with Some v -> v | None -> die "report lacks %S" name

let num name j =
  match Json.as_number (field name j) with Some f -> f | None -> die "%S not a number" name

let int name j = match Json.as_int (field name j) with Some i -> i | None -> die "%S not an int" name
let str name j = match Json.as_string (field name j) with Some s -> s | None -> die "%S not a string" name
let nums name j =
  match Json.as_list (field name j) with
  | Some l -> List.filter_map Json.as_number l
  | None -> die "%S not a list" name

let floats xs = Json.List (List.map (fun x -> Json.Float x) xs)

(* ------------------------------------------------------------------ *)
(* Run outcome                                                         *)
(* ------------------------------------------------------------------ *)

(* Operations attempted and failed, and output mismatches, across one
   run.  A mismatch is a wrong answer; a failure is an operation that
   was refused, errored or missed its latency limit. *)
type tally = { mutable attempted : int; mutable failed : int; mutable wrong : string list }

let tally () = { attempted = 0; failed = 0; wrong = [] }

let expect t what ok =
  if not ok then begin
    t.wrong <- what :: t.wrong;
    log "WRONG OUTPUT: %s" what
  end

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Provenance: the checkout is not necessarily a git repository, so the
   source tree is identified by a digest of every file under [lib] and
   [perfbench]; git's commit and dirty flag are added when available. *)
let source_digest () =
  let rec files d =
    Array.to_list (Sys.readdir d)
    |> List.sort compare
    |> List.concat_map (fun e ->
           let p = Filename.concat d e in
           if Sys.is_directory p then files p else [ p ])
  in
  let parts =
    List.concat_map
      (fun d -> if Sys.file_exists d then files d else [])
      [ "lib"; "perfbench" ]
  in
  Digest.to_hex
    (Digest.string (String.concat "\000" (List.concat_map (fun p -> [ p; read_file p ]) parts)))

(* Only asked when the checkout itself is a git work tree, so a checkout
   nested in some other repository never reports that one's commit. *)
let git args =
  if not (Sys.file_exists ".git") then None
  else
    match Unix.open_process_args_in "git" (Array.of_list ("git" :: args)) with
    | exception Unix.Unix_error _ -> None
    | ic -> (
        let s = In_channel.input_all ic in
        match Unix.close_process_in ic with Unix.WEXITED 0 -> Some (String.trim s) | _ -> None)

let provenance ~workload ~seed ~seconds ~trace ~domains ~warmup =
  let commit = git [ "rev-parse"; "HEAD" ] in
  let dirty = Option.map (fun s -> s <> "") (git [ "status"; "--porcelain"; "--untracked-files=no" ]) in
  Json.Obj
    [
      ("workload", Json.String workload);
      ("commit", match commit with Some c -> Json.String c | None -> Json.Null);
      ("dirty", match dirty with Some d -> Json.Bool d | None -> Json.Null);
      ("source_digest", Json.String (source_digest ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("domains", Json.Int domains);
      ("seed", Json.Int seed);
      ("seconds", Json.Int seconds);
      ("trace", Json.Bool trace);
      ("warmup", Json.Int warmup);
    ]

(* Prints the result record: provenance and the full detail first, then
   the one-line summary the contract requires as the last line. *)
let finish ~provenance ~detail ~(t : tally) metrics =
  let correct = t.wrong = [] in
  let metrics_json =
    Json.Obj
      (List.map
         (fun x ->
           (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ]))
         metrics)
  in
  let record =
    Json.Obj
      [
        ("provenance", provenance);
        ("correct", Json.Bool correct);
        ("wrong", Json.List (List.rev_map (fun s -> Json.String s) t.wrong));
        ("detail", detail);
        ("metrics", metrics_json);
      ]
  in
  let results = Filename.concat work_dir "results" in
  mkdir_p results;
  let w = str "workload" provenance and seed = int "seed" provenance in
  let trace = match field "trace" provenance with Json.Bool true -> 1 | _ -> 0 in
  let path = Filename.concat results (Printf.sprintf "%s-seed%d-trace%d.json" w seed trace) in
  write_file path (Json.to_string record ^ "\n");
  print_endline (Json.to_string (Json.Obj [ ("provenance", provenance) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 t.attempted));
            ("failed", Json.Int t.failed);
            ("metrics", metrics_json);
          ]));
  if not correct then exit 1
