(* The repository benchmark; see README.md.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe summarize SPANS.jsonl [OBS.jsonl]
     bench.exe pin sweep | pin dynamics FIRST LAST [SEED...]

   The child-* subcommands are the workload processes the benchmark
   starts itself. *)

let workloads = [ "sweep-cold"; "serve-mixed"; "dynamics-1024" ]

let usage () =
  Util.die "usage: bench.exe --workload {%s} --seed N --seconds S --trace 0|1"
    (String.concat "|" workloads)

let measure args =
  let get flag =
    let rec go = function
      | f :: v :: _ when f = flag -> v
      | _ :: rest -> go rest
      | [] -> usage ()
    in
    go args
  in
  let int flag =
    match int_of_string_opt (get flag) with Some v when v >= 0 -> v | _ -> usage ()
  in
  let workload = get "--workload" and seed = int "--seed" and seconds = int "--seconds" in
  let trace =
    match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if not (List.mem workload workloads) then usage ();
  if not (Sys.file_exists "perfbench/pins") then
    Util.die "run from the root of a checkout (perfbench/pins not found)";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* A run must end within 180 s; a stuck one is stopped, its children
     with it (see [Util.live]), and reports no result. *)
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> Util.die "timed out after 170 s"));
  ignore (Unix.alarm 170);
  Util.mkdir_p Util.work_dir;
  let t, metrics, detail =
    match workload with
    | "sweep-cold" -> Sweep_wl.workload ~seed ~seconds ~trace
    | "serve-mixed" -> Serve_wl.workload ~seed ~seconds ~trace
    | _ -> Dyn_wl.workload ~seed ~seconds ~trace
  in
  let domains = if workload = "dynamics-1024" then 1 else 2 in
  let provenance = Util.provenance ~workload ~seed ~seconds ~trace ~domains ~warmup:0 in
  Util.finish ~provenance ~detail ~t metrics

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "child-sweep" :: args -> Sweep_wl.child args
  | "child-dyn" :: args -> Dyn_wl.child args
  | "child-serve" :: args -> Serve_wl.child args
  | "summarize" :: args -> Summarize.main args
  | [ "pin"; "sweep" ] -> Sweep_wl.pin ()
  | "pin" :: "dynamics" :: first :: last :: extra ->
      let first = int_of_string first and last = int_of_string last in
      Dyn_wl.pin (List.init (last - first + 1) (( + ) first) @ List.map int_of_string extra)
  | args -> measure args
