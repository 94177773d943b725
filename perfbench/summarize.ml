(* Folds a traced run into a per-layer table.

   Inputs are the benchmark's span file (Spans) and, optionally, the
   program's own Obs JSONL trace.  A layer is a span name; its self time
   is the summed duration of its spans minus the time their child spans
   cover.  Self times of one span tree add up to the root's duration, so
   the root's own self time is the part no layer accounts for: a traced
   run is judged on that share, which must stay within 5%.  From the Obs
   trace the last counter snapshot gives counter totals (reported with
   their rate over the traced wall time), and program spans are totalled
   by name and, for [serve.request], by operation. *)

type layer = { layer : string; self_s : float; calls : int }

type t = {
  wall_s : float;  (** duration of the root span(s) *)
  layers : layer list;  (** descending self time; the root is ["run"] *)
  counters : (string * int) list;
  program_spans : (string * (int * float)) list;  (** name -> count, total seconds *)
}

let lines path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_lines
    |> List.filter_map (fun l ->
           if String.trim l = "" then None
           else match Json.of_string l with Ok j -> Some j | Error _ -> None)

let geti name j = Option.bind (Json.member name j) Json.as_int

let of_files ?obs spans_path =
  let spans =
    List.filter_map
      (fun j ->
        match (Json.member "name" j, geti "id" j, geti "parent" j, geti "dur_ns" j) with
        | Some (Json.String name), Some id, Some parent, Some dur -> Some (id, parent, name, dur)
        | _ -> None)
      (lines spans_path)
  in
  let child_ns = Hashtbl.create 256 in
  List.iter
    (fun (_, parent, _, dur) ->
      Hashtbl.replace child_ns parent
        (dur + Option.value ~default:0 (Hashtbl.find_opt child_ns parent)))
    spans;
  let acc = Hashtbl.create 64 in
  List.iter
    (fun (id, _, name, dur) ->
      let self = dur - Option.value ~default:0 (Hashtbl.find_opt child_ns id) in
      let s, c = Option.value ~default:(0, 0) (Hashtbl.find_opt acc name) in
      Hashtbl.replace acc name (s + self, c + 1))
    spans;
  let wall_ns =
    List.fold_left (fun a (_, parent, _, dur) -> if parent = 0 then a + dur else a) 0 spans
  in
  let layers =
    Hashtbl.fold
      (fun layer (ns, calls) l -> { layer; self_s = float_of_int ns *. 1e-9; calls } :: l)
      acc []
    |> List.sort (fun a b -> compare b.self_s a.self_s)
  in
  let obs = match obs with Some p -> lines p | None -> [] in
  let counters =
    List.fold_left
      (fun acc j ->
        match (Json.member "ev" j, Json.member "counters" j) with
        | Some (Json.String "counters"), Some (Json.Obj kvs) ->
            List.filter_map (fun (k, v) -> Option.map (fun i -> (k, i)) (Json.as_int v)) kvs
        | _ -> acc)
      [] obs
  in
  let program = Hashtbl.create 16 in
  List.iter
    (fun j ->
      match (Json.member "ev" j, Json.member "name" j, geti "dur_us" j) with
      | Some (Json.String "span"), Some (Json.String name), Some dur ->
          let name =
            match Option.bind (Json.member "args" j) (Json.member "op") with
            | Some (Json.String op) -> name ^ "." ^ op
            | _ -> name
          in
          let c, s = Option.value ~default:(0, 0.) (Hashtbl.find_opt program name) in
          Hashtbl.replace program name (c + 1, s +. (float_of_int dur *. 1e-6))
      | _ -> ())
    obs;
  {
    wall_s = float_of_int wall_ns *. 1e-9;
    layers;
    counters;
    program_spans = List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) program []);
  }

let self t name =
  match List.find_opt (fun l -> l.layer = name) t.layers with Some l -> l.self_s | None -> 0.

let counter t name = Option.value ~default:0 (List.assoc_opt name t.counters)

let program_span t name =
  Option.value ~default:(0, 0.) (List.assoc_opt name t.program_spans)

(* Share of the traced wall time no layer below the root accounts for. *)
let unattributed_frac t = Util.ratio (self t "run") t.wall_s

(* Whether the layers account for the traced wall time within 5%. *)
let attributed t = t.wall_s > 0. && unattributed_frac t <= 0.05

let to_json t =
  Json.Obj
    [
      ("wall_s", Json.Float t.wall_s);
      ("unattributed_frac", Json.Float (unattributed_frac t));
      ( "layers",
        Json.List
          (List.map
             (fun l ->
               Json.Obj
                 [
                   ("layer", Json.String l.layer); ("self_s", Json.Float l.self_s);
                   ("share", Json.Float (Util.ratio l.self_s t.wall_s));
                   ("calls", Json.Int l.calls);
                 ])
             t.layers) );
      ( "counters",
        Json.Obj
          (List.map
             (fun (k, v) ->
               ( k,
                 Json.Obj
                   [
                     ("total", Json.Int v);
                     ("per_s", Json.Float (Util.ratio (float_of_int v) t.wall_s));
                   ] ))
             t.counters) );
      ( "program_spans",
        Json.Obj
          (List.map
             (fun (k, (c, s)) -> (k, Json.Obj [ ("count", Json.Int c); ("total_s", Json.Float s) ]))
             t.program_spans) );
    ]

let print oc t =
  Printf.fprintf oc "%-28s %10s %7s %8s\n" "layer" "self_s" "share" "calls";
  List.iter
    (fun l ->
      Printf.fprintf oc "%-28s %10.4f %6.1f%% %8d\n" l.layer l.self_s
        (100. *. Util.ratio l.self_s t.wall_s)
        l.calls)
    t.layers;
  Printf.fprintf oc "%-28s %10.4f (%.1f%% in no layer)\n" "traced wall" t.wall_s
    (100. *. unattributed_frac t);
  if t.counters <> [] then begin
    Printf.fprintf oc "\n%-36s %12s %12s\n" "counter" "total" "per_s";
    List.iter
      (fun (k, v) ->
        Printf.fprintf oc "%-36s %12d %12.1f\n" k v (Util.ratio (float_of_int v) t.wall_s))
      t.counters
  end;
  if t.program_spans <> [] then begin
    Printf.fprintf oc "\n%-36s %8s %10s\n" "program span" "count" "total_s";
    List.iter
      (fun (k, (c, s)) -> Printf.fprintf oc "%-36s %8d %10.4f\n" k c s)
      t.program_spans
  end

(* [bench.exe summarize SPANS.jsonl [OBS.jsonl]]: prints the table and
   exits 1 if more than 5% of the traced wall time is in no layer. *)
let main = function
  | [ spans ] | [ spans; _ ] as args ->
      let obs = match args with [ _; o ] -> Some o | _ -> None in
      let t = of_files ?obs spans in
      print stdout t;
      if not (attributed t) then exit 1
  | _ -> Util.die "usage: bench.exe summarize SPANS.jsonl [OBS.jsonl]"
