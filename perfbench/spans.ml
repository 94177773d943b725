(* The benchmark's own timing spans around its calls into each layer.

   Spans are kept in memory on the calling domain and written out when
   the traced run ends, one JSON object per line in the schema of the
   program's Obs traces, plus an id and the id of the enclosing span so
   the summarizer can take self times without reconstructing nesting
   from timestamps.  Times are nanoseconds on the same monotonic clock
   Obs uses. *)

type t = { id : int; parent : int; name : string; t0 : int64; t1 : int64 }

let finished : t list ref = ref []
let open_ids = ref [ 0 ]
let next_id = ref 1

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let span name f =
  let id = fresh_id () in
  let parent = List.hd !open_ids in
  open_ids := id :: !open_ids;
  let t0 = Util.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      open_ids := List.tl !open_ids;
      finished := { id; parent; name; t0; t1 = Util.now_ns () } :: !finished)
    f

(* A span whose interval was measured elsewhere. *)
let add name ~t0 ~t1 =
  finished := { id = fresh_id (); parent = List.hd !open_ids; name; t0; t1 } :: !finished

(* Consecutive spans from [t0], one per (name, length in ns), for time
   measured in pieces elsewhere; whatever the pieces leave of the
   enclosing span stays unattributed. *)
let laid ~t0 parts =
  ignore
    (List.fold_left
       (fun start (name, ns) ->
         let stop = Int64.add start (Int64.of_float ns) in
         add name ~t0:start ~t1:stop;
         stop)
       t0 parts)

(* Splits [t0, t1] into consecutive spans, one per (name, weight) — how
   the wall time of one parallel section is shared between the layers
   its workers ran, in proportion to their busy time. *)
let split ~t0 ~t1 parts =
  let total = List.fold_left (fun a (_, w) -> a +. w) 0. parts in
  let len = Int64.to_float (Int64.sub t1 t0) in
  laid ~t0 (List.map (fun (name, w) -> (name, if total = 0. then 0. else len *. w /. total)) parts)

(* Forgets every span, so one process can write several traces. *)
let clear () =
  finished := [];
  open_ids := [ 0 ]

let write path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("ev", Json.String "span"); ("name", Json.String s.name);
                    ("ts_ns", Json.Int (Int64.to_int s.t0));
                    ("dur_ns", Json.Int (Int64.to_int (Int64.sub s.t1 s.t0)));
                    ("tid", Json.Int 0); ("id", Json.Int s.id); ("parent", Json.Int s.parent);
                  ]));
          output_char oc '\n')
        (List.rev !finished))
