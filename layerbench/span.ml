(* Outside-in spans: the benchmark wraps its own calls into each
   library's public functions, so a traced run can say which layer the
   host time went to without touching the libraries.  Spans live in
   memory while the run lasts and are written at exit as Chrome
   trace_event JSON, the same shape [Wp_sim.Telemetry.chrome_of_trace]
   emits.

   A span's layer is the prefix of its name before the first dot
   ("core.Runner.experiments_spec" is in layer "core"); the benchmark's
   own code is layer "bench".  Spans are recorded from the main thread
   only; a child process records its own and the parent imports them
   (the monotonic clock is shared by every process on the host). *)

type span = {
  id : int;
  name : string;
  layer : string;
  parent : int;  (* -1 for a root *)
  tag : int;     (* iteration or request id *)
  async : bool;  (* a leaf that may overlap its siblings (pipelined requests) *)
  start_ns : int64;
  mutable stop_ns : int64;
}

let on = ref false
let recorded : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let current_tag = ref 0

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let fresh ~async ~parent ~tag name start_ns =
  let s =
    { id = !next_id; name; layer = layer_of name; parent; tag; async; start_ns;
      stop_ns = start_ns }
  in
  incr next_id;
  s

let parent_id () = match !stack with s :: _ -> s.id | [] -> -1

(* [with_ name f] runs [f] inside a span; free when tracing is off. *)
let with_ name f =
  if not !on then f ()
  else begin
    let s = fresh ~async:false ~parent:(parent_id ()) ~tag:!current_tag name (Measure.now_ns ()) in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- Measure.now_ns ();
        stack := List.tl !stack;
        recorded := s :: !recorded)
      f
  end

(* An already-finished interval, e.g. one pipelined request from send
   to reply; it overlaps its siblings, so attribution takes the union. *)
let record_async name ~tag ~start_ns ~stop_ns =
  if !on then begin
    let s = fresh ~async:true ~parent:(parent_id ()) ~tag name start_ns in
    s.stop_ns <- stop_ns;
    recorded := s :: !recorded
  end

let spans () = List.rev !recorded

(* Spans started between two [mark ()]s. *)
let mark () = !next_id
let spans_between m0 m1 = List.filter (fun s -> s.id >= m0 && s.id < m1) (spans ())

(* A child process's spans travel as lines "span <id> <parent> <start>
   <stop> <name>"; [export] writes them, [import] re-numbers them under
   the current span. *)
let export oc =
  List.iter
    (fun s -> Printf.fprintf oc "span %d %d %Ld %Ld %s\n" s.id s.parent s.start_ns s.stop_ns s.name)
    (spans ())

let import lines =
  if !on then begin
    let root = parent_id () in
    let ids = Hashtbl.create 16 in
    let parsed =
      List.filter_map
        (fun line ->
          Scanf.sscanf_opt line "span %d %d %Ld %Ld %s@\n" (fun a b c d e -> (a, b, c, d, e)))
        lines
    in
    (* a parent starts, and so is numbered, before its children *)
    List.iter
      (fun (id, parent, start_ns, stop_ns, name) ->
        let parent = Option.value ~default:root (Hashtbl.find_opt ids parent) in
        let s = fresh ~async:false ~parent ~tag:!current_tag name start_ns in
        s.stop_ns <- stop_ns;
        Hashtbl.replace ids id s.id;
        recorded := s :: !recorded)
      (List.sort compare parsed)
  end

(* Length of the union of intervals, in seconds. *)
let union_seconds intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
          if Int64.compare a cb <= 0 then (acc, Some (ca, if Int64.compare b cb > 0 then b else cb))
          else (acc +. Measure.seconds_between ca cb, Some (a, b)))
      (0.0, None) sorted
  in
  match last with Some (a, b) -> total +. Measure.seconds_between a b | None -> total

(* Self time per layer: a span's duration minus the union of its
   children's intervals.  Async spans are leaves that may overlap: the
   async children of one span count once per layer, as the union of
   their intervals.  Returns (layer, seconds) sorted by time, and the
   summed duration of the root spans. *)
let self_times ss =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) ss;
  let by_layer = Hashtbl.create 16 in
  let add layer x =
    Hashtbl.replace by_layer layer (x +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer layer))
  in
  List.iter
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let covered = union_seconds (List.map (fun k -> (k.start_ns, k.stop_ns)) kids) in
      if not s.async then add s.layer (Measure.seconds_between s.start_ns s.stop_ns -. covered);
      let async_layers =
        List.sort_uniq compare (List.filter_map (fun k -> if k.async then Some k.layer else None) kids)
      in
      List.iter
        (fun layer ->
          add layer
            (union_seconds
               (List.filter_map
                  (fun k -> if k.async && k.layer = layer then Some (k.start_ns, k.stop_ns) else None)
                  kids)))
        async_layers)
    ss;
  let roots =
    List.fold_left
      (fun acc s -> if s.parent = -1 then acc +. Measure.seconds_between s.start_ns s.stop_ns else acc)
      0.0 ss
  in
  let layers = Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_layer [] in
  (List.sort (fun (_, a) (_, b) -> compare b a) layers, roots)

(* The share of root time left in the benchmark's own layer. *)
let unattributed_share ss =
  let layers, roots = self_times ss in
  Option.value ~default:0.0 (List.assoc_opt "bench" layers) /. Float.max roots 1e-9

(* Chrome trace_event JSON: one complete ("X") event per span, in
   microseconds from the first span; async spans get their own track per
   pipelining slot. *)
let chrome ss =
  let t0 =
    List.fold_left (fun acc s -> if Int64.compare s.start_ns acc < 0 then s.start_ns else acc)
      Int64.max_int ss
  in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  Buffer.add_string buf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"layerbench\"}}";
  List.iter
    (fun s ->
      Printf.bprintf buf
        ",\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"tag\":%d}}"
        (Measure.json_string s.name) (Measure.json_string s.layer)
        (if s.async then 1 + (s.tag mod 8) else 0)
        (Measure.seconds_between t0 s.start_ns *. 1e6)
        (Measure.seconds_between s.start_ns s.stop_ns *. 1e6)
        s.id s.parent s.tag)
    ss;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents buf
