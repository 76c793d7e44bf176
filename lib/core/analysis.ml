module Datapath = Wp_soc.Datapath
module Digraph = Wp_graph.Digraph
module Cycles = Wp_graph.Cycles
module Cycle_ratio = Wp_graph.Cycle_ratio

type loop_report = {
  loop_blocks : string list;
  processes : int;
  stations : int;
  wp1_ratio : Cycle_ratio.ratio;
}

type utilization = node:string -> port:string -> float

(* The static case-study graph: one vertex per block, one edge per
   channel, edge id -> (connection, consumer block, consumer port).  Built
   eagerly, as are the compiled loops below: Pool domains score
   placements concurrently, and OCaml 5 raises [Lazy.Undefined] in a
   domain that forces a lazy value another domain is still forcing. *)
let static_graph =
  let g = Digraph.create () in
  let vertex_of =
    List.map (fun name -> (name, Digraph.add_vertex g ~label:name)) Datapath.block_names
  in
  let v name = List.assoc name vertex_of in
  let edge_info =
    List.map
      (fun (conn, (src_block, src_port), (dst_block, dst_port)) ->
        let e =
          Digraph.add_edge g ~src:(v src_block) ~dst:(v dst_block)
            ~label:(Printf.sprintf "%s.%s" src_block src_port)
        in
        (e, (conn, dst_block, dst_port)))
      Datapath.topology
  in
  (g, edge_info)

let edge_connection edge_info e =
  let conn, _, _ = List.assoc e edge_info in
  conn

(* The topology is fixed, so its elementary loops are enumerated once and
   compiled to connection-index arrays: the worst-loop bound of a count
   vector reduces to an integer scan — this is what makes the 180k-placement
   "Optimal 2" search cheap. *)
type loop = { processes : int; connections : int array }

let compiled_loops =
  let g, edge_info = static_graph in
  Array.of_list
    (List.map
       (fun cycle ->
         {
           processes = List.length cycle;
           connections =
             Array.of_list (List.map (fun e -> Config.index (edge_connection edge_info e)) cycle);
         })
       (Cycles.elementary_cycles g))

let loop_stations counts loop =
  let n = ref 0 in
  for i = 0 to Array.length loop.connections - 1 do
    n := !n + counts.(loop.connections.(i))
  done;
  !n

(* Ratio 1/1: the bound of a netlist with no loop, and the start of the min. *)
let no_loop = { processes = 1; connections = [||] }

let worst_loop counts =
  let worst = ref no_loop and worst_den = ref 1 in
  for i = 0 to Array.length compiled_loops - 1 do
    let loop = compiled_loops.(i) in
    let den = loop.processes + loop_stations counts loop in
    (* m / den < worst m / worst den, by cross-multiplication *)
    if loop.processes * !worst_den < !worst.processes * den then begin
      worst := loop;
      worst_den := den
    end
  done;
  !worst

let wp1_bound config =
  let counts = Config.to_array config in
  let loop = worst_loop counts in
  Cycle_ratio.make_ratio loop.processes (loop.processes + loop_stations counts loop)

let wp1_bound_float config = Cycle_ratio.ratio_to_float (wp1_bound config)

let report_of_cycle config (g, edge_info) cycle =
  let processes = List.length cycle in
  let stations =
    List.fold_left
      (fun acc e -> acc + Config.get config (edge_connection edge_info e))
      0 cycle
  in
  {
    loop_blocks = List.map (fun e -> Digraph.vertex_label g (Digraph.edge_src g e)) cycle;
    processes;
    stations;
    wp1_ratio = Cycle_ratio.make_ratio processes (processes + stations);
  }

let all_loops config =
  let g, edge_info = static_graph in
  let loops =
    List.map (report_of_cycle config (g, edge_info)) (Cycles.elementary_cycles g)
  in
  List.sort (fun a b -> Cycle_ratio.ratio_compare a.wp1_ratio b.wp1_ratio) loops

let critical_loop config =
  match all_loops config with
  | worst :: _ -> worst
  | [] -> invalid_arg "Analysis.critical_loop: acyclic netlist"

let wp2_estimate config ~utilization =
  let g, edge_info = static_graph in
  let loop_estimate cycle =
    let m = float_of_int (List.length cycle) in
    let weighted_stations =
      List.fold_left
        (fun acc e ->
          let conn, dst_block, dst_port = List.assoc e edge_info in
          let u = utilization ~node:dst_block ~port:dst_port in
          acc +. (float_of_int (Config.get config conn) *. u))
        0.0 cycle
    in
    m /. (m +. weighted_stations)
  in
  List.fold_left
    (fun acc cycle -> min acc (loop_estimate cycle))
    1.0
    (Cycles.elementary_cycles g)

let utilization_of_report report ~node ~port =
  match Wp_sim.Monitor.utilization report ~node ~port with
  | u -> u
  | exception Not_found -> 1.0
