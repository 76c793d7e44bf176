(* Golden generator for the topology module: pins the canonical
   generated instances — node/channel counts, relay-station totals, the
   MCR rate and the static firing word of block 0 — so any
   change to the generator's seeding, edge order or adapter placement
   shows up as a diff against topology.expected. *)

module Topology = Wp_topo.Topology
module Network = Wp_sim.Network
module Static = Wp_sim.Static
module Shell = Wp_lis.Shell
module Cycle_ratio = Wp_graph.Cycle_ratio

let ratio r = Format.asprintf "%a" Cycle_ratio.ratio_pp r

let pin name =
  let spec =
    match Topology.of_string name with
    | Ok t -> t
    | Error e -> failwith (Printf.sprintf "%s: %s" name e)
  in
  let net = Topology.build spec in
  let rs_total =
    List.fold_left
      (fun acc c -> acc + Network.relay_stations net c)
      0 (Network.channels net)
  in
  Printf.printf "== %s ==\n" name;
  Printf.printf "digest %s\n" (Topology.digest spec);
  Printf.printf "nodes %d  channels %d  rs-total %d\n"
    (Network.node_count net) (Network.channel_count net) rs_total;
  Printf.printf "mcr %s\n" (ratio (Topology.mcr net));
  let st = Static.create ~capacity:2 ~mode:Shell.Plain net in
  Printf.printf "transient %d  period %d  rate %s\n" (Static.transient st)
    (Static.period st)
    (ratio (Static.rate st 0));
  let word = Static.word st 0 in
  Printf.printf "word[b0] %s\n\n"
    (String.init (Array.length word) (fun i -> if word.(i) then '1' else '0'))

let () =
  List.iter pin [ "ring:16"; "mesh:4x4"; "torus:3x3"; "rand:64:seed0" ]
