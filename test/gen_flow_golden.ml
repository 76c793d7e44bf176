(* Golden generator for the scaled co-optimization flow: pins the
   [flow_front.json] artifact of three canonical runs — the default
   rand:1000 flow, mesh:16x16, and a Pareto-objective rand:1000 flow
   with its own seed — so any change to the incremental evaluator, the
   placement bookkeeping, the evaluation cache or the annealer's
   trajectory shows up as a diff against flow.expected.

   The artifact is byte-identical for any domain count; one domain
   keeps the test light next to the rest of the suite. *)

module Flow_spec = Wp_floorplan.Flow_spec
module Flow_scale = Wp_floorplan.Flow_scale

let pin name ?objective ?seed topology =
  let spec =
    match Flow_spec.of_args ~topology ?objective ?seed () with
    | Ok s -> s
    | Error e -> failwith (Printf.sprintf "%s: %s" name e)
  in
  Printf.printf "== %s ==\n" name;
  print_string (Flow_scale.front_to_json ~spec (Flow_scale.run ~jobs:1 ~spec ()));
  print_newline ()

let () =
  pin "rand:1000" "rand:1000";
  pin "mesh:16x16" "mesh:16x16";
  pin "rand:1000 --seed 7 --objective pareto" ~seed:7 ~objective:"pareto" "rand:1000"
