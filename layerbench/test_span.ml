(* Span self-time attribution: nesting, and the union of overlapping
   async spans. *)

let ms x = Int64.of_int (x * 1_000_000)

let span ?(async = false) id parent name a b =
  { Span.id; name; layer = Span.layer_of name; parent; tag = 0; async; start_ns = ms a; stop_ns = ms b }

let close what expected got =
  if Float.abs (expected -. got) > 1e-9 then begin
    Printf.printf "FAIL %s: expected %g, got %g\n" what expected got;
    exit 1
  end

let layer layers name = Option.value ~default:0.0 (List.assoc_opt name layers)

let () =
  (* bench 0-100 > core 10-60 > sim 20-30 and sim 40-45; soc 70-80 *)
  let nested =
    [ span 0 (-1) "bench.iteration" 0 100;
      span 1 0 "core.Runner.run" 10 60;
      span 2 1 "sim.Fast.run" 20 30;
      span 3 1 "sim.Fast.run" 40 45;
      span 4 0 "soc.Cpu.run" 70 80 ]
  in
  let layers, roots = Span.self_times nested in
  close "nested roots" 0.100 roots;
  close "nested bench" 0.040 (layer layers "bench");
  close "nested core" 0.035 (layer layers "core");
  close "nested sim" 0.015 (layer layers "sim");
  close "nested soc" 0.010 (layer layers "soc");
  close "nested unattributed" 0.4 (Span.unattributed_share nested);
  (* pipelined requests: core 10-40, 20-50 and 30-35 overlap (union
     10-50), core 70-75 stands alone; one wire span overlaps them *)
  let piped =
    [ span 0 (-1) "bench.burst" 0 100;
      span ~async:true 1 0 "core.Service.request" 10 40;
      span ~async:true 2 0 "core.Service.request" 20 50;
      span ~async:true 3 0 "core.Service.request" 30 35;
      span ~async:true 4 0 "core.Service.request" 70 75;
      span ~async:true 5 0 "util.Frame.write" 45 72 ]
  in
  let layers, roots = Span.self_times piped in
  close "piped roots" 0.100 roots;
  close "piped core" 0.045 (layer layers "core");
  close "piped util" 0.027 (layer layers "util");
  (* the parent keeps what no child covers: 0-10, 75-100 *)
  close "piped bench" 0.035 (layer layers "bench");
  close "union" 0.040 (Span.union_seconds [ (ms 10, ms 40); (ms 20, ms 50) ]);
  close "disjoint union" 0.020 (Span.union_seconds [ (ms 0, ms 10); (ms 20, ms 30) ]);
  print_endline "span attribution: ok"
