(* The traced run's per-layer decomposition.  For each workload it runs
   iteration 0's inputs once through the workload's own path, then
   calls each library's public functions directly from here, one layer
   at a time, each call in a span.  Each part also checks that the
   direct calls reproduce what the workload path computed, so the layer
   figures describe the same work; a mismatch is a failed op. *)

module Datapath = Wp_soc.Datapath
module Programs = Wp_soc.Programs
module Cpu = Wp_soc.Cpu
module Config = Wp_core.Config
module Runner = Wp_core.Runner
module Table1 = Wp_core.Table1
module Optimizer = Wp_core.Optimizer
module Experiment = Wp_core.Experiment
module Service = Wp_core.Service
module Wire = Wp_core.Wire
module Topology = Wp_topo.Topology
module Sweep = Wp_topo.Sweep
module Network = Wp_sim.Network
module Sim = Wp_sim.Sim
module Static = Wp_sim.Static
module Batch = Wp_sim.Batch
module Incremental = Wp_graph.Cycle_ratio.Incremental
module Shell = Wp_lis.Shell

type metric = { name : string; value : float; unit : string }

type part = {
  metrics : metric list;
  attempted : int;
  failed : int;
  mismatches : string list;  (* direct calls that disagree with the workload path *)
}

let m name value unit = { name; value; unit }

(* Seconds accumulated over many spanned calls. *)
let accumulate () =
  let total = ref 0.0 in
  let run name f =
    let r, s = Measure.timed (fun () -> Span.with_ name f) in
    total := !total +. s;
    r
  in
  (total, run)

let ratio a b = float_of_int a /. float_of_int (max 1 b)

(* Allocation is read only around calls that run on this domain: OCaml
   5.1's Gc.minor_words counts the calling domain alone. *)
let words_during f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* ------------------------------------------------------------------ *)
(* table1: golden, SoC runs, optimiser, Runner overhead                *)
(* ------------------------------------------------------------------ *)

let table1_part ~seed =
  let inp = Work.table1_inputs ~seed 0 in
  let (srows, mrows, stats), runner_s =
    Measure.timed (fun () -> Span.with_ "bench.table1_runner_path" (fun () -> Work.table1_tables inp))
  in
  let machine = Datapath.Pipelined in
  let tables =
    [ (Programs.extraction_sort ~values:inp.Work.sort_values, srows, 1);
      (Programs.matrix_multiply ~n:inp.Work.n ~a:inp.Work.a ~b:inp.Work.b, mrows, 2) ]
  in
  let mismatches = ref [] in
  let golden_s, golden = accumulate () in
  let goldens =
    List.map
      (fun (p, _, _) -> golden "soc.Cpu.run_golden" (fun () -> Cpu.run_golden ~engine:Sim.Fast ~machine p))
      tables
  in
  let cpu_s, cpu = accumulate () in
  let cpu_cycles = ref 0 in
  let (), words =
    words_during (fun () ->
        List.iter2
          (fun (program, rows, _) g ->
            List.iter
              (fun (row : Table1.row) ->
                let r = row.Table1.record in
                List.iter
                  (fun (mode, expect) ->
                    let res =
                      cpu "soc.Cpu.run" (fun () ->
                          Cpu.run ~engine:Sim.Fast ~machine ~mode ~rs:(Config.to_fun r.Experiment.config)
                            ~mcr_work:g.Cpu.cycles program)
                    in
                    cpu_cycles := !cpu_cycles + res.Cpu.cycles;
                    if res.Cpu.cycles <> expect then
                      mismatches :=
                        Printf.sprintf "table1 row %s: %d vs %d cycles" row.Table1.label res.Cpu.cycles expect
                        :: !mismatches)
                  [ (Shell.Plain, r.Experiment.wp1.Cpu.cycles); (Shell.Oracle, r.Experiment.wp2.Cpu.cycles) ])
              rows)
          tables goldens)
  in
  let cycles = Measure.sum_int (List.map (fun g -> g.Cpu.cycles) goldens) + !cpu_cycles in
  let probes = ref 0 in
  let opt_s, opt = accumulate () in
  List.iter
    (fun (program, rows, k) ->
      let objective c =
        incr probes;
        Experiment.wp2_cycles_objective_spec ~spec:Work.t1_spec ~machine ~program c
      in
      let config, _ =
        opt "core.Optimizer.optimal" (fun () -> Optimizer.optimal ~search:(Work.optimal_search k) ~objective ())
      in
      let label = Printf.sprintf "Optimal %d (no CU-IC)" k in
      match List.find_opt (fun (r : Table1.row) -> r.Table1.label = label) rows with
      | Some row when Config.equal row.Table1.record.Experiment.config config -> ()
      | _ -> mismatches := ("table1 " ^ label ^ " differs from the Runner path") :: !mismatches)
    tables;
  let runner_cycles = Work.table_cycles srows + Work.table_cycles mrows in
  if runner_cycles <> cycles then
    mismatches := Printf.sprintf "table1 cycles %d direct vs %d Runner" cycles runner_cycles :: !mismatches;
  let lookups = stats.Runner.cache_hits + stats.Runner.cache_misses in
  {
    metrics =
      [ m "soc.cpu_run_s" !cpu_s "s";
        m "soc.golden_s" !golden_s "s";
        m "soc.words_per_cycle" (words /. float_of_int (max 1 !cpu_cycles)) "words/cycle";
        m "soc.sim_cycles" (float_of_int cycles) "cycles";
        m "soc.sim_cycles_per_s" (float_of_int runner_cycles /. runner_s) "1/s";
        m "core.optimizer_s" !opt_s "s";
        m "core.optimizer_probes" (float_of_int !probes) "count";
        m "core.runner_overhead_s" (runner_s -. !golden_s -. !cpu_s -. !opt_s) "s";
        m "core.runner_cache_hit_ratio" (ratio stats.Runner.cache_hits lookups) "ratio" ];
    attempted = 1;
    failed = (if !mismatches = [] then 0 else 1);
    mismatches = !mismatches;
  }

(* ------------------------------------------------------------------ *)
(* sweep: topology build, MCR, schedule, Batch, Static, Fast, reference *)
(* ------------------------------------------------------------------ *)

let sweep_budget = 2048
let capacity = 2

(* Sweep's reference spot-check rule. *)
let reference_checked (sc : Sweep.scenario) net =
  Network.node_count net <= 128 && sc.Sweep.topo.Topology.seed mod 4 = 0

let sweep_part ~seed =
  let scenarios = Work.sweep_scenarios ~seed 0 in
  let results, sweep_s =
    Measure.timed (fun () ->
        Span.with_ "topo.Sweep.run" (fun () -> Sweep.run ~jobs:1 ~check_engines:true scenarios))
  in
  let expected = Array.of_list (List.map (fun r -> r.Sweep.r_cycles) results) in
  let mismatches = ref [] in
  let check who lane c =
    if c <> expected.(lane) then
      mismatches := Printf.sprintf "sweep lane %d: %s %d vs Sweep %d cycles" lane who c expected.(lane)
                    :: !mismatches
  in
  let build_s, build = accumulate () in
  let nets =
    List.map (fun (sc : Sweep.scenario) -> build "topo.Topology.build" (fun () -> Topology.build sc.Sweep.topo))
      scenarios
  in
  let mcr_s, mcr = accumulate () in
  List.iter (fun net -> ignore (mcr "graph.Topology.mcr" (fun () -> Topology.mcr ~capacity net))) nets;
  let lanes =
    Array.of_list
      (List.map
         (fun net ->
           { Batch.net; mode = Shell.Plain; capacity; fault = Wp_sim.Fault.none;
             max_cycles = sweep_budget; cancel = Wp_util.Cancel.never })
         nets)
  in
  let b = Span.with_ "sim.Batch.create" (fun () -> Batch.create lanes) in
  let (_ : Wp_sim.Engine.outcome array), batch_s =
    Measure.timed (fun () -> Span.with_ "sim.Batch.run" (fun () -> Batch.run b))
  in
  List.iteri (fun lane _ -> check "batch" lane (Batch.lane_cycles b ~lane)) nets;
  let schedule_s, schedule = accumulate () in
  let static_s, static = accumulate () in
  List.iteri
    (fun lane net ->
      let st = schedule "graph.Static.create" (fun () -> Static.create ~capacity ~mode:Shell.Plain net) in
      ignore (static "sim.Static.run" (fun () -> Static.run ~max_cycles:sweep_budget st));
      check "static" lane (Static.cycles st))
    nets;
  let fast_s, fast = accumulate () in
  let fast_cycles = ref 0 in
  let (), words =
    words_during (fun () ->
        List.iteri
          (fun lane net ->
            let sim =
              fast "sim.Fast.run" (fun () ->
                  let sim = Sim.create ~engine:Sim.Fast ~capacity ~mode:Shell.Plain net in
                  ignore (Sim.run ~max_cycles:sweep_budget sim);
                  sim)
            in
            fast_cycles := !fast_cycles + Sim.cycles sim;
            check "fast" lane (Sim.cycles sim))
          nets)
  in
  let ref_s, reference = accumulate () in
  List.iteri
    (fun lane (sc, net) ->
      if reference_checked sc net then begin
        let sim =
          reference "sim.Engine.run" (fun () ->
              let sim = Sim.create ~engine:Sim.Reference ~capacity ~mode:Shell.Plain net in
              ignore (Sim.run ~max_cycles:sweep_budget sim);
              sim)
        in
        check "reference" lane (Sim.cycles sim)
      end)
    (List.combine scenarios nets);
  let total = Measure.sum_int (Array.to_list expected) in
  {
    metrics =
      [ m "topo.build_s" !build_s "s";
        m "graph.mcr_s" !mcr_s "s";
        m "graph.schedule_s" !schedule_s "s";
        m "sim.static_run_s" !static_s "s";
        m "sim.reference_run_s" !ref_s "s";
        m "sim.batch_run_s" batch_s "s";
        m "sim.batch_lanes" (float_of_int (Array.length lanes)) "count";
        m "sim.fast_run_s" !fast_s "s";
        m "sim.fast_words_per_cycle" (words /. float_of_int (max 1 !fast_cycles)) "words/cycle";
        m "sim.sim_cycles" (float_of_int total) "cycles";
        m "sim.sim_cycles_per_s" (float_of_int total /. sweep_s) "1/s" ];
    attempted = 1;
    failed = (if !mismatches = [] then 0 else 1);
    mismatches = !mismatches;
  }

(* ------------------------------------------------------------------ *)
(* flow: the scaled flow, its check, the pool, incremental MCR         *)
(* ------------------------------------------------------------------ *)

(* A flow-shaped perturbation sequence on the capacity-extended graph of
   one rand:1000 topology: move one block, re-derive its channels'
   relay stations (one up or down), re-solve.  Channel [c] owns edges
   [2c] (time [1 + rs]) and [2c + 1] (tokens [capacity + 2 rs - 1]), as
   in Flow_scale.  Runs in the flow child, under its deadline. *)
let incremental_replay ~topology ~seed ~steps =
  let spec = match Topology.of_string topology with Ok t -> t | Error e -> invalid_arg e in
  let net = Topology.build spec in
  let g, tokens, time = Static.capacity_graph ~capacity net in
  let inc = Incremental.create g ~cost:tokens ~time in
  let incident = Array.make (Network.node_count net) [] in
  List.iter
    (fun c ->
      let s, _ = Network.channel_src net c and d, _ = Network.channel_dst net c in
      incident.(s) <- c :: incident.(s);
      if d <> s then incident.(d) <- c :: incident.(d))
    (Network.channels net);
  let rs = Array.init (Network.channel_count net) (Network.relay_stations net) in
  let prng = Random.State.make [| seed |] in
  let solve_s, solve = accumulate () in
  ignore (Incremental.solve inc);
  for _ = 1 to steps do
    let v = Random.State.int prng (Network.node_count net) in
    List.iter
      (fun c ->
        let k = max 0 (rs.(c) + Random.State.int prng 3 - 1) in
        if k <> rs.(c) then begin
          rs.(c) <- k;
          Incremental.set_time inc (2 * c) (1 + k);
          Incremental.set_cost inc ((2 * c) + 1) ((2 * k) + 1)
        end)
      incident.(v);
    ignore (solve "graph.Incremental.solve" (fun () -> Incremental.solve inc))
  done;
  (!solve_s /. float_of_int steps *. 1e6, Incremental.solves inc)

(* The replay as a child of its own, under the flow deadline. *)
let replay_in_child ~topology ~seed =
  let status, lines =
    Span.with_ "bench.replay_child" (fun () ->
        let status, out, _ =
          Measure.run_child ~deadline:Work.flow_deadline Sys.executable_name
            [ "--replay-child"; topology; "--flow-seed"; string_of_int seed;
              "--trace"; (if !Span.on then "1" else "0") ]
        in
        let lines = String.split_on_char '\n' out in
        Span.import lines;
        (status, lines))
  in
  match
    (status, List.find_map (fun l -> Scanf.sscanf_opt l "replay %f %d" (fun us n -> (us, n))) lines)
  with
  | `Exited 0, Some r -> Ok r
  | st, _ -> Error (Printf.sprintf "incremental replay on %s: %s" topology (Measure.status_to_string st))

let flow_part ~seed =
  (* the first of the run's flows that completes at both job counts;
     every one that does not is a failed op *)
  let rec attempt i failures =
    let topology, flow_seed = Work.flow_args ~seed i in
    let one jobs = Work.run_flow ~jobs ~topology ~flow_seed () in
    match one 2 with
    | Error e when i < 2 -> attempt (i + 1) (e :: failures)
    | Error e -> (topology, flow_seed, Error e, Error e, e :: failures)
    | Ok r2 -> (
      match one 1 with
      | Ok r1 -> (topology, flow_seed, Ok r2, Ok r1, failures)
      | Error e when i < 2 -> attempt (i + 1) (e :: failures)
      | Error e -> (topology, flow_seed, Ok r2, Error e, e :: failures))
  in
  let topology, flow_seed, r2, r1, failures = attempt 0 [] in
  let replay = replay_in_child ~topology ~seed:flow_seed in
  let failures = failures @ (match replay with Error e -> [ e ] | Ok _ -> []) in
  let get f = function Ok r -> f r | Error _ -> nan in
  let bound_ok = get (fun r -> if r.Work.bound_ok then 1.0 else 0.0) r2 in
  let mismatches =
    failures @ (if bound_ok = 0.0 then [ "flow best bound differs from the scratch bound" ] else [])
  in
  let evals = get (fun r -> float_of_int r.Work.evaluations) r2 in
  let hits = get (fun r -> float_of_int r.Work.cache_hits) r2 in
  {
    metrics =
      [ m "floorplan.run_s" (get (fun r -> r.Work.run_s) r2) "s";
        m "floorplan.check_s" (get (fun r -> r.Work.check_s) r2) "s";
        m "floorplan.evaluations" evals "count";
        m "floorplan.eval_cache_hit_ratio" (hits /. Float.max 1.0 (evals +. hits)) "ratio";
        m "util.pool_speedup" (get (fun r -> r.Work.run_s) r1 /. get (fun r -> r.Work.run_s) r2) "x";
        m "graph.incremental_solve_us" (match replay with Ok (us, _) -> us | Error _ -> nan) "us";
        m "graph.incremental_solves"
          (match replay with Ok (_, n) -> float_of_int n | Error _ -> nan) "count" ];
    attempted = List.length mismatches + 1;
    failed = List.length mismatches;
    mismatches;
  }

(* ------------------------------------------------------------------ *)
(* serve: open-loop latency split by hit and miss, wire round trip     *)
(* ------------------------------------------------------------------ *)

let serve_part ~seed ~wp_cli =
  let baseline = Hashtbl.create 64 in
  let d = Span.with_ "bench.spawn_daemon" (fun () -> Work.spawn_daemon ~wp_cli) in
  let warm_failed = Span.with_ "bench.warm_hot_set" (fun () -> Work.warm d baseline) in
  let s = Measure.derive seed 1_000_001 in
  let n = 1000 in
  let p =
    Span.with_ "bench.open_loop" (fun () ->
        Work.open_loop d (Array.init n (Work.serve_key ~s)) (Work.poisson_due ~s ~n ~rate:Work.open_rate))
  in
  let pings =
    List.init 200 (fun _ ->
        snd
          (Measure.timed (fun () ->
               Span.with_ "core.Service.Client.call" (fun () ->
                   Service.Client.call d.Work.conn ~tag:0 Wire.Ping))))
  in
  let stats = try Some (Service.Client.call d.Work.conn ~tag:0 Wire.Stats) with _ -> None in
  let status, _ = Work.stop_daemon d in
  let sample = Work.phase_sample ~baseline p in
  let lat, slo, late_p99 = Work.open_figures p in
  let of_parity k =
    List.filteri (fun j _ -> j land 1 = k) (Array.to_list p.Work.latency) |> List.filter Float.is_finite
  in
  let busy =
    Array.fold_left (fun acc r -> match r with Some (Wire.Busy _) -> acc + 1 | _ -> acc) 0 p.Work.replies
  in
  let hit_ratio, shed =
    match stats with
    | Some (Wire.Stats_reply st) ->
      (ratio st.st_cache_hits (st.st_cache_hits + st.st_cache_misses), float_of_int st.st_shed)
    | _ -> (nan, nan)
  in
  let mismatches =
    (if warm_failed > 0 then [ "serve: warming the hot set failed" ] else [])
    @ (if sample.Work.failed > 0 then [ Printf.sprintf "serve: %d failed replies" sample.Work.failed ] else [])
    @ if status <> `Exited 0 then [ "serve daemon: " ^ Measure.status_to_string status ] else []
  in
  {
    metrics =
      [ m "core.wire_roundtrip_us" (1e6 *. Measure.median pings) "us";
        m "core.hit_p50_ms" (Work.percentile_ms 0.5 (of_parity 1)) "ms";
        m "core.miss_p50_ms" (Work.percentile_ms 0.5 (of_parity 0)) "ms";
        m "core.serve_cache_hit_ratio" hit_ratio "ratio";
        m "core.busy_replies" (float_of_int busy) "count";
        m "core.shed" shed "count";
        m "bench.open_p50_ms" (Work.percentile_ms 0.5 lat) "ms";
        m "bench.open_p99_ms" (Work.percentile_ms 0.99 lat) "ms";
        m "bench.slo_share" slo "ratio";
        m "bench.generator_late_ms" late_p99 "ms" ];
    attempted = 1;
    failed = (if mismatches = [] then 0 else 1);
    mismatches;
  }

let parts ~seed ~wp_cli =
  [ ("table1", fun () -> table1_part ~seed);
    ("sweep", fun () -> sweep_part ~seed);
    ("flow", fun () -> flow_part ~seed);
    ("serve", fun () -> serve_part ~seed ~wp_cli) ]
