(* The four workloads, each a fixed list of operations for a given seed.

   [--seconds] sets how many iterations a run does, through a constant
   rate per workload; it is never a time limit, so a faster commit does
   exactly the same work on the same inputs.  Iteration [i] draws its
   inputs from (seed, i) alone and no two iterations share inputs, so
   the process-global memos (Experiment.golden, Batch's prepass tables)
   do not carry over from one iteration to the next. *)

module Datapath = Wp_soc.Datapath
module Programs = Wp_soc.Programs
module Cpu = Wp_soc.Cpu
module Config = Wp_core.Config
module Run_spec = Wp_core.Run_spec
module Runner = Wp_core.Runner
module Table1 = Wp_core.Table1
module Optimizer = Wp_core.Optimizer
module Experiment = Wp_core.Experiment
module Service = Wp_core.Service
module Wire = Wp_core.Wire
module Topology = Wp_topo.Topology
module Sweep = Wp_topo.Sweep
module Flow_spec = Wp_floorplan.Flow_spec
module Flow_scale = Wp_floorplan.Flow_scale
module Cycle_ratio = Wp_graph.Cycle_ratio

let derive = Measure.derive

type ctx = {
  seed : int;
  seconds : float;  (* sets the op count; never a time limit *)
  smoke : bool;     (* the smallest run that still exercises every path *)
  wp_cli : string;  (* the built wp_cli executable, for serve *)
}

(* Iterations of a run: [per_second] iterations per requested second,
   at least [least]. *)
let iterations ctx ~per_second ~least =
  if ctx.smoke then 2 else max least (int_of_float (Float.round (ctx.seconds *. per_second)))


type sample = {
  wall : float;     (* seconds of the measured calls; nan when the op did not complete *)
  ops : int;        (* work items completed: rows, scenarios, moves, replies *)
  attempted : int;  (* operations attempted *)
  failed : int;     (* attempted operations that failed, for whatever reason *)
  wrong : int;      (* failed operations whose output a check found wrong *)
  cycles : int;     (* cycles simulated *)
  digest : string;  (* exact digest of the simulated results *)
  traced : bool;
  host : float;     (* host_speed around the op *)
}

type report = {
  jobs : int;
  op : string;                     (* what one op of [ops] is *)
  setups : float list;             (* set-up repeats, seconds *)
  samples : sample list;           (* measured iterations, then untimed ones *)
  checks : (string * bool) list;   (* output checks made after the loop *)
  peak_rss_mb : float;
  lines : string list;             (* what else the run measured, for the log *)
  spans : Span.span list;          (* of the traced iterations *)
  host_ref : float list;           (* host_speed between iterations *)
}

let md5 s = Digest.to_hex (Digest.string s)

let untimed_sample ~attempted ~failed ~wrong ~cycles digest =
  { wall = nan; ops = 0; attempted; failed; wrong; cycles; digest; traced = false; host = nan }

let warn fmt = Printf.ksprintf (fun s -> prerr_endline ("layerbench: " ^ s)) fmt

(* The reference workload's seconds, timed in a child of its own: the
   mean of [repeats] back-to-back runs. *)
let host_speed ~repeats =
  match Measure.run_child ~deadline:30.0 Sys.executable_name [ "--reference"; string_of_int repeats ] with
  | `Exited 0, out, _ -> (
    match Scanf.sscanf_opt out "reference %f" Fun.id with
    | Some secs -> secs
    | None -> failwith "reference child printed no time")
  | st, _, _ -> failwith ("reference child " ^ Measure.status_to_string st)

type loop_result = {
  looped : sample list;      (* the warm-up iteration, if any, then the timed ones *)
  traced_spans : Span.span list;
  refs : float list;         (* host_speed at each reference point *)
  readies : float list;      (* [ready] at each reference point *)
}

(* Run [iterate i] for i = 0 .. n-1, spans on where [traced i]; the
   garbage of iteration i-1 is collected before iteration i starts.
   Reference points come before every [ref_every]-th iteration and
   after the last: each times the host reference and, when given,
   [ready] (one set-up), so both are sampled across the whole run.  An
   iteration's [host] is the mean of the two reference times around its
   group.  With [warmup], an untimed iteration on inputs of its own
   (i = -1) runs first, so heap growth and lazy initialisation land
   outside the timed ones; its ops still count. *)
let loop ?(warmup = false) ?(ref_every = 1) ?(ref_repeats = 1) ?ready ~n ~traced iterate =
  let warm = if warmup then [ { (iterate (-1)) with wall = nan } ] else [] in
  let spans = ref [] and readies = ref [] in
  let points = ((n + ref_every - 1) / ref_every) + 1 in
  let refs = Array.make points nan in
  let reference_point k =
    Option.iter (fun f -> readies := f () :: !readies) ready;
    refs.(k) <- host_speed ~repeats:ref_repeats
  in
  let samples =
    List.init n (fun i ->
        if i mod ref_every = 0 then reference_point (i / ref_every);
        Gc.full_major ();
        Span.current_tag := i;
        Span.on := traced i;
        let m0 = Span.mark () in
        let s = Span.with_ "bench.iteration" (fun () -> iterate i) in
        Span.on := false;
        if traced i then spans := !spans @ Span.spans_between m0 (Span.mark ());
        { s with traced = traced i })
  in
  reference_point (points - 1);
  let samples =
    List.mapi
      (fun i s ->
        let g = i / ref_every in
        { s with host = (refs.(g) +. refs.(g + 1)) /. 2.0 })
      samples
  in
  { looped = warm @ samples; traced_spans = !spans; refs = Array.to_list refs; readies = List.rev !readies }

(* One set-up as a user pays it: a fresh process of this benchmark
   started in [--ready W] mode, from spawn to exit. *)
let ready_once ~workload ~seed () =
  let t0 = Measure.now_ns () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--ready"; workload; "--seed"; string_of_int seed |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let status = snd (Unix.waitpid [] pid) in
  let secs = Measure.since t0 in
  if status <> Unix.WEXITED 0 then failwith ("set-up child of " ^ workload ^ " failed");
  secs

(* ------------------------------------------------------------------ *)
(* table1: the paper's Table 1, both workloads, pipelined machine      *)
(* ------------------------------------------------------------------ *)

let t1_spec = Run_spec.v ~engine:Wp_sim.Sim.Fast ()

(* The row recipe of [Table1.sort_rows]/[Table1.matmul_rows], rebuilt
   here so the inputs can be seeded; [table1_checks] pins the rendering
   at the paper's seeds against test/table1.expected. *)
let head =
  ("All 0 (ideal)", Config.zero)
  :: List.map
       (fun c -> (Printf.sprintf "Only %s" (Datapath.connection_name c), Config.only c 1))
       Table1.single_rs_order

let all1 = Config.uniform ~except:[ Datapath.CU_IC ] 1
let all2 = Config.uniform ~except:[ Datapath.CU_IC ] 2
let sort_fixed = head @ [ ("All 1 (no CU-IC)", all1) ]

let matmul_fixed_head =
  sort_fixed
  @ List.map
      (fun c -> (Printf.sprintf "All 1 and 2 %s" (Datapath.connection_name c), Config.set all1 c 2))
      Table1.single_rs_order

let matmul_fixed_tail =
  [ ("All 2 (no CU-IC)", all2); ("All 2 and 1 CU-RF", Config.set all2 Datapath.CU_RF 1) ]

let optimal_search k =
  { Optimizer.default_search with Optimizer.budget = 9 * k; per_connection_max = 2 * k }

let optimal_config ~runner ~machine ~program k =
  Span.with_ "core.Optimizer.optimal" (fun () ->
      fst
        (Optimizer.optimal ~search:(optimal_search k) ~map:(Runner.map runner)
           ~objective:(Runner.objective_spec ~spec:t1_spec runner ~machine ~program)
           ()))

let table_rows ~runner ~machine ~program labelled =
  let records =
    Span.with_ "core.Runner.experiments_spec" (fun () ->
        Runner.experiments_spec ~spec:t1_spec runner ~machine ~program (List.map snd labelled))
  in
  List.mapi
    (fun i ((label, _), record) -> { Table1.index = i + 1; label; record })
    (List.combine labelled records)

let sort_table ~runner ~machine values =
  let program = Programs.extraction_sort ~values in
  table_rows ~runner ~machine ~program
    (sort_fixed @ [ ("Optimal 1 (no CU-IC)", optimal_config ~runner ~machine ~program 1) ])

let matmul_table ~runner ~machine ~n a b =
  let program = Programs.matrix_multiply ~n ~a ~b in
  table_rows ~runner ~machine ~program
    (matmul_fixed_head
     @ [ ("Optimal 2 (no CU-IC)", optimal_config ~runner ~machine ~program 2) ]
     @ matmul_fixed_tail)

type t1_inputs = { sort_values : int array; n : int; a : int array; b : int array }

(* Iteration [i]'s inputs: 16 sort values and two 5x5 matrices, the
   paper's sizes. *)
let table1_inputs ~seed i =
  let s = derive seed i in
  let n = 5 in
  {
    sort_values = Programs.sort_values ~seed:(derive s 1) ~n:16;
    n;
    a = Programs.matrix_values ~seed:(derive s 2) ~n;
    b = Programs.matrix_values ~seed:(derive s 3) ~n;
  }

let row_ok (row : Table1.row) =
  let r = row.Table1.record in
  let ok (c : Cpu.result) = c.Cpu.outcome = Cpu.Completed && c.Cpu.result_ok in
  ok r.Experiment.wp1 && ok r.Experiment.wp2 && r.Experiment.th_wp2 >= r.Experiment.th_wp1 -. 1e-9

(* Golden cycles once per program, plus WP1 and WP2 of every row: the
   cycles the SoC simulated for the table (optimiser probes excluded). *)
let table_cycles rows =
  match rows with
  | [] -> 0
  | first :: _ ->
    first.Table1.record.Experiment.golden_cycles
    + Measure.sum_int
        (List.map
           (fun row ->
             let r = row.Table1.record in
             r.Experiment.wp1.Cpu.cycles + r.Experiment.wp2.Cpu.cycles)
           rows)

let rows_digest rows =
  String.concat ";"
    (List.map
       (fun (row : Table1.row) ->
         let r = row.Table1.record in
         Printf.sprintf "%s|%s|%d|%d|%d" row.Table1.label (Config.describe r.Experiment.config)
           r.Experiment.golden_cycles r.Experiment.wp1.Cpu.cycles r.Experiment.wp2.Cpu.cycles)
       rows)

(* One regeneration of both tables through a fresh Runner on one job;
   returns the rows and the Runner's stats. *)
let table1_tables inp =
  let runner = Span.with_ "core.Runner.create" (fun () -> Runner.create ~jobs:1 ~cache:true ()) in
  Fun.protect
    ~finally:(fun () -> Span.with_ "core.Runner.shutdown" (fun () -> Runner.shutdown runner))
    (fun () ->
      let machine = Datapath.Pipelined in
      let srows = sort_table ~runner ~machine inp.sort_values in
      let mrows = matmul_table ~runner ~machine ~n:inp.n inp.a inp.b in
      (srows, mrows, Runner.stats runner))

let table1_rows_per_iteration = 13 + 25

let table1_iterate ~seed i =
  let inp = table1_inputs ~seed i in
  match Measure.timed (fun () -> table1_tables inp) with
  | exception e ->
    warn "table1 iteration %d failed: %s" i (Printexc.to_string e);
    untimed_sample ~attempted:table1_rows_per_iteration ~failed:table1_rows_per_iteration ~wrong:0
      ~cycles:0 "failed"
  | (srows, mrows, _), wall ->
    let rows = srows @ mrows in
    let bad = List.length (List.filter (fun r -> not (row_ok r)) rows) in
    {
      wall;
      ops = List.length rows;
      attempted = List.length rows;
      failed = bad;
      wrong = bad;
      cycles = table_cycles srows + table_cycles mrows;
      digest = rows_digest rows;
      traced = false;
      host = nan;
    }

let expected_path = Filename.concat "test" "table1.expected"

(* test/table1.expected through the benchmark's own table path: sort on
   10 values and 3x3 matmul, both timed machines. *)
let render_expected () =
  let runner = Runner.create ~jobs:1 ~cache:true () in
  Fun.protect ~finally:(fun () -> Runner.shutdown runner) (fun () ->
      let b = Buffer.create 8192 in
      List.iter
        (fun machine ->
          let mname = Datapath.machine_name machine in
          Buffer.add_string b
            (Table1.render
               ~title:(Printf.sprintf "Table 1 — Extraction Sort (%s)" mname)
               (sort_table ~runner ~machine (Programs.sort_values ~seed:1 ~n:10)));
          Buffer.add_char b '\n';
          Buffer.add_string b
            (Table1.render
               ~title:(Printf.sprintf "Table 1 — Matrix Multiply (%s)" mname)
               (matmul_table ~runner ~machine ~n:3 (Programs.matrix_values ~seed:2 ~n:3)
                  (Programs.matrix_values ~seed:3 ~n:3)));
          Buffer.add_char b '\n')
        [ Datapath.Pipelined; Datapath.Multicycle ];
      Buffer.contents b)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The documented agreement with the published numbers (test_core's
   paper pin). *)
let paper_tolerance = 0.12

(* max |simulated - paper| over Th WP1 and Th WP2 of every row, at the
   paper's own programs (16 sort values, 5x5 matmul), pipelined. *)
let th_err_max () =
  let srows, mrows, _ =
    table1_tables
      { sort_values = Programs.sort_values ~seed:1 ~n:16; n = 5;
        a = Programs.matrix_values ~seed:2 ~n:5; b = Programs.matrix_values ~seed:3 ~n:5 }
  in
  let err workload rows =
    List.fold_left2
      (fun acc (index, label, p1, p2) (row : Table1.row) ->
        if index <> row.Table1.index || label <> row.Table1.label then infinity
        else
          let r = row.Table1.record in
          Float.max acc
            (Float.max (Float.abs (r.Experiment.th_wp1 -. p1)) (Float.abs (r.Experiment.th_wp2 -. p2))))
      0.0 (Table1.paper_reference ~workload) rows
  in
  Float.max (err `Sort srows) (err `Matmul mrows)

let table1_checks () =
  let expected_ok =
    match read_file expected_path with
    | expected -> render_expected () = expected
    | exception Sys_error e ->
      warn "cannot read %s: %s" expected_path e;
      false
  in
  let err = th_err_max () in
  [ ("table1 at the paper's seeds renders byte-identical to " ^ expected_path, expected_ok);
    (Printf.sprintf "Th within %.2f of Table1.paper_reference (max error %.4f)" paper_tolerance err,
     err <= paper_tolerance) ]

let table1 ctx ~traced =
  let n = iterations ctx ~per_second:0.8 ~least:3 in
  let r =
    loop ~warmup:true ~ref_repeats:8 ~ready:(ready_once ~workload:"table1" ~seed:ctx.seed) ~n ~traced
      (table1_iterate ~seed:ctx.seed)
  in
  let peak_rss_mb = Measure.self_peak_rss_mb () in
  let checks = if ctx.smoke then [] else table1_checks () in
  { jobs = 1; op = "Table 1 rows"; setups = r.readies; samples = r.looped; checks; peak_rss_mb;
    lines = []; spans = r.traced_spans; host_ref = r.refs }

(* ------------------------------------------------------------------ *)
(* sweep: generated meshes with engine cross-checks                    *)
(* ------------------------------------------------------------------ *)

let sweep_spec = Run_spec.default
let sweep_seeds = 20

(* Iteration [i]: `wp_cli sweep --topology mesh:8x8:seedB --seeds 20`,
   B drawn from (seed, i).  Any 20 consecutive seeds hold five
   multiples of 4, which Sweep also replays on the reference
   interpreter. *)
let sweep_scenarios ~seed i =
  Sweep.expand ~topos:[ Topology.v ~seed:(derive seed i) (Topology.Mesh (8, 8)) ] ~seeds:sweep_seeds
    ~spec:sweep_spec

let sweep_iterate ~seed i =
  let scenarios = sweep_scenarios ~seed i in
  let n = List.length scenarios in
  match
    Measure.timed (fun () ->
        Span.with_ "topo.Sweep.run" (fun () -> Sweep.run ~jobs:1 ~check_engines:true scenarios))
  with
  | exception e ->
    warn "sweep iteration %d failed: %s" i (Printexc.to_string e);
    untimed_sample ~attempted:n ~failed:n ~wrong:0 ~cycles:0 "failed"
  | results, wall ->
    let bad = List.filter (fun r -> not (Sweep.ok r)) results in
    List.iter
      (fun (r : Sweep.result) ->
        warn "sweep scenario %s failed: %s" (Topology.to_string r.Sweep.r_scenario.Sweep.topo)
          (String.concat "; " (Option.to_list r.Sweep.r_error @ r.Sweep.r_disagreements)))
      bad;
    {
      wall;
      ops = List.length results;
      attempted = n;
      failed = List.length bad;
      wrong = List.length bad;
      cycles = Measure.sum_int (List.map (fun r -> r.Sweep.r_cycles) results);
      digest =
        String.concat ";"
          (List.map
             (fun (r : Sweep.result) ->
               Format.asprintf "%s|%d|%d|%a" (Topology.digest r.Sweep.r_scenario.Sweep.topo)
                 r.Sweep.r_cycles r.Sweep.r_firings Cycle_ratio.ratio_pp r.Sweep.r_bound)
             results);
      traced = false;
      host = nan;
    }

let sweep ctx ~traced =
  let n = iterations ctx ~per_second:1.6 ~least:3 in
  let r =
    loop ~warmup:true ~ref_repeats:2 ~ready:(ready_once ~workload:"sweep" ~seed:ctx.seed) ~n ~traced
      (sweep_iterate ~seed:ctx.seed)
  in
  let peak_rss_mb = Measure.self_peak_rss_mb () in
  { jobs = 1; op = "scenarios"; setups = r.readies; samples = r.looped; checks = []; peak_rss_mb;
    lines = []; spans = r.traced_spans; host_ref = r.refs }

(* ------------------------------------------------------------------ *)
(* flow: floorplan->throughput co-optimization on rand:1000            *)
(* ------------------------------------------------------------------ *)

(* Some seeded rand:1000 flows never return (`wp_cli flow --topology
   rand:1000 --seed 892414183`, or topology seed 272178714).  Each flow
   therefore runs in a child process of this benchmark, killed at a
   deadline enforced from outside; a killed flow is one failed op.
   Inputs are never pinned or re-seeded to avoid it. *)
let flow_deadline = 6.0
let flow_jobs = 2

(* Iteration [i]: `wp_cli flow --topology rand:1000:seedT --seed F`. *)
let flow_args ~seed i =
  (Printf.sprintf "rand:1000:seed%d" (derive seed (2 * i)), derive seed ((2 * i) + 1))

let flow_spec ~smoke ~topology ~flow_seed =
  match
    Flow_spec.of_args ~topology ~seed:flow_seed ?budget:(if smoke then Some 400 else None) ()
  with
  | Ok spec -> spec
  | Error e -> invalid_arg e

type flow_result = {
  run_s : float;    (* Flow_scale.run *)
  check_s : float;  (* the benchmark's own from-scratch re-check *)
  moves : int;
  evaluations : int;
  cache_hits : int;
  bound_ok : bool;  (* best bound = from-scratch Howard bound *)
  front_digest : string;
  rss_mb : float;
}

(* The child side: run one flow, check it, print one "flow" line (and
   its spans when traced). *)
let flow_child ~smoke ~jobs ~topology ~flow_seed ~trace =
  let spec = flow_spec ~smoke ~topology ~flow_seed in
  Span.on := trace;
  let r, run_s =
    Measure.timed (fun () ->
        Span.with_ "floorplan.Flow_scale.run" (fun () -> Flow_scale.run ~jobs ~spec ()))
  in
  let scratch, check_s =
    Measure.timed (fun () ->
        Span.with_ "floorplan.Flow_scale.scratch_bound" (fun () ->
            Flow_scale.scratch_bound (Flow_scale.derived_network spec r.Flow_scale.best)))
  in
  Span.on := false;
  let bound_ok = Cycle_ratio.ratio_compare scratch r.Flow_scale.best.Flow_scale.wp1_bound = 0 in
  Span.export stdout;
  Printf.printf "flow %.9f %.9f %d %d %d %b %s %.3f\n" run_s check_s r.Flow_scale.moves
    r.Flow_scale.evaluations r.Flow_scale.cache_hits bound_ok
    (md5 (Flow_scale.front_to_json ~spec r))
    (Measure.self_peak_rss_mb ())

(* The parent side: spawn the child under the deadline.  [Error] says
   why the flow did not complete. *)
let run_flow ?(smoke = false) ?(jobs = flow_jobs) ~topology ~flow_seed () =
  let args =
    [ "--flow-child"; topology; "--flow-seed"; string_of_int flow_seed; "--jobs";
      string_of_int jobs; "--trace"; (if !Span.on then "1" else "0") ]
    @ if smoke then [ "--smoke" ] else []
  in
  let status, lines, elapsed =
    Span.with_ "bench.flow_child" (fun () ->
        let status, out, elapsed = Measure.run_child ~deadline:flow_deadline Sys.executable_name args in
        let lines = String.split_on_char '\n' out in
        Span.import lines;
        (status, lines, elapsed))
  in
  let parsed =
    List.find_map
      (fun l ->
        Scanf.sscanf_opt l "flow %f %f %d %d %d %B %s %f"
          (fun run_s check_s moves evaluations cache_hits bound_ok front_digest rss_mb ->
            { run_s; check_s; moves; evaluations; cache_hits; bound_ok; front_digest; rss_mb }))
      lines
  in
  match (status, parsed) with
  | `Exited 0, Some r -> Ok r
  | `Killed, _ ->
    Error (Printf.sprintf "flow %s --seed %d killed at its %.0f s deadline" topology flow_seed elapsed)
  | st, _ ->
    Error (Printf.sprintf "flow %s --seed %d: %s" topology flow_seed (Measure.status_to_string st))

let flow_sample ~topology ~flow_seed result =
  match result with
  | Ok r ->
    {
      wall = r.run_s;
      ops = r.moves;
      attempted = 1;
      failed = (if r.bound_ok then 0 else 1);
      wrong = (if r.bound_ok then 0 else 1);
      cycles = 0;
      digest = r.front_digest;
      traced = false;
      host = nan;
    }
  | Error e ->
    warn "%s" e;
    untimed_sample ~attempted:1 ~failed:1 ~wrong:0 ~cycles:0
      (Printf.sprintf "failed:%s:%d" topology flow_seed)

(* Each op is one flow, timed inside its child; [flows] overrides the
   seeded list (the hang test). *)
let flow ?flows ctx ~traced =
  let flows =
    match flows with
    | Some l -> l
    | None -> List.init (iterations ctx ~per_second:0.9 ~least:3) (flow_args ~seed:ctx.seed)
  in
  let rss = ref [] in
  let r =
    loop ~ref_repeats:2 ~ready:(ready_once ~workload:"flow" ~seed:ctx.seed) ~n:(List.length flows)
      ~traced (fun i ->
        let topology, flow_seed = List.nth flows i in
        let r = run_flow ~smoke:ctx.smoke ~topology ~flow_seed () in
        (match r with Ok r -> rss := r.rss_mb :: !rss | Error _ -> ());
        flow_sample ~topology ~flow_seed r)
  in
  { jobs = flow_jobs; op = "annealing moves"; setups = r.readies; samples = r.looped; checks = [];
    peak_rss_mb = Measure.median !rss; lines = []; spans = r.traced_spans; host_ref = r.refs }

(* ------------------------------------------------------------------ *)
(* serve: `wp_cli serve --jobs 1` as a child, one client connection    *)
(* ------------------------------------------------------------------ *)

let config_string c = String.concat "," (String.split_on_char ' ' (Config.describe c))

(* The hot set: the 36 fixed Table 1 configurations (all but the two
   searched Optimal rows) at the paper's programs. *)
let hot_set =
  Array.of_list
    (List.map (fun (_, c) -> ("sort:16", config_string c)) sort_fixed
     @ List.map (fun (_, c) -> ("matmul:5", config_string c)) (matmul_fixed_head @ matmul_fixed_tail))

let miss_configs = Array.of_list (List.map (fun (_, c) -> config_string c) head)
let request (program, config) = Wire.run_defaults ~program ~machine:"pipelined" ~config
let window = 8

(* Request [j] of a phase keyed [s]: even ones are misses on distinct
   seeded random programs, odd ones hits on the hot set. *)
let serve_key ~s j =
  if j land 1 = 0 then
    (Printf.sprintf "random:%d" (derive s j), miss_configs.((j / 2) mod Array.length miss_configs))
  else hot_set.(((j / 2) + s) mod Array.length hot_set)

type daemon = {
  pid : int;
  socket : string;
  conn : Service.Client.conn;
}

exception Daemon_died of string

let daemon_counter = ref 0

(* Spawn `wp_cli serve` on a scratch socket and wait for its first
   Pong. *)
let spawn_daemon ~wp_cli =
  Measure.ensure_out_dir ();
  incr daemon_counter;
  let socket =
    Filename.concat Measure.out_dir (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) !daemon_counter)
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close devnull) (fun () ->
        Unix.create_process wp_cli
          [| wp_cli; "serve"; "--socket"; socket; "--jobs"; "1" |]
          Unix.stdin devnull Unix.stderr)
  in
  let t0 = Measure.now_ns () in
  let rec await () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
     | 0, _ -> ()
     | _ -> raise (Daemon_died "wp_cli serve exited before answering a ping"));
    if Measure.since t0 > 30.0 then begin
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      raise (Daemon_died "wp_cli serve did not answer a ping within 30 s")
    end;
    match Service.Client.connect socket with
    | exception Unix.Unix_error _ ->
      Unix.sleepf 0.005;
      await ()
    | conn -> (
      match Service.Client.call conn ~tag:0 Wire.Ping with
      | Wire.Pong -> { pid; socket; conn }
      | _ -> raise (Daemon_died "wp_cli serve answered a ping with something else"))
  in
  await ()

(* Close the (drained) connection, SIGTERM the daemon and check that it
   exited 0.  Returns its exit status and peak RSS. *)
let stop_daemon d =
  let rss = Measure.peak_rss_mb d.pid in
  Service.Client.close d.conn;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = Measure.now_ns () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Measure.since t0 > 10.0 ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid);
      `Killed
    | 0, _ ->
      Unix.sleepf 0.005;
      wait ()
    | _, Unix.WEXITED c -> `Exited c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> `Signaled s
  in
  let status = wait () in
  (try Sys.remove d.socket with Sys_error _ -> ());
  (status, rss)

(* Replies of one phase: for each request, its reply (None if the
   daemon died first) and its latency in seconds. *)
type phase = {
  keys : (string * string) array;
  replies : Wire.reply option array;
  latency : float array;  (* nan when unanswered *)
  late : float array;     (* open loop: seconds the send ran behind its due time *)
  elapsed : float;
}

(* Closed loop: keep [window] requests in flight until all are answered.
   A Busy reply is final (a failed op), not retried. *)
let closed_loop d keys =
  let n = Array.length keys in
  let replies = Array.make n None and latency = Array.make n nan in
  let sent_at = Array.make n 0L in
  let sent = ref 0 and recvd = ref 0 in
  let t0 = Measure.now_ns () in
  (try
     while !recvd < n do
       while !sent < n && !sent - !recvd < window do
         sent_at.(!sent) <- Measure.now_ns ();
         Service.Client.send d.conn ~tag:!sent (Wire.Run (request keys.(!sent)));
         incr sent
       done;
       match Service.Client.recv d.conn with
       | None -> raise (Daemon_died "the daemon closed the connection")
       | Some (tag, reply) ->
         let stop = Measure.now_ns () in
         Span.record_async "core.Service.request" ~tag ~start_ns:sent_at.(tag) ~stop_ns:stop;
         replies.(tag) <- Some reply;
         latency.(tag) <- Measure.seconds_between sent_at.(tag) stop;
         incr recvd
     done
   with (Daemon_died _ | Unix.Unix_error _ | Failure _) as e ->
     warn "serve closed loop: %s" (Printexc.to_string e));
  { keys; replies; latency; late = Array.make n 0.0; elapsed = Measure.since t0 }

(* Open loop: request [j] is due at [due.(j)] seconds after the start,
   whatever happened to the others; a sender thread keeps the schedule
   and the latency runs from the due time, so a stall shows in every
   request it delays. *)
let open_loop d keys due =
  let n = Array.length keys in
  let replies = Array.make n None and latency = Array.make n nan in
  let late = Array.make n 0.0 in
  let t0 = Int64.add (Measure.now_ns ()) 20_000_000L in
  let due_ns j = Int64.add t0 (Int64.of_float (due.(j) *. 1e9)) in
  let sender =
    Thread.create
      (fun () ->
        try
          for j = 0 to n - 1 do
            let wait = Measure.seconds_between (Measure.now_ns ()) (due_ns j) in
            if wait > 0.0 then Unix.sleepf wait;
            late.(j) <- Float.max 0.0 (Measure.seconds_between (due_ns j) (Measure.now_ns ()));
            Service.Client.send d.conn ~tag:j (Wire.Run (request keys.(j)))
          done
        with e -> warn "serve open loop sender: %s" (Printexc.to_string e))
      ()
  in
  let recvd = ref 0 in
  (try
     while !recvd < n do
       match Service.Client.recv d.conn with
       | None -> raise (Daemon_died "the daemon closed the connection")
       | Some (tag, reply) ->
         let stop = Measure.now_ns () in
         Span.record_async "core.Service.request" ~tag ~start_ns:(due_ns tag) ~stop_ns:stop;
         replies.(tag) <- Some reply;
         latency.(tag) <- Measure.seconds_between (due_ns tag) stop;
         incr recvd
     done
   with (Daemon_died _ | Unix.Unix_error _ | Failure _) as e ->
     warn "serve open loop: %s" (Printexc.to_string e));
  Thread.join sender;
  { keys; replies; latency; late; elapsed = Measure.seconds_between t0 (Measure.now_ns ()) }

(* Seeded Poisson arrivals: [n] due times at [rate] per second. *)
let poisson_due ~s ~n ~rate =
  let st = Random.State.make [| s |] in
  let t = ref 0.0 in
  Array.init n (fun _ ->
      let d = !t in
      t := !t -. (log (1.0 -. Random.State.float st 1.0) /. rate);
      d)

let same_result (a : Wire.summary) (b : Wire.summary) =
  { a with Wire.rs_from_cache = false } = { b with Wire.rs_from_cache = false }

let summary_string (s : Wire.summary) =
  Printf.sprintf "%s|%s|%s|%d|%d|%d" s.Wire.rs_program s.Wire.rs_machine s.Wire.rs_config
    s.Wire.rs_golden_cycles s.Wire.rs_wp1_cycles s.Wire.rs_wp2_cycles

(* Check a phase's replies: a hit must come from the cache and equal
   the hot set's miss-time reply; a miss must be a fresh result. *)
let phase_sample ~baseline ?(traced = false) p =
  let failed = ref 0 and wrong = ref 0 and cycles = ref 0 in
  let digest = Buffer.create 4096 in
  Array.iteri
    (fun j reply ->
      match reply with
      | Some (Wire.Result s) ->
        Buffer.add_string digest (summary_string s);
        Buffer.add_char digest ';';
        if j land 1 = 1 then begin
          match Hashtbl.find_opt baseline p.keys.(j) with
          | Some b when s.Wire.rs_from_cache && same_result s b -> ()
          | _ ->
            incr failed;
            incr wrong;
            warn "hot-set reply for %s %s differs from its miss-time reply" (fst p.keys.(j))
              (snd p.keys.(j))
        end
        else cycles := !cycles + s.Wire.rs_golden_cycles + s.Wire.rs_wp1_cycles + s.Wire.rs_wp2_cycles
      | Some _ | None -> incr failed)
    p.replies;
  let n = Array.length p.keys in
  let answered = Array.fold_left (fun acc r -> match r with Some (Wire.Result _) -> acc + 1 | _ -> acc) 0 p.replies in
  { wall = p.elapsed; ops = answered; attempted = n; failed = !failed; wrong = !wrong; cycles = !cycles;
    digest = Buffer.contents digest; traced; host = nan }

(* Warm the hot set: every hot-set config once, as misses.  The first
   daemon's replies are the baseline; a later daemon's must equal it. *)
let warm d baseline =
  let p = closed_loop d hot_set in
  let bad = ref 0 in
  Array.iteri
    (fun j reply ->
      match reply with
      | Some (Wire.Result s) when not s.Wire.rs_from_cache -> (
        match Hashtbl.find_opt baseline hot_set.(j) with
        | None -> Hashtbl.replace baseline hot_set.(j) s
        | Some b -> if not (same_result s b) then incr bad)
      | _ -> incr bad)
    p.replies;
  !bad

(* A sampled miss against a direct in-process Experiment run. *)
let miss_matches_direct key (s : Wire.summary) =
  match Wire.parse_run (request key) with
  | Error e ->
    warn "cannot parse %s: %s" (fst key) e;
    false
  | Ok r ->
    let record =
      Experiment.run_spec ~spec:r.Runner.req_spec ~machine:r.Runner.req_machine
        ~program:r.Runner.req_program r.Runner.req_config
    in
    same_result (Wire.summary_of_record ~from_cache:false record) s

let open_requests ctx = if ctx.smoke then 100 else 1200
let open_rate = 400.0
let burst_size = 64
let slo_limit = 0.025

let percentile_ms q xs = 1e3 *. Measure.quantile q xs

(* Open-loop figures: answered-request latencies, the share answered
   with a result within [slo_limit], and the generator's lateness. *)
let open_figures p =
  let lat =
    List.filter Float.is_finite (Array.to_list p.latency)
  in
  let within =
    Array.fold_left ( + ) 0
      (Array.mapi
         (fun j r ->
           match r with
           | Some (Wire.Result _) when p.latency.(j) <= slo_limit -> 1
           | _ -> 0)
         p.replies)
  in
  let slo = float_of_int within /. float_of_int (max 1 (Array.length p.keys)) in
  (lat, slo, percentile_ms 0.99 (Array.to_list p.late))

let serve ctx ~traced =
  let baseline = Hashtbl.create 64 in
  let setup_times = ref [] and stopped = ref [] in
  let warm_failed = ref 0 in
  let start () =
    let d, secs =
      Measure.timed (fun () ->
          let d = Span.with_ "bench.spawn_daemon" (fun () -> spawn_daemon ~wp_cli:ctx.wp_cli) in
          warm_failed := !warm_failed + Span.with_ "bench.warm_hot_set" (fun () -> warm d baseline);
          d)
    in
    setup_times := secs :: !setup_times;
    d
  in
  let repeats = if ctx.smoke then 1 else 5 in
  for _ = 2 to repeats do
    let d = start () in
    stopped := fst (stop_daemon d) :: !stopped
  done;
  let d = start () in
  let s_open = derive ctx.seed 1_000_001 in
  let n_open = open_requests ctx in
  let opened =
    Span.with_ "bench.open_loop" (fun () ->
        open_loop d (Array.init n_open (serve_key ~s:s_open)) (poisson_due ~s:s_open ~n:n_open ~rate:open_rate))
  in
  let n_bursts = iterations ctx ~per_second:4.0 ~least:10 in
  let r =
    loop ~ref_every:2 ~n:n_bursts ~traced (fun i ->
        let s = derive ctx.seed i in
        phase_sample ~baseline (closed_loop d (Array.init burst_size (serve_key ~s))))
  in
  (* everything sent has been answered (or the daemon is gone): now it
     is safe to close the connection *)
  let stats = try Some (Service.Client.call d.conn ~tag:0 Wire.Stats) with _ -> None in
  let status, rss = stop_daemon d in
  let daemon_ok = List.for_all (fun st -> st = `Exited 0) (status :: !stopped) in
  let open_sample = { (phase_sample ~baseline opened) with wall = nan } in
  let lat, slo, late_p99 = open_figures opened in
  (* a sampled miss per 300 open-loop requests, replayed in-process *)
  let sampled =
    List.filter_map
      (fun j ->
        match opened.replies.(j) with
        | Some (Wire.Result s) -> Some (miss_matches_direct opened.keys.(j) s)
        | _ -> None)
      (List.init (max 1 (n_open / 300)) (fun k -> 2 * k * 150))
  in
  let checks =
    [ ("hot set warmed identically by every daemon", !warm_failed = 0);
      ("every daemon exited 0 at shutdown", daemon_ok);
      (Printf.sprintf "%d sampled misses equal a direct Experiment.run_spec" (List.length sampled),
       sampled <> [] && List.for_all Fun.id sampled) ]
  in
  let lines =
    [ Printf.sprintf "serve open loop: %d requests at %.0f/s, p50 %.3f ms, p99 %.3f ms over %d answered, \
                      slo_share %.4f (<= %.0f ms), generator late p99 %.3f ms"
        n_open open_rate (percentile_ms 0.5 lat) (percentile_ms 0.99 lat) (List.length lat) slo
        (slo_limit *. 1e3) late_p99;
      Printf.sprintf "serve daemon: exit %s; %s"
        (Measure.status_to_string status)
        (match stats with
         | Some (Wire.Stats_reply st) ->
           Printf.sprintf "cache hits %d, misses %d, shed %d" st.st_cache_hits st.st_cache_misses st.st_shed
         | _ -> "no stats reply") ]
  in
  { jobs = 1; op = "closed-loop replies"; setups = List.rev !setup_times;
    samples = r.looped @ [ open_sample ]; checks; peak_rss_mb = rss; lines; spans = r.traced_spans;
    host_ref = r.refs }

let all = [ ("table1", table1); ("sweep", sweep); ("flow", fun ctx ~traced -> flow ctx ~traced); ("serve", serve) ]

(* [--ready W]: what a fresh process of workload W sets up before its
   first measured op. *)
let ready workload ~seed =
  match workload with
  | "table1" ->
    ignore (table1_inputs ~seed 0);
    Runner.shutdown (Runner.create ~jobs:1 ~cache:true ())
  | "sweep" -> ignore (sweep_scenarios ~seed 0)
  | "flow" ->
    let topology, flow_seed = flow_args ~seed 0 in
    ignore (flow_spec ~smoke:false ~topology ~flow_seed)
  | w -> invalid_arg ("no set-up for workload " ^ w)
