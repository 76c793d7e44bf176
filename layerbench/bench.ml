(* The layered benchmark.

     bench --workload table1|sweep|flow|serve --seed N --seconds S --trace 0|1
           --wp-cli PATH [--rev REV] [--smoke]

   Untraced (--trace 0): set up several times and keep the median, run
   the workload's fixed list of ops, check the outputs, and print the
   end-to-end metrics.

   Traced (--trace 1): run the same ops with spans on every other
   iteration (trace.overhead_s, trace.unattributed_share), then the
   per-layer decomposition of every workload (Layers), and print the
   per-layer metrics.  Spans go to .layerbench_out/ as Chrome trace
   JSON.

   The last line of stdout is one JSON object: correct, attempted,
   failed and metrics.  A failed op or check is reported there, not
   through the exit code; the exit code is non-zero only when the run
   could not be made.

   Internal modes, used by the runs above and by the self-tests:
     bench --ready W --seed N                 set-up of a fresh process
     bench --reference K                      time the host reference workload, mean of K
     bench --flow-child TOPOLOGY --flow-seed F --jobs J --trace 0|1 [--smoke]
     bench --replay-child TOPOLOGY --flow-seed F --trace 0|1
     bench --flow-check TOPOLOGY --flow-seed F --wp-cli PATH
                                              one flow, as the flow workload runs it *)

let usage () =
  prerr_endline
    "usage: bench --workload table1|sweep|flow|serve --seed N --seconds S --trace 0|1 \
     --wp-cli PATH [--rev REV] [--smoke]";
  exit 2

let args = List.tl (Array.to_list Sys.argv)

let rec opt name = function
  | k :: v :: _ when k = name -> Some v
  | _ :: rest -> opt name rest
  | [] -> None

let flag name = List.mem name args
let int_opt name = Option.bind (opt name args) int_of_string_opt
let required what = function
  | Some v -> v
  | None ->
    prerr_endline ("bench: missing " ^ what);
    usage ()

let json_metric (name, value, unit) =
  Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Measure.json_string name) (Measure.json_float value)
    (Measure.json_string unit)

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", " (List.map json_metric metrics))

let timed_samples (r : Work.report) = List.filter (fun s -> Float.is_finite s.Work.wall) r.Work.samples

type totals = { attempted : int; failed : int; wrong : int }

(* Ops attempted and failed over the samples and the checks; prints the
   checks and the digest of everything simulated. *)
let totals (r : Work.report) =
  List.iter
    (fun (what, ok) -> Printf.printf "check %s: %s\n" (if ok then "ok" else "FAILED") what)
    r.Work.checks;
  let bad_checks = List.length (List.filter (fun (_, ok) -> not ok) r.Work.checks) in
  let sum f = Measure.sum_int (List.map f r.Work.samples) in
  Printf.printf "sim_cycles %d\ndigest %s\n" (sum (fun s -> s.Work.cycles))
    (Work.md5 (String.concat "\n" (List.map (fun s -> s.Work.digest) r.Work.samples)));
  {
    attempted = sum (fun s -> s.Work.attempted) + List.length r.Work.checks;
    failed = sum (fun s -> s.Work.failed) + bad_checks;
    wrong = sum (fun s -> s.Work.wrong) + bad_checks;
  }

let stamp ~rev ~workload ~seed ~seconds ~trace ~jobs ~ops =
  Printf.printf
    "stamp {\"rev\": %s, \"nproc\": %d, \"ocaml\": %s, \"jobs\": %d, \"workload\": %s, \"seed\": %d, \
     \"seconds\": %g, \"trace\": %d, \"ops\": %d}\n%!"
    (Measure.json_string rev) (Domain.recommended_domain_count ()) (Measure.json_string Sys.ocaml_version)
    jobs (Measure.json_string workload) seed seconds (if trace then 1 else 0) ops

let describe workload (r : Work.report) =
  let timed = timed_samples r in
  Printf.printf "workload %s: %d timed iterations, %d %s, %d set-ups\n" workload (List.length timed)
    (Measure.sum_int (List.map (fun s -> s.Work.ops) timed)) r.Work.op (List.length r.Work.setups);
  Printf.printf "iteration walls (s): %s\nhost reference around each (ms): %s\nset-up times (s): %s\n"
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.4f" s.Work.wall) timed))
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" (1e3 *. s.Work.host)) timed))
    (String.concat " " (List.map (Printf.sprintf "%.4f") r.Work.setups));
  List.iter print_endline r.Work.lines

(* Times are scaled to the reference host speed (Measure.scaled): each
   iteration by the reference loop timed around it, set-up by the run's
   median.  The unscaled figures are printed beside them. *)
let end_to_end (r : Work.report) (t : totals) =
  let timed = timed_samples r in
  let host = Measure.median r.Work.host_ref in
  let median_of f = Measure.median (List.map f timed) in
  let scaled s = Measure.scaled s.Work.wall ~host:s.Work.host in
  let cycles = Measure.sum_int (List.map (fun s -> s.Work.cycles) timed) in
  let walls = Measure.sum_float (List.map (fun s -> s.Work.wall) timed) in
  if cycles > 0 then Printf.printf "sim_cycles_per_s %.1f (unscaled)\n" (float_of_int cycles /. walls);
  Printf.printf "unscaled: setup_s %.6f, wall_s %.6f, ops_per_s %.3f; host reference %.3f ms (%.0f ms at reference speed)\n"
    (Measure.median r.Work.setups) (median_of (fun s -> s.Work.wall))
    (median_of (fun s -> float_of_int s.Work.ops /. s.Work.wall))
    (1e3 *. host) (1e3 *. Measure.reference_s);
  [ ("setup_s", Measure.scaled (Measure.median r.Work.setups) ~host, "s");
    ("wall_s", median_of scaled, "s");
    ("ops_per_s", median_of (fun s -> float_of_int s.Work.ops /. scaled s), "1/s");
    ("peak_rss_mb", r.Work.peak_rss_mb, "MB");
    ("ok_share", float_of_int (t.attempted - t.failed) /. float_of_int (max 1 t.attempted), "ratio") ]

(* Layer self time of [spans], printed; returns the unattributed share. *)
let print_self_times title spans =
  let layers, roots = Span.self_times spans in
  Printf.printf "%s: layer self time (%.3f s)\n" title roots;
  List.iter
    (fun (layer, s) -> Printf.printf "  %-10s %9.4f s  %5.1f%%\n" layer s (100.0 *. s /. Float.max roots 1e-9))
    layers;
  Span.unattributed_share spans

let traced_metrics workload (r : Work.report) ~seed ~wp_cli =
  let timed = timed_samples r in
  let walls traced =
    Measure.median (List.filter_map (fun s -> if s.Work.traced = traced then Some s.Work.wall else None) timed)
  in
  let overhead = walls true -. walls false in
  Printf.printf "tracing overhead %.6f s per iteration (traced %.6f s, untraced %.6f s)\n" overhead
    (walls true) (walls false);
  let unattributed = print_self_times (workload ^ ", traced iterations") r.Work.spans in
  Span.on := true;
  let parts =
    List.map
      (fun (name, part) ->
        Span.current_tag := 0;
        let m0 = Span.mark () in
        let p = Span.with_ ("bench.layers_" ^ name) part in
        ignore (print_self_times ("layers of " ^ name) (Span.spans_between m0 (Span.mark ())));
        List.iter (fun s -> Printf.printf "mismatch %s\n" s) p.Layers.mismatches;
        p)
      (Layers.parts ~seed ~wp_cli)
  in
  Span.on := false;
  Measure.ensure_out_dir ();
  let path = Filename.concat Measure.out_dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
  let oc = open_out path in
  output_string oc (Span.chrome (Span.spans ()));
  close_out oc;
  Printf.printf "spans: %d written to %s\n" (List.length (Span.spans ())) path;
  ( List.concat_map (fun p -> List.map (fun x -> (x.Layers.name, x.Layers.value, x.Layers.unit)) p.Layers.metrics) parts
    @ [ ("trace.overhead_s", overhead, "s"); ("trace.unattributed_share", unattributed, "ratio");
        ("bench.host_ref_ms", 1e3 *. Measure.median r.Work.host_ref, "ms");
        ("bench.unscaled_wall_s", Measure.median (List.map (fun s -> s.Work.wall) timed), "s") ],
    Measure.sum_int (List.map (fun p -> p.Layers.attempted) parts),
    Measure.sum_int (List.map (fun p -> p.Layers.failed) parts) )

let run_workload ?flows workload ~seed ~seconds ~trace ~smoke ~rev ~wp_cli =
  let w =
    match List.assoc_opt workload Work.all with
    | Some w -> w
    | None -> usage ()
  in
  let ctx = { Work.seed; seconds; smoke; wp_cli } in
  let traced i = trace && i mod 2 = 0 in
  let r =
    match flows with
    | Some flows -> Work.flow ~flows ctx ~traced
    | None -> w ctx ~traced
  in
  describe workload r;
  let t = totals r in
  let metrics, attempted, failed, wrong =
    if trace then
      let metrics, pa, pf = traced_metrics workload r ~seed ~wp_cli in
      (metrics, t.attempted + pa, t.failed + pf, t.wrong + pf)
    else (end_to_end r t, t.attempted, t.failed, t.wrong)
  in
  Printf.printf "failed %d of %d ops (%d wrong outputs)\n" failed attempted wrong;
  stamp ~rev ~workload ~seed ~seconds ~trace ~jobs:r.Work.jobs ~ops:attempted;
  print_result ~correct:(wrong = 0) ~attempted ~failed metrics

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let seed () = required "--seed" (int_opt "--seed") in
  let trace () =
    match opt "--trace" args with Some "1" -> true | Some "0" | None -> false | Some _ -> usage ()
  in
  let flow_seed () = required "--flow-seed" (int_opt "--flow-seed") in
  let mode name = Option.map (fun v -> (name, v)) (opt name args) in
  match
    List.find_map Fun.id
      [ mode "--reference"; mode "--ready"; mode "--flow-child"; mode "--replay-child"; mode "--flow-check" ]
  with
  | Some ("--reference", k) ->
    let k = required "--reference" (int_of_string_opt k) in
    let times = List.init k (fun _ -> Measure.host_reference ()) in
    Printf.printf "reference %.9f\n" (Measure.sum_float times /. float_of_int k)
  | Some ("--ready", w) -> Work.ready w ~seed:(seed ())
  | Some ("--flow-child", topology) ->
    Work.flow_child ~smoke:(flag "--smoke") ~jobs:(required "--jobs" (int_opt "--jobs")) ~topology
      ~flow_seed:(flow_seed ()) ~trace:(trace ())
  | Some ("--replay-child", topology) ->
    Span.on := trace ();
    let us, solves = Layers.incremental_replay ~topology ~seed:(flow_seed ()) ~steps:1000 in
    Span.on := false;
    Span.export stdout;
    Printf.printf "replay %.6f %d\n" us solves
  | Some (_, topology) ->
    run_workload ~flows:[ (topology, flow_seed ()) ] "flow" ~seed:(flow_seed ()) ~seconds:1.0
      ~trace:false ~smoke:false ~rev:"flow-check" ~wp_cli:""
  | None ->
    let seconds =
      match Option.bind (opt "--seconds" args) float_of_string_opt with
      | Some s when s > 0.0 -> s
      | _ -> usage ()
    in
    run_workload (required "--workload" (opt "--workload" args)) ~seed:(seed ()) ~seconds ~trace:(trace ())
      ~smoke:(flag "--smoke") ~rev:(Option.value ~default:"unknown" (opt "--rev" args))
      ~wp_cli:(required "--wp-cli" (opt "--wp-cli" args))
