(* Clocks, order statistics, seeds, memory readings, JSON and child
   processes: what every workload of the benchmark shares. *)

let now_ns () = Monotonic_clock.now ()
let seconds_between a b = Int64.to_float (Int64.sub b a) *. 1e-9
let since t0 = seconds_between t0 (now_ns ())

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

(* Linear interpolation between order statistics. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = truncate pos in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* Host speed.  On a shared 2-vCPU VM the host slows every process down
   by up to a third for seconds to minutes at a time (steal time stays
   near zero, CPU time equals wall time), so the benchmark times a fixed
   reference workload before and after every iteration and scales the
   iteration's time to the reference speed: [scaled t ~host = t *
   reference_s / host].  The reference mixes what the workloads do:
   allocation and pointer chasing in a Map, and integer arithmetic over
   a 4 MB array.  It runs in a child process of its own
   (Work.host_speed), so the program's heap and caches cannot change its
   time.  [reference_s] is about its time on a 2 GHz Xeon. *)
let reference_s = 0.120

module Int_map = Map.Make (Int)

let host_reference () =
  let a = Array.init (512 * 1024) (fun i -> (i * 7919) land 0xffff) in
  let n = Array.length a in
  let t0 = now_ns () in
  let m = ref Int_map.empty in
  for i = 1 to 80_000 do
    m := Int_map.add ((i * 7919) mod 100_003) i !m
  done;
  let acc = ref (Int_map.cardinal !m) in
  for _ = 1 to 12 do
    for k = 0 to n - 1 do
      acc := !acc + ((a.((k * 17) land (n - 1)) lxor !acc) land 1023)
    done
  done;
  ignore (Sys.opaque_identity !acc);
  since t0

let scaled t ~host = t *. reference_s /. host

let sum_float xs = List.fold_left ( +. ) 0.0 xs
let sum_int xs = List.fold_left ( + ) 0 xs

(* Seed derivation: a splitmix-style mix, so (seed, i) pairs spread over
   a 30-bit range and no two iterations share inputs. *)
let mix x =
  let x = (x lxor (x lsr 31)) * 0x1d8e4e27c47d124f in
  let x = (x lxor (x lsr 29)) * 0x2bf58476d1ce4e5b in
  x lxor (x lsr 32)

let derive seed i = mix (mix seed + i) land 0x3fff_ffff

(* Peak resident set of a live process, in MB, from /proc/<pid>/status
   (VmHWM).  OCaml 5.1's Gc.top_heap_words sums per-domain maxima and is
   not a peak. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> nan
          | line ->
            (match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
             | Some kb -> float_of_int kb /. 1024.0
             | None -> scan ())
        in
        scan ())

let self_peak_rss_mb () = peak_rss_mb (Unix.getpid ())

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

(* Scratch files (sockets, traces) live here, inside the checkout. *)
let out_dir = ".layerbench_out"
let ensure_out_dir () = if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

(* A child process with a wall-clock deadline enforced from outside it.
   [run_child ~deadline prog args] returns the child's stdout and
   [`Exited code], [`Signaled n] or [`Killed] (deadline passed: SIGKILL,
   then reaped).  Stdout goes through a file, so a child that never
   returns cannot block the pipe. *)
let child_counter = ref 0

let run_child ~deadline prog args =
  ensure_out_dir ();
  incr child_counter;
  let out_path =
    Filename.concat out_dir (Printf.sprintf "child-%d-%d.out" (Unix.getpid ()) !child_counter)
  in
  let fd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t0 = now_ns () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin fd Unix.stderr)
  in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if since t0 > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        `Killed
      end
      else begin
        Unix.sleepf 0.002;
        wait ()
      end
    | _, Unix.WEXITED c -> `Exited c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> `Signaled s
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  let elapsed = since t0 in
  let output =
    let ic = open_in_bin out_path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove out_path;
  (status, output, elapsed)

let status_to_string = function
  | `Exited c -> Printf.sprintf "exit %d" c
  | `Signaled s -> Printf.sprintf "signal %d" s
  | `Killed -> "killed at its deadline"
