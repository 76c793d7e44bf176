module Datapath = Wp_soc.Datapath

let default_exclude = [ Datapath.CU_IC ]

type search = {
  budget : int;
  per_connection_max : int;
  exclude : Datapath.connection list;
  candidates : int;
  seed : int;
  schedule : Config.t Wp_util.Anneal.schedule;
}

let default_search =
  {
    budget = 9;
    per_connection_max = 2;
    exclude = default_exclude;
    candidates = 24;
    seed = 42;
    schedule =
      { Wp_util.Anneal.steps = 2000; initial_temperature = 0.2; cooling = 0.95; plateau = 40 };
  }

let search_digest s =
  String.concat "|"
    [
      Printf.sprintf "b%d" s.budget;
      Printf.sprintf "m%d" s.per_connection_max;
      Printf.sprintf "x%s"
        (String.concat "+" (List.map Datapath.connection_name s.exclude));
      Printf.sprintf "c%d" s.candidates;
      Printf.sprintf "s%d" s.seed;
      Printf.sprintf "a%dt%gx%gp%d" s.schedule.Wp_util.Anneal.steps
        s.schedule.Wp_util.Anneal.initial_temperature s.schedule.Wp_util.Anneal.cooling
        s.schedule.Wp_util.Anneal.plateau;
    ]

let unreachable_budget who budget per_connection_max slots =
  invalid_arg
    (Printf.sprintf
       "%s: budget %d exceeds capacity %d (%d connections x %d per connection)" who budget
       (per_connection_max * slots) slots per_connection_max)

let connection_count = List.length Datapath.all_connections

(* Physical channels per relay station, indexed like [Config.to_array]. *)
let channel_weights =
  Array.of_list
    (List.map (fun c -> Config.total_channels (Config.only c 1)) Datapath.all_connections)

let physical_channels counts =
  let n = ref 0 in
  for i = 0 to connection_count - 1 do
    n := !n + (counts.(i) * channel_weights.(i))
  done;
  !n

(* The one placement walker: a DFS over a mutable count vector that
   visits every placement with exactly [budget] relay stations and at most
   [per_connection_max] per non-excluded connection, in enumeration order
   (earlier connections vary slowest, counts ascending).  Subtrees that
   cannot reach the budget are skipped.  [visit] sees the shared vector
   and must copy whatever it keeps. *)
let walk who ~budget ~per_connection_max ~exclude visit =
  if budget < 0 then invalid_arg (Printf.sprintf "%s: negative budget %d" who budget);
  let slots =
    Array.of_list
      (List.filter_map
         (fun c -> if List.mem c exclude then None else Some (Config.index c))
         Datapath.all_connections)
  in
  let n = Array.length slots in
  if budget > per_connection_max * n then unreachable_budget who budget per_connection_max n;
  let counts = Array.make connection_count 0 in
  let rec place i remaining =
    if i = n then visit counts
    else
      for c = max 0 (remaining - (per_connection_max * (n - i - 1)))
          to min remaining per_connection_max do
        counts.(slots.(i)) <- c;
        place (i + 1) (remaining - c)
      done
  in
  place 0 budget

let enumerate ~budget ~per_connection_max ?(exclude = default_exclude) () =
  let results = ref [] in
  walk "Optimizer.enumerate" ~budget ~per_connection_max ~exclude (fun counts ->
      results := Config.of_array counts :: !results);
  List.rev !results

(* The [keep] best placements by static score: worst-loop bound
   descending (compared by cross-multiplication), then physical channels
   ascending, then enumeration order.  A bounded array stays sorted as
   the walker streams placements; an equal score is inserted after the
   entries already there, so ties keep enumeration order.  Only the
   survivors become [Config.t]. *)
let rank who ~budget ~per_connection_max ~exclude keep =
  let num = Array.make keep 0 and den = Array.make keep 1 and chans = Array.make keep 0 in
  let vecs = Array.init keep (fun _ -> Array.make connection_count 0) in
  let size = ref 0 in
  walk who ~budget ~per_connection_max ~exclude (fun counts ->
      let loop = Analysis.worst_loop counts in
      let m = loop.Analysis.processes in
      let d = m + Analysis.loop_stations counts loop in
      let c = physical_channels counts in
      let pos = ref !size in
      while
        !pos > 0
        &&
        let j = !pos - 1 in
        let lhs = m * den.(j) and rhs = num.(j) * d in
        lhs > rhs || (lhs = rhs && c < chans.(j))
      do
        decr pos
      done;
      if !pos < keep then begin
        let last = min !size (keep - 1) in
        let spare = vecs.(last) in
        for j = last downto !pos + 1 do
          num.(j) <- num.(j - 1);
          den.(j) <- den.(j - 1);
          chans.(j) <- chans.(j - 1);
          vecs.(j) <- vecs.(j - 1)
        done;
        Array.blit counts 0 spare 0 connection_count;
        vecs.(!pos) <- spare;
        num.(!pos) <- m;
        den.(!pos) <- d;
        chans.(!pos) <- c;
        if !size < keep then incr size
      end);
  List.init !size (fun i -> Config.of_array vecs.(i))

let best_static ~budget ~per_connection_max ?(exclude = default_exclude) () =
  match rank "Optimizer.best_static" ~budget ~per_connection_max ~exclude 1 with
  | [ best ] -> (best, Analysis.wp1_bound_float best)
  | _ -> assert false

let optimal ~search ?(map = List.map) ~objective () =
  let { budget; per_connection_max; exclude; candidates; _ } = search in
  if candidates < 1 then
    invalid_arg (Printf.sprintf "Optimizer.optimal: %d candidates, need at least 1" candidates);
  let shortlist = rank "Optimizer.optimal" ~budget ~per_connection_max ~exclude candidates in
  (* Objective evaluations fan out through [map] (e.g. a parallel
     runner); the winner is then folded in shortlist order, so the result
     — including tie-breaking towards the better static rank — is
     identical to the sequential fold. *)
  let values = map objective shortlist in
  match List.combine shortlist values with
  | [] -> assert false
  | (first, first_v) :: rest ->
    List.fold_left
      (fun (bc, bv) (config, v) -> if v > bv then (config, v) else (bc, bv))
      (first, first_v) rest

let anneal_placement ~search ?(objective = Analysis.wp1_bound_float) () =
  let { budget; per_connection_max; exclude; seed; schedule; _ } = search in
  let prng = Wp_util.Prng.create ~seed in
  let slots =
    Array.of_list (List.filter (fun c -> not (List.mem c exclude)) Datapath.all_connections)
  in
  let n = Array.length slots in
  if budget > per_connection_max * n then
    unreachable_budget "Optimizer.anneal_placement" budget per_connection_max n;
  (* Deterministic initial spread: round-robin one station at a time. *)
  let init =
    let config = ref Config.zero in
    for i = 0 to budget - 1 do
      let conn = slots.(i mod n) in
      config := Config.set !config conn (Config.get !config conn + 1)
    done;
    !config
  in
  (* Move: take one relay station from a loaded connection, give it to a
     connection with headroom. *)
  let neighbor prng config =
    let loaded = Array.to_list slots |> List.filter (fun c -> Config.get config c > 0) in
    let roomy =
      Array.to_list slots |> List.filter (fun c -> Config.get config c < per_connection_max)
    in
    match (loaded, roomy) with
    | [], _ | _, [] -> config
    | _ ->
      let pick xs = List.nth xs (Wp_util.Prng.int prng (List.length xs)) in
      let from_conn = pick loaded and to_conn = pick roomy in
      if from_conn = to_conn then config
      else
        Config.set
          (Config.set config from_conn (Config.get config from_conn - 1))
          to_conn
          (Config.get config to_conn + 1)
  in
  let result =
    Wp_util.Anneal.optimize ~prng ~init ~neighbor
      ~cost:(fun config -> -.objective config)
      ~schedule ()
  in
  (result.Wp_util.Anneal.best, -.result.Wp_util.Anneal.best_cost)
