module Topology = Wp_topo.Topology
module Network = Wp_sim.Network
module Static = Wp_sim.Static
module Cycle_ratio = Wp_graph.Cycle_ratio
module Prng = Wp_util.Prng
module Pool = Wp_util.Pool

type point = {
  die_area : float;
  wirelength : float;
  wp1_bound : Cycle_ratio.ratio;
  rs_total : int;
  cells : int array;
}

type result = {
  front : point list;
  best : point;
  walkers : int;
  rounds : int;
  moves : int;
  evaluations : int;
  cache_hits : int;
  certified : int;
  solved : int;
}

(* ------------------------------------------------------------------ *)
(* Geometry: generated blocks live on a square grid with ~30% empty
   cells (so the occupied bounding box — the die area — can vary), unit
   cell pitch, Manhattan lengths between cell centers.               *)
(* ------------------------------------------------------------------ *)

type ctx = {
  n : int;                     (* nodes *)
  side : int;
  cells_total : int;
  chans : (int * int) array;   (* channel -> (src node, dst node) *)
  incident : int list array;   (* node -> incident channels, deduped *)
  reach : float;
  capacity : int;
  area0 : float;               (* initial-placement normalisers *)
  wire0 : float;
}

(* Lengths are integers (cells), so wirelength sums stay exact. *)
let cell_dist ctx a b =
  let ra = a / ctx.side and ca = a mod ctx.side in
  let rb = b / ctx.side and cb = b mod ctx.side in
  abs (ra - rb) + abs (ca - cb)

let chan_len ctx cells c =
  let a, b = ctx.chans.(c) in
  cell_dist ctx cells.(a) cells.(b)

let total_wire ctx cells =
  let acc = ref 0 in
  for c = 0 to Array.length ctx.chans - 1 do
    acc := !acc + chan_len ctx cells c
  done;
  !acc

(* Occupied cells per grid row and per grid column. *)
let occupy ctx ~rows ~cols cells =
  Array.fill rows 0 (Array.length rows) 0;
  Array.fill cols 0 (Array.length cols) 0;
  Array.iter
    (fun cell ->
      rows.(cell / ctx.side) <- rows.(cell / ctx.side) + 1;
      cols.(cell mod ctx.side) <- cols.(cell mod ctx.side) + 1)
    cells

(* The occupied bounding box, from the occupancy counts: O(side). *)
let bbox_area ~rows ~cols =
  let span counts =
    let lo = ref 0 and hi = ref (Array.length counts - 1) in
    while !lo <= !hi && counts.(!lo) = 0 do incr lo done;
    while !hi >= !lo && counts.(!hi) = 0 do decr hi done;
    !hi - !lo + 1
  in
  let r = span rows in
  if r <= 0 then 0.0 else float_of_int (r * span cols)

let rs_for ctx len = Flow.relay_stations_for ~reach:ctx.reach (float_of_int len)

(* ------------------------------------------------------------------ *)
(* Pareto dominance over (die area min, wirelength min, bound max)    *)
(* ------------------------------------------------------------------ *)

let dominates p q =
  p.die_area <= q.die_area && p.wirelength <= q.wirelength
  && Cycle_ratio.ratio_compare p.wp1_bound q.wp1_bound >= 0
  && (p.die_area < q.die_area || p.wirelength < q.wirelength
     || Cycle_ratio.ratio_compare p.wp1_bound q.wp1_bound > 0)

let same_metrics p q =
  p.die_area = q.die_area && p.wirelength = q.wirelength
  && Cycle_ratio.ratio_compare p.wp1_bound q.wp1_bound = 0

(* Insertion keeps first-seen order (deterministic merge): a point equal
   or dominated is dropped, otherwise it evicts what it dominates. *)
let archive_admits archive p =
  not (List.exists (fun q -> dominates q p || same_metrics q p) archive)

let archive_add archive p = List.filter (fun q -> not (dominates p q)) archive @ [ p ]

let archive_insert archive p = if archive_admits archive p then archive_add archive p else archive

(* ------------------------------------------------------------------ *)
(* Walkers                                                            *)
(* ------------------------------------------------------------------ *)

(* An evaluation: die area, wirelength, WP1 bound, relay stations. *)
type score = float * float * Cycle_ratio.ratio * int

(* Placement bookkeeping is incremental: a move touches two nodes, so it
   updates only their channels' lengths and relay stations, two rows'
   and two columns' occupancy, and the placement hash. *)
type walker = {
  id : int;
  prng : Prng.t;
  cells : int array;
  cell_of : int array;          (* cell -> node, -1 when empty *)
  len : int array;              (* channel -> Manhattan length *)
  rs : int array;               (* channel -> relay stations *)
  rows : int array;             (* grid row -> occupied cells *)
  cols : int array;             (* grid column -> occupied cells *)
  eval : Cycle_ratio.Incremental.t;
  fresh : (int * int, score * bool) Hashtbl.t;
      (* placements scored this round, and whether the bound was certified *)
  mutable wire : int;           (* sum of [len] *)
  mutable rs_total : int;       (* sum of [rs] *)
  mutable hash_a : int;         (* placement hash, two words *)
  mutable hash_b : int;
  wa : float;                   (* scalarisation weights *)
  ww : float;
  wt : float;
  mutable temperature : float;
  mutable cooldown : int;       (* moves since last cooling *)
  mutable current : float;
  mutable best_point : point;
  mutable best_cost : float;
  mutable archive : point list;
  mutable moves : int;
  mutable lookups : int;        (* evaluations requested (miss or hit) *)
}

let scalar w (area, wire, bound) ctx =
  (w.wa *. (area /. ctx.area0))
  +. (w.ww *. (wire /. ctx.wire0))
  +. (w.wt *. (1.0 -. Cycle_ratio.ratio_to_float bound))

let refresh_channel ctx w c =
  let len = chan_len ctx w.cells c in
  w.wire <- w.wire + len - w.len.(c);
  w.len.(c) <- len;
  let k = rs_for ctx len in
  if w.rs.(c) <> k then begin
    w.rs_total <- w.rs_total + k - w.rs.(c);
    w.rs.(c) <- k;
    List.iter
      (fun (e, tokens, time) ->
        Cycle_ratio.Incremental.set_cost w.eval e tokens;
        Cycle_ratio.Incremental.set_time w.eval e time)
      (Static.channel_edges ~capacity:ctx.capacity ~rs:k c)
  end

let refresh_node ctx w u = List.iter (refresh_channel ctx w) ctx.incident.(u)

(* Placement hash: the XOR over nodes of a mixed (node, cell) key, in
   two independently mixed words, so a move updates it in O(1). *)
let mix seed x =
  let x = (x + seed) * 0x3C6EF372FE94F82B in
  let x = (x lxor (x lsr 29)) * 0x1B873593D5A3F1E5 in
  x lxor (x lsr 32)

let toggle ctx w node cell =
  let key = (node * ctx.cells_total) + cell in
  w.hash_a <- w.hash_a lxor mix 0x2545F4914F6CDD1D key;
  w.hash_b <- w.hash_b lxor mix 0x0BF58476D1CE4E5B key

(* Node [node] leaves [cell] (or, called again, returns to it). *)
let lift ctx w node cell ~delta =
  toggle ctx w node cell;
  w.rows.(cell / ctx.side) <- w.rows.(cell / ctx.side) + delta;
  w.cols.(cell mod ctx.side) <- w.cols.(cell mod ctx.side) + delta

(* Rebuild every derived field from [w.cells]. *)
let place_all ctx w =
  Array.fill w.cell_of 0 (Array.length w.cell_of) (-1);
  Array.iteri (fun node cell -> w.cell_of.(cell) <- node) w.cells;
  occupy ctx ~rows:w.rows ~cols:w.cols w.cells;
  w.hash_a <- 0;
  w.hash_b <- 0;
  Array.iteri (toggle ctx w) w.cells;
  for c = 0 to Array.length ctx.chans - 1 do
    refresh_channel ctx w c
  done

(* The evaluation cache, keyed by the 126-bit placement hash (the
   chance that two of a run's few thousand placements collide is below
   2^-100).  Values are pure functions of the cells array (die area,
   integer wirelength and relay-station totals are exact, the bound is
   an exact rational), so a hit returns byte-identical data to a
   recompute.  [known] holds the placements scored in earlier rounds
   and is read-only while the walkers run, so lookups take no lock;
   each walker files this round's new placements in its own [fresh]
   table, merged into [known] at the round barrier in walker order.  A
   walker thus sees the same entries at any domain count, and so its
   evaluator is called at the same moves: the certified/solved split
   is as deterministic as the front. *)
type cache = {
  known : (int * int, score) Hashtbl.t;
  mutable certified : int;      (* evaluations whose bound was certified *)
  mutable solved : int;         (* evaluations that ran policy iteration *)
}

(* Score the walker's current placement.  The bound comes from
   [Incremental.minimum]: a move that provably leaves it unchanged is
   certified without re-solving. *)
let evaluate cache w =
  w.lookups <- w.lookups + 1;
  let key = (w.hash_a, w.hash_b) in
  match Hashtbl.find_opt cache.known key with
  | Some v -> v
  | None -> (
    match Hashtbl.find_opt w.fresh key with
    | Some (v, _) -> v
    | None ->
      let area = bbox_area ~rows:w.rows ~cols:w.cols in
      let before = Cycle_ratio.Incremental.certified w.eval in
      let bound = Topology.bound_of_solution (Cycle_ratio.Incremental.minimum w.eval) in
      let v = (area, float_of_int w.wire, bound, w.rs_total) in
      Hashtbl.add w.fresh key (v, Cycle_ratio.Incremental.certified w.eval > before);
      v)

let merge cache w =
  Hashtbl.iter
    (fun key (v, certified) ->
      if not (Hashtbl.mem cache.known key) then begin
        Hashtbl.add cache.known key v;
        if certified then cache.certified <- cache.certified + 1
        else cache.solved <- cache.solved + 1
      end)
    w.fresh;
  Hashtbl.clear w.fresh

(* Points are immutable once built, so the archive and the walker's
   best share one copy of the cells, made only when one of them keeps
   the point. *)
let observe ctx w (area, wire, bound, rs_total) =
  let cost = scalar w (area, wire, bound) ctx in
  let p = { die_area = area; wirelength = wire; wp1_bound = bound; rs_total; cells = w.cells } in
  let archived = archive_admits w.archive p and improved = cost < w.best_cost in
  if archived || improved then begin
    let p = { p with cells = Array.copy w.cells } in
    if archived then w.archive <- archive_add w.archive p;
    if improved then begin
      w.best_cost <- cost;
      w.best_point <- p
    end
  end;
  cost

(* Move node [u] from cell [src] to the different cell [dst], swapping
   with [dst]'s occupant [v] (-1 when empty) into [src].  Refreshing a
   channel is idempotent, so one shared by [u] and [v] may be refreshed
   twice. *)
let swap ctx w u src dst v =
  lift ctx w u src ~delta:(-1);
  lift ctx w u dst ~delta:1;
  w.cells.(u) <- dst;
  w.cell_of.(dst) <- u;
  if v >= 0 then begin
    lift ctx w v dst ~delta:(-1);
    lift ctx w v src ~delta:1;
    w.cells.(v) <- src;
    w.cell_of.(src) <- v
  end
  else w.cell_of.(src) <- -1;
  refresh_node ctx w u;
  if v >= 0 then refresh_node ctx w v

(* Move node [u] into cell [target] (swapping with the occupant if the
   cell is taken); returns what [undo_move] needs. *)
let apply_move ctx w u target =
  let cur = w.cells.(u) in
  let v = w.cell_of.(target) in
  swap ctx w u cur target v;
  (cur, v)

let undo_move ctx w u (cur, v) = swap ctx w u w.cells.(u) cur v

let cool schedule w =
  w.cooldown <- w.cooldown + 1;
  if w.cooldown >= schedule.Flow_spec.plateau then begin
    w.cooldown <- 0;
    w.temperature <- w.temperature *. schedule.Flow_spec.cooling
  end

let step ctx cache schedule w =
  w.moves <- w.moves + 1;
  let u = Prng.int w.prng ctx.n in
  let target = Prng.int w.prng ctx.cells_total in
  if target <> w.cells.(u) then begin
    let undo = apply_move ctx w u target in
    let v = evaluate cache w in
    let cost = observe ctx w v in
    let d = cost -. w.current in
    let accept =
      d <= 0.0 || Prng.float w.prng 1.0 < exp (-.d /. max w.temperature 1e-12)
    in
    if accept then w.current <- cost else undo_move ctx w u undo
  end;
  cool schedule w

(* ------------------------------------------------------------------ *)
(* Population                                                          *)
(* ------------------------------------------------------------------ *)

let walker_weights spec i =
  match spec.Flow_spec.objective with
  | Flow_spec.Area -> (1.0, 0.0, 0.0)
  | Flow_spec.Area_wire -> (1.0, 0.5, 0.0)
  | Flow_spec.Aware -> (1.0, 0.5, 3.0)
  | Flow_spec.Pareto ->
    (* Diverse deterministic scalarisations: each walker pushes into a
       different region of the (area, wire, throughput) front. *)
    let prng = Prng.create ~seed:(spec.Flow_spec.seed + (1_000_003 * (i + 1))) in
    let wa = 0.2 +. Prng.float prng 1.0 in
    let ww = 0.1 +. Prng.float prng 1.0 in
    let wt = 0.5 +. Prng.float prng 4.0 in
    (wa, ww, wt)

let make_walker ctx spec g tokens time i =
  let cells = Array.init ctx.n Fun.id in
  let nchan = Array.length ctx.chans in
  let eval = Cycle_ratio.Incremental.create g ~cost:tokens ~time in
  let wa, ww, wt = walker_weights spec i in
  let temperature =
    let t = spec.Flow_spec.schedule.Flow_spec.initial_temperature in
    if t > 0.0 then t else 0.3 *. (wa +. ww +. wt)
  in
  let w =
    {
      id = i;
      prng = Prng.create ~seed:(spec.Flow_spec.seed lxor (0x9E3779B9 * (i + 1)));
      cells;
      cell_of = Array.make ctx.cells_total (-1);
      len = Array.make nchan 0;
      rs = Array.make nchan (-1);
      rows = Array.make ctx.side 0;
      cols = Array.make ctx.side 0;
      eval;
      fresh = Hashtbl.create 1024;
      wire = 0;
      rs_total = -nchan;
      hash_a = 0;
      hash_b = 0;
      wa;
      ww;
      wt;
      temperature;
      cooldown = 0;
      current = infinity;
      best_point =
        { die_area = infinity; wirelength = infinity; wp1_bound = Cycle_ratio.make_ratio 0 1;
          rs_total = 0; cells = Array.copy cells };
      best_cost = infinity;
      archive = [];
      moves = 0;
      lookups = 0;
    }
  in
  place_all ctx w;
  w

let adopt ctx w (p : point) cost =
  Array.blit p.cells 0 w.cells 0 Array.(length p.cells);
  place_all ctx w;
  w.current <- cost;
  w.best_cost <- cost;
  w.best_point <- p

(* Ring elite exchange: after a round, walker [i] adopts its left
   neighbour's best state when that state scores better under [i]'s own
   scalarisation.  A pure function of the (deterministic) per-walker
   bests, so the exchange itself is domain-count independent. *)
let exchange ctx walkers =
  let k = Array.length walkers in
  let bests = Array.map (fun w -> w.best_point) walkers in
  Array.iteri
    (fun i w ->
      let donor = bests.((i + k - 1) mod k) in
      if donor.die_area < infinity then begin
        let cost = scalar w (donor.die_area, donor.wirelength, donor.wp1_bound) ctx in
        if cost < w.best_cost then adopt ctx w donor cost
      end)
    walkers

let build_ctx spec tspec =
  let net = Topology.build tspec in
  let n = Network.node_count net in
  let side = max 1 (int_of_float (ceil (sqrt (1.3 *. float_of_int n)))) in
  let chans =
    Array.of_list
      (List.map
         (fun c -> (fst (Network.channel_src net c), fst (Network.channel_dst net c)))
         (Network.channels net))
  in
  let incident = Array.make n [] in
  Array.iteri
    (fun c (a, b) ->
      incident.(a) <- c :: incident.(a);
      if b <> a then incident.(b) <- c :: incident.(b))
    chans;
  Array.iteri (fun v l -> incident.(v) <- List.rev l) incident;
  let ctx =
    {
      n;
      side;
      cells_total = side * side;
      chans;
      incident;
      reach = spec.Flow_spec.reach;
      capacity = 2;
      area0 = 1.0;
      wire0 = 1.0;
    }
  in
  let cells0 = Array.init n Fun.id in
  let rows = Array.make side 0 and cols = Array.make side 0 in
  occupy ctx ~rows ~cols cells0;
  let area0 = max (bbox_area ~rows ~cols) 1.0 in
  let wire0 = max (float_of_int (total_wire ctx cells0)) 1.0 in
  (net, { ctx with area0; wire0 })

let spec_topology spec =
  match spec.Flow_spec.topology with
  | Flow_spec.Generated t -> t
  | Flow_spec.Case_study ->
    invalid_arg "Flow_scale.run: the 5-block case study goes through Flow.run"

(* Derive the concrete network of one placement: the generated netlist
   with every channel's relay-station count set from its grid length. *)
let derived_network spec (point : point) =
  let tspec = spec_topology spec in
  let net, ctx = build_ctx spec tspec in
  List.iter
    (fun c ->
      Network.set_relay_stations net c (rs_for ctx (chan_len ctx point.cells c)))
    (Network.channels net);
  net

let scratch_bound = Topology.mcr

let run ?(jobs = Pool.default_jobs ()) ?(spec = Flow_spec.default) () =
  let tspec = spec_topology spec in
  let net, ctx = build_ctx spec tspec in
  let g, tokens, time = Static.capacity_graph ~capacity:ctx.capacity net in
  let k = max 1 spec.Flow_spec.pool in
  let walkers = Array.init k (make_walker ctx spec g tokens time) in
  let cache = { known = Hashtbl.create 4096; certified = 0; solved = 0 } in
  (* Score the (shared) initial placement so every walker starts with a
     defined current cost and one archive entry. *)
  Array.iter
    (fun w ->
      let v = evaluate cache w in
      w.current <- observe ctx w v;
      merge cache w)
    walkers;
  let steps_per_walker = max 1 (spec.Flow_spec.budget / k) in
  let rounds = max 1 (min 8 steps_per_walker) in
  let schedule = spec.Flow_spec.schedule in
  Pool.with_pool ~jobs (fun pool ->
      for round = 0 to rounds - 1 do
        let base = steps_per_walker / rounds in
        let extra = if round < steps_per_walker mod rounds then 1 else 0 in
        let steps = base + extra in
        ignore
          (Pool.map pool
             (fun w ->
               for _ = 1 to steps do
                 step ctx cache schedule w
               done)
             (Array.to_list walkers));
        Array.iter (merge cache) walkers;
        if k > 1 && round < rounds - 1 then exchange ctx walkers
      done);
  let merged =
    Array.fold_left
      (fun acc w -> List.fold_left archive_insert acc w.archive)
      [] walkers
  in
  let better p q =
    let c = Cycle_ratio.ratio_compare q.wp1_bound p.wp1_bound in
    if c <> 0 then c
    else if p.die_area <> q.die_area then compare p.die_area q.die_area
    else compare p.wirelength q.wirelength
  in
  let front = List.stable_sort better merged in
  let best = match front with [] -> assert false | p :: _ -> p in
  (* The headline invariant: the incremental evaluator's bound for the
     winning placement is the exact minimum cycle ratio of the freshly
     derived network's capacity graph, certified by integer
     Bellman-Ford and a tight cycle rather than by re-running the same
     policy iteration. *)
  if not (Topology.certifies_bound ~capacity:ctx.capacity (derived_network spec best) best.wp1_bound)
  then
    failwith
      (Format.asprintf
         "Flow_scale.run: incremental bound %a is not the exact MCR of the derived network"
         Cycle_ratio.ratio_pp best.wp1_bound);
  let moves = Array.fold_left (fun a w -> a + w.moves) 0 walkers in
  let lookups = Array.fold_left (fun a w -> a + w.lookups) 0 walkers in
  let evaluations = Hashtbl.length cache.known in
  {
    front;
    best;
    walkers = k;
    rounds;
    moves;
    evaluations;
    cache_hits = lookups - evaluations;
    certified = cache.certified;
    solved = cache.solved;
  }

let static_rate ?(capacity = 2) net =
  let s = Static.schedule ~capacity net in
  Wp_graph.Schedule.word_rate s 0

let point_json p =
  Printf.sprintf
    "{ \"die_area\": %.6f, \"wirelength\": %.6f, \"wp1_bound\": \"%d/%d\", \"wp1_bound_float\": %.9f, \"rs_total\": %d }"
    p.die_area p.wirelength p.wp1_bound.Cycle_ratio.num p.wp1_bound.Cycle_ratio.den
    (Cycle_ratio.ratio_to_float p.wp1_bound)
    p.rs_total

let front_to_json ~spec r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"spec\": %S,\n" (Flow_spec.digest spec));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"walkers\": %d,\n  \"rounds\": %d,\n  \"moves\": %d,\n  \"evaluations\": %d,\n  \"cache_hits\": %d,\n"
       r.walkers r.rounds r.moves r.evaluations r.cache_hits);
  Buffer.add_string buf (Printf.sprintf "  \"best\": %s,\n" (point_json r.best));
  Buffer.add_string buf "  \"front\": [\n";
  List.iteri
    (fun i p ->
      Buffer.add_string buf "    ";
      Buffer.add_string buf (point_json p);
      if i < List.length r.front - 1 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n")
    r.front;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf
