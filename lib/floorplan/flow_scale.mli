(** Floorplan→throughput co-optimization at generated-netlist scale.

    The closed methodology loop of the paper — geometry determines
    relay-station counts, relay stations determine loop throughput,
    throughput feeds back into placement — run on {!Wp_topo.Topology}
    netlists (meshes, tori, rings, random graphs up to thousands of
    blocks) instead of the 5-block case study:

    - blocks live on a square grid with ~30% slack cells, so the
      occupied bounding box (the die area) and every channel's Manhattan
      length respond to moves;
    - every move re-derives the touched channels' lengths and
      relay-station counts from geometry and pushes only those weights
      into a {!Wp_graph.Cycle_ratio.Incremental} evaluator.  Its
      {!Wp_graph.Cycle_ratio.Incremental.minimum} proves the throughput
      bound unchanged when no changed edge lies on the last witness
      cycle and a relaxation from the changed edges restores its exact
      integer potentials within 2 E edge relaxations; only otherwise
      does warm-started policy iteration re-solve it (on rand:1000,
      about 19 moves in 20 are certified).  The capacity graph is
      never rebuilt; the wirelength, the
      relay-station total, the bounding box (per-row and per-column
      occupancy counts) and the placement hash are kept up to date in
      the same O(changed channels) step;
    - the search is population-based annealing: [spec.pool] walkers
      (each a deterministic Metropolis chain with its own PRNG and, in
      Pareto mode, its own scalarisation weights) sharded across
      {!Wp_util.Pool} domains, exchanging elites on a ring after every
      round;
    - an evaluation cache keyed by the two-word placement hash (the XOR
      over nodes of mixed (node, cell) keys) and shared by all walkers
      scores any repeated placement once — values are pure functions of
      the placement, and a walker sees only earlier rounds' entries and
      its own, so the trajectories, the evaluator calls and hence the
      whole result, byte for byte, are independent of the domain count;
    - every evaluation feeds a dominance-filtered Pareto archive over
      (die area, total wirelength, WP1/static throughput bound).

    Before [run] returns, the best point's bound is certified on the
    freshly derived network's capacity graph by
    {!Wp_topo.Topology.certifies_bound}: integer Bellman-Ford finds no
    cycle of lower ratio and, below the [1/1] clamp, the tight edges
    close a cycle of exactly that ratio.  The certificate shares no
    code with policy iteration, and it is exact, not a tolerance. *)

type point = {
  die_area : float;            (** occupied bounding box, cells *)
  wirelength : float;          (** total Manhattan channel length *)
  wp1_bound : Wp_graph.Cycle_ratio.ratio;  (** MCR clamped at 1/1 *)
  rs_total : int;              (** total relay stations implied *)
  cells : int array;           (** node -> grid cell *)
}

type result = {
  front : point list;
      (** the Pareto front, best throughput first (ties: smaller area,
          then smaller wirelength) *)
  best : point;                (** head of [front] *)
  walkers : int;
  rounds : int;                (** elite-exchange barriers *)
  moves : int;                 (** total annealing proposals *)
  evaluations : int;           (** distinct placements actually scored *)
  cache_hits : int;            (** evaluations served from the cache *)
  certified : int;
      (** evaluations whose bound {!Wp_graph.Cycle_ratio.Incremental.minimum}
          certified unchanged, without policy iteration *)
  solved : int;
      (** evaluations that ran policy iteration; [certified + solved =
          evaluations].  Neither is in {!front_to_json}. *)
}

val run : ?jobs:int -> ?spec:Flow_spec.t -> unit -> result
(** Run the scaled flow.  [spec.topology] must be
    {!Flow_spec.Generated}; [spec.budget] total moves are split evenly
    across [spec.pool] walkers; [jobs] (default
    {!Wp_util.Pool.default_jobs}) only sets the domain count — the
    result is byte-identical for any [jobs].
    @raise Invalid_argument on {!Flow_spec.Case_study}.
    @raise Failure if the incremental bound of the winning placement
    fails its certificate (cannot happen if the incremental evaluator
    is correct; checked unconditionally). *)

val derived_network : Flow_spec.t -> point -> Wp_sim.Network.t
(** The generated netlist with every channel's relay-station count set
    from the point's grid geometry — the concrete configuration the
    point stands for. *)

val scratch_bound : ?capacity:int -> Wp_sim.Network.t -> Wp_graph.Cycle_ratio.ratio
(** From-scratch reference: {!Wp_topo.Topology.mcr}, a cold solve of a
    freshly built capacity-extended graph clamped at 1/1 (capacity
    defaults to 2, matching the flow). *)

val static_rate : ?capacity:int -> Wp_sim.Network.t -> Wp_graph.Cycle_ratio.ratio
(** The balanced-word firing rate of node 0 under the {!Wp_sim.Static}
    engine's schedule — the simulation-side cross-check of
    {!scratch_bound} (equal on strongly connected nets).
    @raise Wp_sim.Static.Unschedulable as {!Wp_sim.Static.schedule}. *)

val front_to_json : spec:Flow_spec.t -> result -> string
(** The [flow_front.json] artifact: spec digest, search counters, best
    point and the full front. *)
