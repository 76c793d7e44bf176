(** One record describing {e how} to run the floorplan→throughput
    co-optimization flow — the floorplan counterpart of
    {!Wp_core.Run_spec}.

    Before this module, {!Flow.run} (and its CLI surface) re-declared a
    sprawl of [?seed ?reach ?wirelength_weight ?throughput_weight
    ?schedule] optional arguments that could not express the scaled flow
    at all (no topology, no walker pool, no Pareto mode).  A
    [Flow_spec.t] carries every knob at once and {!digest} gives the
    single content key for caches and artifacts, exactly mirroring the
    [Run_spec] convention:

    - {!Flow.run} / {!Flow.objectives_ablation} (5-block case study) and
      [Flow_scale.run] (generated topologies) take [?spec];
    - {!of_args} is the one CLI parsing path;
    - {!to_search} projects onto {!Wp_core.Optimizer.search}, so the
      relay-station placement searches run under the same seed and
      annealing temperature discipline as the flow that invokes them
      (the dependency points floorplan→core, hence the projection lives
      here, not in [Optimizer]). *)

type topology =
  | Case_study  (** the paper's 5-block processor *)
  | Generated of Wp_topo.Topology.spec
      (** a generated netlist, e.g. [mesh:16x16] or [rand:1000] *)

type objective =
  | Area       (** die area only *)
  | Area_wire  (** area + wirelength (the classic floorplanner) *)
  | Aware      (** area + wirelength + loop-throughput penalty *)
  | Pareto
      (** fused multi-objective over (die area, total wirelength,
          WP1/static throughput bound): walkers scalarise with diverse
          weight vectors and every evaluation feeds a dominance-filtered
          Pareto front.  In the single-result case study this behaves
          like {!Aware}. *)

type schedule = {
  initial_temperature : float;
      (** [<= 0] means "auto": scaled to the problem (0.3 x total block
          area on the case study, a fraction of the initial cost on
          generated netlists) *)
  cooling : float;  (** multiplier applied every [plateau] moves *)
  plateau : int;
}

type t = {
  topology : topology;
  reach : float;    (** signal reach per clock, mm (wire of length [l]
                        needs [ceil (l/reach) - 1] relay stations) *)
  objective : objective;
  budget : int;     (** total annealing moves (split across the pool in
                        the scaled flow) *)
  seed : int;
  schedule : schedule;
  pool : int;       (** population size: annealing walkers (sharded
                        across [Wp_util.Pool] domains in the scaled
                        flow) *)
}

val default : t
(** Case study, reach 1.5, area+wirelength, budget 4000, seed 42, auto
    temperature with cooling 0.95 / plateau 40, 4 walkers. *)

val default_schedule : schedule

val v :
  ?topology:topology ->
  ?reach:float ->
  ?objective:objective ->
  ?budget:int ->
  ?seed:int ->
  ?schedule:schedule ->
  ?pool:int ->
  unit ->
  t
(** Build a spec; omitted fields take their {!default} values. *)

val of_args :
  ?topology:string ->
  ?reach:float ->
  ?objective:string ->
  ?budget:int ->
  ?seed:int ->
  ?temperature:float ->
  ?cooling:float ->
  ?plateau:int ->
  ?pool:int ->
  unit ->
  (t, string) result
(** Validating constructor for the CLI: [topology] is ["case"] or a
    {!Wp_topo.Topology.of_string} spec that {!Wp_topo.Topology.validate}
    accepts; [objective] is
    ["area"]/["wire"]/["aware"]/["pareto"].  The error message names the
    offending argument and value. *)

val digest : t -> string
(** Stable pipe-joined content key over every field, e.g.
    ["mesh:16x16|r1.5|pareto|b4000|s42|t0c0.95p40|k4"]. *)

val equal : t -> t -> bool
val describe : t -> string

val objective_to_string : objective -> string
val objective_of_string : string -> (objective, string) result
val topology_to_string : topology -> string
val topology_of_string : string -> (topology, string) result

val to_search :
  ?budget:int -> ?per_connection_max:int -> t -> Wp_core.Optimizer.search
(** Project the flow spec onto a relay-station placement search:
    [seed] and the temperature schedule come from the flow spec ([budget]
    here is the {e relay-station} budget, defaulting to
    {!Wp_core.Optimizer.default_search}'s); auto temperature falls back
    to the optimizer's default. *)
