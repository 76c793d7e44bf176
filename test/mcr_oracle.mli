(** Independent minimum-cycle-ratio oracles for the test suite.

    The library has one solver, policy iteration
    ({!Wp_graph.Cycle_ratio}).  These check it with algorithms that
    share none of its code: Lawler's parametric search over
    Bellman-Ford negative-cycle tests, brute-force enumeration of
    elementary cycles, and Karp's maximum cycle mean.  One more module,
    {!Reference_incremental}, is the solver itself in its earlier
    list-based form: a differential reference for the step-by-step
    behaviour, not an independent oracle. *)

module Digraph = Wp_graph.Digraph
module Cycle_ratio = Wp_graph.Cycle_ratio

type potentials =
  | Distances of float array
      (** shortest distance from a virtual source joined to every
          vertex by a 0-weight edge *)
  | Negative_cycle of Digraph.edge list  (** a cycle of negative weight *)

val potentials : Digraph.t -> weight:(Digraph.edge -> float) -> potentials
(** Bellman-Ford from the virtual source: finds a negative cycle
    anywhere in the graph, else finite potentials for all vertices. *)

type solver =
  Digraph.t ->
  cost:(Digraph.edge -> int) ->
  time:(Digraph.edge -> int) ->
  (Cycle_ratio.ratio * Digraph.edge list) option
(** [None] when the graph is acyclic, else the optimal ratio and a
    cycle achieving it.  Times must be non-negative with no zero-time
    cycle; the oracles do not check. *)

val lawler_minimum : solver
(** Binary search on [lambda] for the largest value with no cycle of
    negative [cost - lambda * time], then the exact ratio of the last
    witness cycle. *)

val lawler_maximum : solver
(** {!lawler_minimum} on negated costs. *)

val enumeration_minimum : solver
(** Minimum over {!Wp_graph.Cycles.elementary_cycles}; exponential in
    the worst case, exact always. *)

val karp_maximum_mean : Digraph.t -> weight:(Digraph.edge -> float) -> float option
(** Karp's O(V E) maximum cycle mean (total weight over edge count),
    per strongly connected component.  [None] when acyclic. *)

val karp_minimum_mean : Digraph.t -> weight:(Digraph.edge -> float) -> float option

(** The list-based formulation of {!Wp_graph.Cycle_ratio.Incremental}
    (recursive chain walk over edge lists, one policy-cycle list per
    vertex), kept as the differential reference for the library's
    flat-array solver: same vertex order, same anchors, same
    floating-point sums, hence the same ratio, witness list and solve
    count at every step. *)
module Reference_incremental : sig
  type t

  val create :
    Digraph.t -> cost:(Digraph.edge -> int) -> time:(Digraph.edge -> int) -> t

  val set_cost : t -> Digraph.edge -> int -> unit
  val set_time : t -> Digraph.edge -> int -> unit

  val solve : t -> (Cycle_ratio.ratio * Digraph.edge list) option
  (** @raise Failure after [V * E + 16] improvement rounds. *)

  val solves : t -> int
end
