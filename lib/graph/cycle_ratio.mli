(** Minimum cycle ratio.

    For edge attributes [cost] and [time] (integers, [time >= 0], every
    cycle having positive total time), the minimum cycle ratio is

      min over elementary cycles C of  (sum cost) / (sum time).

    This is the quantity behind the paper's sustainable-throughput bound:
    with [cost e = 1] and [time e = 1 + relay_stations e], the minimum over
    loops of [m / (m + n)] is exactly the minimum cycle ratio.

    One solver computes it: policy iteration (Cochet-Terrasson et al.
    1998), cold in {!minimum} and warm-started in {!Incremental}.  The
    result is an exact rational certified by the witnessing cycle. *)

type ratio = {
  num : int;
  den : int;  (** always > 0; the fraction is in lowest terms *)
}

val ratio_to_float : ratio -> float
val ratio_compare : ratio -> ratio -> int
val ratio_pp : Format.formatter -> ratio -> unit

val make_ratio : int -> int -> ratio
(** Normalises sign and reduces. @raise Invalid_argument when the
    denominator is 0. *)

val minimum :
  Digraph.t ->
  cost:(Digraph.edge -> int) ->
  time:(Digraph.edge -> int) ->
  (ratio * Digraph.edge list) option
(** [None] when the graph is acyclic.  The returned cycle achieves the
    ratio.  A cold {!Incremental} solve after checking the time
    preconditions.
    @raise Invalid_argument if some [time] is negative or some cycle
    has zero total time.
    @raise Failure if policy iteration does not converge (see
    {!Incremental.solve}). *)

val cycle_ratio :
  Digraph.t ->
  cost:(Digraph.edge -> int) ->
  time:(Digraph.edge -> int) ->
  Digraph.edge list ->
  ratio
(** Ratio of one given cycle. *)

(** {2 Exact certificate}

    A ratio [r = num/den] is the minimum cycle ratio exactly when no
    cycle has [den * cost - num * time < 0] (every cycle's ratio is at
    least [r]) and some cycle has it [= 0] (one cycle's ratio is [r]).
    Both are integer tests, independent of any solver. *)

val potentials :
  Digraph.t ->
  cost:(Digraph.edge -> int) ->
  time:(Digraph.edge -> int) ->
  ratio ->
  int array option
(** Integer Bellman-Ford on the edge weights [den * cost - num * time]
    from a virtual source at every vertex: [Some theta] with
    [theta.(dst) <= theta.(src) + den * cost - num * time] on every
    edge (the array has [max 1 V] entries), or [None] when a cycle of
    negative weight — a cycle of ratio below [r] — exists. *)

val is_minimum :
  Digraph.t ->
  cost:(Digraph.edge -> int) ->
  time:(Digraph.edge -> int) ->
  ratio ->
  bool
(** [r] is the minimum cycle ratio: {!potentials} succeeds and the
    edges it leaves tight (zero slack) contain a cycle.  [false] on an
    acyclic graph. *)

val is_clamped_minimum :
  Digraph.t ->
  cost:(Digraph.edge -> int) ->
  time:(Digraph.edge -> int) ->
  ratio ->
  bool
(** [r] is the minimum cycle ratio clamped at [1/1] (a throughput
    bound: [1/1] also for an acyclic graph).  At [1/1] only "no cycle
    below it" is needed ({!potentials}); below, {!is_minimum}; above,
    [false]. *)

(** Incremental minimum cycle ratio over a fixed topology with mutable
    edge weights.

    Built for the floorplan→throughput co-optimization loop: moving a
    block only changes the weights of the channels incident to it, so
    the evaluator keeps its policy-iteration state (the chosen out-edge
    per vertex, the potential anchor of every policy cycle, and the SCC
    decomposition, which depends only on the never-changing topology)
    alive across perturbations and warm-starts the next solve from the
    previous optimal policy.  On local perturbations the warm policy
    typically needs zero or one improvement sweeps, versus a full cold
    policy iteration plus graph reconstruction for a from-scratch solve.

    The state is flat arrays built once in {!Incremental.create} (edge
    endpoints, the intra-SCC edge list, per-vertex ratio, potential and
    closing vertex of the policy cycle), and a warm solve allocates
    only its result.

    The result of {!Incremental.solve} is always the exact optimum —
    the test suite checks it against Lawler's parametric search and
    cycle enumeration over random perturbation sequences; only the work
    to reach it is amortised.

    Termination: a policy cycle that survives into the next evaluation
    keeps its previous potential-0 anchor vertex, the rule under which
    Cochet-Terrasson et al. prove the iteration finite.

    {!Incremental.minimum} goes one step further and often skips policy
    iteration altogether.  Beside its last answer [num/den] it keeps an
    exact integer certificate: potentials [theta] with
    [theta.(dst) <= theta.(src) + den * cost - num * time] on every
    edge inside an SCC (the only edges on cycles), the witness cycle,
    and a deduplicated log of the edges whose weight changed since.
    The ratio is proven unchanged when no logged edge lies on the
    witness (so a cycle of ratio [num/den] still exists) and a
    queue-based relaxation starting from the logged edges restores
    every inequality (so no cycle is below it) within 2 E edge
    relaxations.  Otherwise — and whenever the cap is hit, which is
    how a cycle below [num/den] shows — it runs {!Incremental.solve}
    and rebuilds the certificate from the converged policy in
    O(V + E). *)
module Incremental : sig
  type t

  val create :
    Digraph.t ->
    cost:(Digraph.edge -> int) ->
    time:(Digraph.edge -> int) ->
    t
  (** Snapshot the weights and precompute the SCC decomposition and an
      initial proper policy.  The graph topology must not change after
      this call (weights change through {!set_cost}/{!set_time}).
      @raise Invalid_argument if some [time] is negative. *)

  val set_cost : t -> Digraph.edge -> int -> unit
  val set_time : t -> Digraph.edge -> int -> unit
  (** Perturb one edge's weight; O(1), marks the state dirty.  As with
      {!minimum}, every cycle must keep positive total time — this is
      the caller's invariant (relay-station weights are always >= 1
      on forward edges). @raise Invalid_argument on negative time. *)

  val cost : t -> Digraph.edge -> int
  val time : t -> Digraph.edge -> int

  val solve : t -> (ratio * Digraph.edge list) option
  (** Exact minimum cycle ratio under the current weights, [None] when
      the graph is acyclic.  Returns the memoised result in O(1) when no
      weight changed since the last solve; otherwise runs policy
      improvement warm-started from the previous optimal policy.
      @raise Failure after [V * E + 16] improvement rounds without
      convergence, rather than return a ratio that may not be optimal. *)

  val solves : t -> int
  (** Number of actual policy-iteration runs (i.e. cache misses) so far
      — observability for the evaluation-cache benchmarks. *)

  val minimum : t -> (ratio * Digraph.edge list) option
  (** The same exact minimum cycle ratio as {!solve}, with a witness
      cycle, but certified rather than re-solved when the perturbations
      since the last call provably leave it unchanged (see above); the
      certified path allocates nothing.  The certificate's arrays are
      allocated on the first call, so an evaluator that only uses
      {!solve} never pays for them.
      @raise Failure as {!solve}. *)

  val certified : t -> int
  (** Number of {!minimum} calls answered by the certificate, without
      policy iteration. *)
end
