(** Relay-station placement optimisation (the "Optimal k" Table 1 rows).

    Given a total relay-station budget, search the placements over the
    nine optimisable connections (CU-IC is excluded: its RS count is fixed
    by the fetch-interface length, and the paper never re-places it) for
    the one with the best throughput.  Placements are pre-ranked by the
    static worst-loop bound — cheap to evaluate — and only the best
    candidates are simulated.

    The searches take a {!search} spec record — the same convention as
    {!Run_spec} for simulation runs and [Wp_floorplan.Flow_spec] for the
    co-optimization flow (which projects onto {!search}; the dependency
    points floorplan→core, so the projection lives there). *)

type search = {
  budget : int;               (** total relay stations to place *)
  per_connection_max : int;   (** cap per connection *)
  exclude : Wp_soc.Datapath.connection list;  (** connections pinned at 0 *)
  candidates : int;           (** shortlist size for {!optimal} *)
  seed : int;                 (** PRNG seed for {!anneal_placement} *)
  schedule : Config.t Wp_util.Anneal.schedule;  (** annealing schedule *)
}

val default_search : search
(** budget 9, per-connection max 2, CU-IC excluded, 24 candidates,
    seed 42, the annealer's classic 2000-step schedule. *)

val search_digest : search -> string
(** Stable pipe-joined key over every field (cache/artifact naming). *)

val enumerate :
  budget:int ->
  per_connection_max:int ->
  ?exclude:Wp_soc.Datapath.connection list ->
  unit ->
  Config.t list
(** All configurations with exactly [budget] relay stations in total and
    at most [per_connection_max] per connection; excluded connections stay
    at zero.  Enumeration order: earlier connections of
    {!Wp_soc.Datapath.all_connections} vary slowest, counts ascending.
    This is the one function that materialises the search space; the
    rankings below walk the same placements in the same order without
    building them.  @raise Invalid_argument if the budget is negative or
    unreachable — the message names the offending budget and the
    capacity ([connections x per-connection max]) so sweep scripts can
    report the bad knob directly. *)

val best_static :
  budget:int ->
  per_connection_max:int ->
  ?exclude:Wp_soc.Datapath.connection list ->
  unit ->
  Config.t * float
(** The placement maximising the static WP1 bound: the head of
    {!optimal}'s ranking (bound descending, physical relay stations
    ascending, then enumeration order).  Streams the search space; only
    the winner is materialised.  @raise Invalid_argument as
    {!enumerate}. *)

val optimal :
  search:search ->
  ?map:((Config.t -> float) -> Config.t list -> float list) ->
  objective:(Config.t -> float) ->
  unit ->
  Config.t * float
(** Rank all placements by the static bound, keep the [search.candidates]
    best, evaluate [objective] (e.g. simulated WP2 throughput) on those,
    return the winner.

    The ranking streams: one walk scores every placement in integers
    against {!Analysis}'s compiled loops and keeps a bounded, sorted
    shortlist, so the search space is never materialised (the 180k
    placements of "Optimal 2" rank with a few thousand words allocated).
    The order is total and deterministic: worst-loop bound descending,
    then physical relay stations ({!Config.total_channels}) ascending,
    then {!enumerate} order.

    [map] (default [List.map]) evaluates the shortlist, best first; pass
    {!Runner.map} to fan the simulations out across cores — the winner
    is folded in shortlist order either way, so the result is
    independent of [map].  @raise Invalid_argument as {!enumerate}, or
    if [search.candidates < 1]. *)

val anneal_placement :
  search:search ->
  ?objective:(Config.t -> float) ->
  unit ->
  Config.t * float
(** Simulated-annealing alternative for budgets where exhaustive
    enumeration is impractical: moves shift one relay station between
    connections, keeping the total exactly [search.budget]; the PRNG is
    seeded from [search.seed] so equal specs give equal placements.  The
    default objective is the static WP1 bound (cheap); pass a
    simulation-backed objective for final refinement.
    @raise Invalid_argument if the budget is unreachable (message names
    budget and capacity, as {!enumerate}). *)
