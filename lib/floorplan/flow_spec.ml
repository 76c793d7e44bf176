module Topology = Wp_topo.Topology

type topology = Case_study | Generated of Topology.spec

type objective = Area | Area_wire | Aware | Pareto

type schedule = {
  initial_temperature : float;
  cooling : float;
  plateau : int;
}

type t = {
  topology : topology;
  reach : float;
  objective : objective;
  budget : int;
  seed : int;
  schedule : schedule;
  pool : int;
}

(* initial_temperature <= 0 means "auto": scale to the problem (the
   packer's classic 0.3 x total block area for the case study, a
   fraction of the initial scalar cost for generated netlists). *)
let default_schedule = { initial_temperature = 0.0; cooling = 0.95; plateau = 40 }

let default =
  {
    topology = Case_study;
    reach = 1.5;
    objective = Area_wire;
    budget = 4000;
    seed = 42;
    schedule = default_schedule;
    pool = 4;
  }

let objective_to_string = function
  | Area -> "area"
  | Area_wire -> "wire"
  | Aware -> "aware"
  | Pareto -> "pareto"

let objective_of_string = function
  | "area" -> Ok Area
  | "wire" -> Ok Area_wire
  | "aware" -> Ok Aware
  | "pareto" -> Ok Pareto
  | s -> Error (Printf.sprintf "objective must be 'area', 'wire', 'aware' or 'pareto', got %S" s)

let topology_to_string = function
  | Case_study -> "case"
  | Generated spec -> Topology.to_string spec

let topology_of_string = function
  | "case" -> Ok Case_study
  | s -> Result.map (fun spec -> Generated spec) (Topology.of_string s)

let v ?(topology = default.topology) ?(reach = default.reach)
    ?(objective = default.objective) ?(budget = default.budget) ?(seed = default.seed)
    ?(schedule = default.schedule) ?(pool = default.pool) () =
  { topology; reach; objective; budget; seed; schedule; pool }

let digest t =
  String.concat "|"
    [
      topology_to_string t.topology;
      Printf.sprintf "r%g" t.reach;
      objective_to_string t.objective;
      Printf.sprintf "b%d" t.budget;
      Printf.sprintf "s%d" t.seed;
      Printf.sprintf "t%gc%gp%d" t.schedule.initial_temperature t.schedule.cooling
        t.schedule.plateau;
      Printf.sprintf "k%d" t.pool;
    ]

let equal a b = String.equal (digest a) (digest b)

let describe t =
  let parts = ref [] in
  let add s = parts := s :: !parts in
  (match t.topology with
  | Case_study -> add "5-block case study"
  | Generated spec -> add (Printf.sprintf "topology %s" (Topology.to_string spec)));
  add (Printf.sprintf "reach %g" t.reach);
  add
    (match t.objective with
    | Area -> "area objective"
    | Area_wire -> "area+wirelength objective"
    | Aware -> "throughput-aware objective"
    | Pareto -> "Pareto objective");
  add (Printf.sprintf "budget %d" t.budget);
  add (Printf.sprintf "seed %d" t.seed);
  if t.pool <> 1 then add (Printf.sprintf "%d walkers" t.pool);
  String.concat ", " (List.rev !parts)

let of_args ?topology ?reach ?objective ?budget ?seed ?temperature ?cooling ?plateau
    ?pool () =
  let ( let* ) = Result.bind in
  let* topology =
    match topology with None -> Ok default.topology | Some s -> topology_of_string s
  in
  let* () =
    match topology with
    | Case_study -> Ok ()
    | Generated spec ->
      Result.map_error
        (Printf.sprintf "topology %s: %s" (Topology.to_string spec))
        (Topology.validate spec)
  in
  let* reach =
    match reach with
    | None -> Ok default.reach
    | Some r -> if r > 0.0 then Ok r else Error (Printf.sprintf "reach must be > 0, got %g" r)
  in
  let* objective =
    match objective with None -> Ok default.objective | Some s -> objective_of_string s
  in
  let* budget =
    match budget with
    | None -> Ok default.budget
    | Some b -> if b >= 1 then Ok b else Error (Printf.sprintf "budget must be >= 1, got %d" b)
  in
  let seed = Option.value seed ~default:default.seed in
  let* temperature =
    match temperature with
    | None -> Ok default.schedule.initial_temperature
    | Some x -> Ok x
  in
  let* cooling =
    match cooling with
    | None -> Ok default.schedule.cooling
    | Some c ->
      if c > 0.0 && c <= 1.0 then Ok c
      else Error (Printf.sprintf "cooling must be in (0, 1], got %g" c)
  in
  let* plateau =
    match plateau with
    | None -> Ok default.schedule.plateau
    | Some p ->
      if p >= 1 then Ok p else Error (Printf.sprintf "plateau must be >= 1, got %d" p)
  in
  let* pool =
    match pool with
    | None -> Ok default.pool
    | Some k -> if k >= 1 then Ok k else Error (Printf.sprintf "pool must be >= 1, got %d" k)
  in
  Ok
    {
      topology;
      reach;
      objective;
      budget;
      seed;
      schedule = { initial_temperature = temperature; cooling; plateau };
      pool;
    }

let to_search ?budget ?per_connection_max (t : t) =
  let flow_seed = t.seed and flow_budget = t.budget and flow_schedule = t.schedule in
  let open Wp_core.Optimizer in
  {
    default_search with
    budget = Option.value budget ~default:default_search.budget;
    per_connection_max =
      Option.value per_connection_max ~default:default_search.per_connection_max;
    seed = flow_seed;
    schedule =
      {
        Wp_util.Anneal.steps = flow_budget;
        initial_temperature =
          (if flow_schedule.initial_temperature > 0.0 then
             flow_schedule.initial_temperature
           else default_search.schedule.Wp_util.Anneal.initial_temperature);
        cooling = flow_schedule.cooling;
        plateau = flow_schedule.plateau;
      };
  }
