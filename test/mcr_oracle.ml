module Digraph = Wp_graph.Digraph
module Cycle_ratio = Wp_graph.Cycle_ratio
module Cycles = Wp_graph.Cycles
module Scc = Wp_graph.Scc

type potentials = Distances of float array | Negative_cycle of Digraph.edge list

type solver =
  Digraph.t ->
  cost:(Digraph.edge -> int) ->
  time:(Digraph.edge -> int) ->
  (Cycle_ratio.ratio * Digraph.edge list) option

(* ------------------------------------------------------------------ *)
(* Bellman-Ford                                                       *)
(* ------------------------------------------------------------------ *)

(* Walk predecessor edges back from [start]; when a vertex repeats, the
   portion walked between the two visits is a cycle of the predecessor
   graph.  [None] when the chain ends at a root first. *)
let cycle_through_preds g pred start =
  let n = Digraph.vertex_count g in
  let seen = Hashtbl.create 16 in
  let rec walk v steps =
    if steps > n + 1 then None
    else if Hashtbl.mem seen v then Some v
    else begin
      Hashtbl.add seen v ();
      match pred.(v) with
      | Some e -> walk (Digraph.edge_src g e) (steps + 1)
      | None -> None
    end
  in
  match walk start 0 with
  | None -> None
  | Some inside ->
    let rec collect v acc =
      match pred.(v) with
      | Some e ->
        let u = Digraph.edge_src g e in
        if u = inside then Some (e :: acc) else collect u (e :: acc)
      | None -> None
    in
    collect inside []

let potentials g ~weight =
  let n = Digraph.vertex_count g in
  let dist = Array.make n 0.0 in
  let pred = Array.make n None in
  let relax_all on_relax =
    Digraph.iter_edges g (fun e ->
        let u = Digraph.edge_src g e and v = Digraph.edge_dst g e in
        if dist.(u) +. weight e < dist.(v) then begin
          dist.(v) <- dist.(u) +. weight e;
          pred.(v) <- Some e;
          on_relax v
        end)
  in
  (* With every vertex at 0, n passes settle all distances unless a
     negative cycle exists; each further relaxation is a witness whose
     predecessor chain must close a cycle within n more passes. *)
  let rec search passes =
    let witnesses = ref [] in
    relax_all (fun v -> witnesses := v :: !witnesses);
    match !witnesses with
    | [] -> Distances dist
    | ws -> (
      match if passes < n then None else List.find_map (cycle_through_preds g pred) ws with
      | Some cycle -> Negative_cycle cycle
      | None -> search (passes + 1))
  in
  search 1

(* ------------------------------------------------------------------ *)
(* Lawler's parametric search                                         *)
(* ------------------------------------------------------------------ *)

let has_negative_cycle g ~cost ~time lambda =
  let weight e = float_of_int (cost e) -. (lambda *. float_of_int (time e)) in
  match potentials g ~weight with Negative_cycle c -> Some c | Distances _ -> None

let lawler_minimum g ~cost ~time =
  let cyclic = List.exists (fun comp -> not (Scc.is_trivial g comp)) (Scc.components g) in
  if not cyclic then None
  else begin
    let max_abs_cost = Digraph.fold_edges g ~init:1 ~f:(fun acc e -> max acc (abs (cost e))) in
    let bound = float_of_int (max_abs_cost * max 1 (Digraph.edge_count g)) +. 1.0 in
    (* Invariant: a cycle of ratio < hi exists; none of ratio < lo does.
       After 64 halvings [hi - lo] is far below the smallest gap between
       two distinct achievable ratios (>= 1 / total_time^2), so the last
       witness cycle achieves the optimum. *)
    let lo = ref (-.bound) and hi = ref bound in
    let witness = ref (has_negative_cycle g ~cost ~time !hi) in
    assert (!witness <> None);
    for _ = 1 to 64 do
      let mid = 0.5 *. (!lo +. !hi) in
      if !hi -. !lo > 1e-12 then
        match has_negative_cycle g ~cost ~time mid with
        | Some c ->
          hi := mid;
          witness := Some c
        | None -> lo := mid
    done;
    Option.map (fun c -> (Cycle_ratio.cycle_ratio g ~cost ~time c, c)) !witness
  end

let lawler_maximum g ~cost ~time =
  Option.map
    (fun (r, c) -> (Cycle_ratio.make_ratio (-r.Cycle_ratio.num) r.Cycle_ratio.den, c))
    (lawler_minimum g ~cost:(fun e -> -cost e) ~time)

let enumeration_minimum g ~cost ~time =
  List.fold_left
    (fun best cycle ->
      let r = Cycle_ratio.cycle_ratio g ~cost ~time cycle in
      match best with
      | Some (r0, _) when Cycle_ratio.ratio_compare r r0 >= 0 -> best
      | _ -> Some (r, cycle))
    None (Cycles.elementary_cycles g)

(* ------------------------------------------------------------------ *)
(* Karp's maximum cycle mean                                          *)
(* ------------------------------------------------------------------ *)

(* Karp 1978.  For an SCC with vertex set S (size k), pick a root r and
   let d.(j).(v) be the maximum weight of a j-edge walk from r to v
   inside S.  Then the maximum cycle mean is

     max over v with d.(k).(v) finite of
       min over j < k of (d.(k).(v) - d.(j).(v)) / (k - j). *)
let component_mean g ~weight comp_vertices =
  let k = List.length comp_vertices in
  let index = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace index v i) comp_vertices;
  let d = Array.make_matrix (k + 1) k neg_infinity in
  d.(0).(0) <- 0.0;
  for j = 1 to k do
    List.iteri
      (fun iv v ->
        if d.(j - 1).(iv) > neg_infinity then
          List.iter
            (fun e ->
              match Hashtbl.find_opt index (Digraph.edge_dst g e) with
              | Some iw -> d.(j).(iw) <- max d.(j).(iw) (d.(j - 1).(iv) +. weight e)
              | None -> ())
            (Digraph.out_edges g v))
      comp_vertices
  done;
  let best = ref None in
  for iv = 0 to k - 1 do
    if d.(k).(iv) > neg_infinity then begin
      let worst = ref infinity in
      for j = 0 to k - 1 do
        if d.(j).(iv) > neg_infinity then
          worst := min !worst ((d.(k).(iv) -. d.(j).(iv)) /. float_of_int (k - j))
      done;
      if !worst < infinity then
        best := Some (match !best with None -> !worst | Some b -> max b !worst)
    end
  done;
  !best

let karp_maximum_mean g ~weight =
  List.fold_left
    (fun acc comp ->
      if Scc.is_trivial g comp then acc
      else
        match (acc, component_mean g ~weight comp) with
        | Some a, Some m -> Some (max a m)
        | None, m | m, None -> m)
    None (Scc.components g)

let karp_minimum_mean g ~weight =
  Option.map (fun m -> -.m) (karp_maximum_mean g ~weight:(fun e -> -.weight e))

(* ------------------------------------------------------------------ *)
(* Reference policy iteration                                         *)
(* ------------------------------------------------------------------ *)

(* The list-based formulation of [Cycle_ratio.Incremental]: a recursive
   chain walk that carries the policy path as an edge list and keeps
   each vertex's policy cycle as a list.  The library's flat-array
   solver must visit vertices in the same order, anchor the same cycles
   and round the same floating-point sums, so both return the same
   ratio, the same witness list and the same solve count. *)
module Reference_incremental = struct
  let epsilon = 1e-9

  type t = {
    g : Digraph.t;
    cost : int array;
    time : int array;
    comp : int array;
    policy : int array;
    lambda : float array;
    potential : float array;
    cycle_repr : Digraph.edge list array;
    state : int array;
    anchor : bool array;
    mutable dirty : bool;
    mutable cached : (Cycle_ratio.ratio * Digraph.edge list) option;
    mutable solves : int;
  }

  let create g ~cost ~time =
    let n = Digraph.vertex_count g in
    let m = Digraph.edge_count g in
    let comp = Scc.component_ids g in
    let policy = Array.make (max n 1) (-1) in
    for v = 0 to n - 1 do
      policy.(v) <-
        (match
           List.find_opt
             (fun e -> comp.(Digraph.edge_dst g e) = comp.(v))
             (Digraph.out_edges g v)
         with
        | Some e -> e
        | None -> -1)
    done;
    {
      g;
      cost = Array.init m cost;
      time = Array.init m time;
      comp;
      policy;
      lambda = Array.make (max n 1) infinity;
      potential = Array.make (max n 1) 0.0;
      cycle_repr = Array.make (max n 1) [];
      state = Array.make (max n 1) 0;
      anchor = Array.make (max n 1) false;
      dirty = true;
      cached = None;
      solves = 0;
    }

  let set_cost t e c =
    if t.cost.(e) <> c then begin
      t.cost.(e) <- c;
      t.dirty <- true
    end

  let set_time t e x =
    if t.time.(e) <> x then begin
      t.time.(e) <- x;
      t.dirty <- true
    end

  let solves t = t.solves

  let evaluate t =
    let g = t.g in
    let n = Digraph.vertex_count g in
    Array.fill t.state 0 (Array.length t.state) 0;
    let anchors = ref [] in
    let rec walk v path =
      match t.state.(v) with
      | 2 -> ()
      | 1 ->
        let rec cut acc = function
          | [] -> acc
          | e :: rest ->
            let acc = e :: acc in
            if Digraph.edge_src g e = v then acc else cut acc rest
        in
        let cycle = cut [] path in
        let total_cost = List.fold_left (fun a e -> a + t.cost.(e)) 0 cycle in
        let total_time = List.fold_left (fun a e -> a + t.time.(e)) 0 cycle in
        let lam = float_of_int total_cost /. float_of_int total_time in
        let a =
          match List.find_opt (fun e -> t.anchor.(Digraph.edge_src g e)) cycle with
          | Some e -> Digraph.edge_src g e
          | None -> v
        in
        anchors := a :: !anchors;
        t.lambda.(a) <- lam;
        t.potential.(a) <- 0.0;
        t.cycle_repr.(a) <- cycle;
        t.state.(a) <- 2;
        let rec assign = function
          | [] -> ()
          | e :: rest ->
            let u = Digraph.edge_src g e and x = Digraph.edge_dst g e in
            if t.state.(u) <> 2 then begin
              assign rest;
              t.lambda.(u) <- lam;
              t.potential.(u) <-
                float_of_int t.cost.(e)
                -. (lam *. float_of_int t.time.(e))
                +. t.potential.(x);
              t.cycle_repr.(u) <- cycle;
              t.state.(u) <- 2
            end
            else assign rest
        in
        let rec rotate before = function
          | e :: rest when Digraph.edge_src g e <> a -> rotate (e :: before) rest
          | from_a -> from_a @ List.rev before
        in
        assign (if a = v then cycle else rotate [] cycle)
      | _ ->
        t.state.(v) <- 1;
        (match t.policy.(v) with
        | -1 ->
          t.state.(v) <- 2;
          t.lambda.(v) <- infinity
        | e ->
          let x = Digraph.edge_dst g e in
          walk x (e :: path);
          if t.state.(v) <> 2 then begin
            t.lambda.(v) <- t.lambda.(x);
            t.potential.(v) <-
              float_of_int t.cost.(e)
              -. (t.lambda.(x) *. float_of_int t.time.(e))
              +. t.potential.(x);
            t.cycle_repr.(v) <- t.cycle_repr.(x);
            t.state.(v) <- 2
          end)
    in
    for v = 0 to n - 1 do
      walk v []
    done;
    Array.fill t.anchor 0 (Array.length t.anchor) false;
    List.iter (fun a -> t.anchor.(a) <- true) !anchors

  let improve t =
    let g = t.g in
    let improved = ref false in
    Digraph.iter_edges g (fun e ->
        let u = Digraph.edge_src g e and x = Digraph.edge_dst g e in
        if t.comp.(u) = t.comp.(x) && t.lambda.(x) < infinity then begin
          if t.lambda.(x) < t.lambda.(u) -. epsilon then begin
            t.policy.(u) <- e;
            improved := true
          end
          else if
            abs_float (t.lambda.(x) -. t.lambda.(u)) <= epsilon
            && float_of_int t.cost.(e)
               -. (t.lambda.(u) *. float_of_int t.time.(e))
               +. t.potential.(x)
               < t.potential.(u) -. epsilon
          then begin
            t.policy.(u) <- e;
            improved := true
          end
        end);
    !improved

  let solve t =
    if not t.dirty then t.cached
    else begin
      let g = t.g in
      let n = Digraph.vertex_count g in
      let result =
        if n = 0 || Array.for_all (fun e -> e = -1) t.policy then None
        else begin
          t.solves <- t.solves + 1;
          let max_iterations = (n * Digraph.edge_count g) + 16 in
          let rec iterate k =
            evaluate t;
            if improve t then begin
              if k >= max_iterations then failwith "Reference_incremental: no convergence";
              iterate (k + 1)
            end
          in
          iterate 0;
          let best = ref (-1) in
          for v = 0 to n - 1 do
            if t.lambda.(v) < infinity
               && (!best < 0 || t.lambda.(v) < t.lambda.(!best))
            then best := v
          done;
          if !best < 0 then None
          else begin
            let cycle = t.cycle_repr.(!best) in
            Some
              ( Cycle_ratio.cycle_ratio g
                  ~cost:(fun e -> t.cost.(e))
                  ~time:(fun e -> t.time.(e))
                  cycle,
                cycle )
          end
        end
      in
      t.dirty <- false;
      t.cached <- result;
      result
    end
end
