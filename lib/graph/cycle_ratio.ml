type ratio = { num : int; den : int }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let make_ratio num den =
  if den = 0 then invalid_arg "Cycle_ratio.make_ratio: zero denominator";
  let num, den = if den < 0 then (-num, -den) else (num, den) in
  let g = gcd (abs num) den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let ratio_to_float r = float_of_int r.num /. float_of_int r.den

(* Cross-multiplication; operands stay small in this library. *)
let ratio_compare a b = compare (a.num * b.den) (b.num * a.den)

let ratio_pp ppf r =
  if r.den = 1 then Format.fprintf ppf "%d" r.num
  else Format.fprintf ppf "%d/%d" r.num r.den

let sum_over cycle f = List.fold_left (fun acc e -> acc + f e) 0 cycle

let cycle_ratio _g ~cost ~time cycle =
  make_ratio (sum_over cycle cost) (sum_over cycle time)

(* Whether the edges satisfying [keep] contain a cycle. *)
let has_cycle_among g keep =
  let sub = Digraph.create () in
  List.iter
    (fun v -> ignore (Digraph.add_vertex sub ~label:(Digraph.vertex_label g v)))
    (Digraph.vertices g);
  Digraph.iter_edges g (fun e ->
      if keep e then
        ignore
          (Digraph.add_edge sub ~src:(Digraph.edge_src g e) ~dst:(Digraph.edge_dst g e)
             ~label:""));
  List.exists (fun comp -> not (Scc.is_trivial sub comp)) (Scc.components sub)

let validate_times g ~time =
  Digraph.iter_edges g (fun e ->
      if time e < 0 then invalid_arg "Cycle_ratio: negative time");
  (* A cycle of zero total time exists iff the subgraph of zero-time edges
     contains a cycle; reject it, the ratio would be infinite. *)
  if has_cycle_among g (fun e -> time e = 0) then
    invalid_arg "Cycle_ratio: cycle with zero total time"

(* ------------------------------------------------------------------ *)
(* Exact certificate                                                  *)
(* ------------------------------------------------------------------ *)

(* Integer Bellman-Ford on the weights [den * cost - num * time], every
   vertex a source at 0.  Without a negative cycle the shortest paths
   have fewer than V edges, so V improving rounds always suffice and a
   further one proves a negative cycle. *)
let potentials g ~cost ~time r =
  let nv = Digraph.vertex_count g in
  let theta = Array.make (max 1 nv) 0 in
  let relax () =
    let changed = ref false in
    Digraph.iter_edges g (fun e ->
        let u = Digraph.edge_src g e and v = Digraph.edge_dst g e in
        let w = (cost e * r.den) - (time e * r.num) in
        if theta.(v) > theta.(u) + w then begin
          theta.(v) <- theta.(u) + w;
          changed := true
        end);
    !changed
  in
  let rounds = ref 0 and diverged = ref false in
  while (not !diverged) && relax () do
    incr rounds;
    if !rounds > nv then diverged := true
  done;
  if !diverged then None else Some theta

(* With feasible potentials every edge has slack >= 0 and a cycle's
   weight is the sum of its edges' slacks, so a cycle of ratio exactly
   [r] is a cycle of zero-slack (tight) edges. *)
let is_minimum g ~cost ~time r =
  match potentials g ~cost ~time r with
  | None -> false
  | Some theta ->
    has_cycle_among g (fun e ->
        theta.(Digraph.edge_dst g e)
        = theta.(Digraph.edge_src g e) + (cost e * r.den) - (time e * r.num))

let one = { num = 1; den = 1 }

(* The clamp needs only "no cycle below 1/1"; any other value must be
   attained by a cycle too. *)
let is_clamped_minimum g ~cost ~time r =
  let c = ratio_compare r one in
  if c = 0 then Option.is_some (potentials g ~cost ~time r)
  else c < 0 && is_minimum g ~cost ~time r

(* ------------------------------------------------------------------ *)
(* Policy iteration                                                   *)
(* ------------------------------------------------------------------ *)

module Incremental = struct
  (* Policy iteration (Cochet-Terrasson et al. 1998) over a fixed
     topology with mutable edge weights.  The policy — one outgoing edge
     per vertex — survives weight perturbations: edges chosen at
     [create] time stay inside the vertex's SCC, and SCCs depend only on
     the topology, so the previous optimum is always a proper warm
     start.  After a local perturbation the warm policy is usually
     optimal or one improvement sweep away.

     Everything a solve touches is a flat array built once in [create],
     so a warm solve allocates only its result. *)

  let epsilon = 1e-9

  (* The exact certificate behind [minimum], allocated on its first
     call: integer potentials [theta] at the certified ratio num/den
     with [theta.(dst) <= theta.(src) + den * cost - num * time] on
     every intra-SCC edge, the witness cycle (all of its edges tight),
     and the deduplicated log of edges whose weight changed since. *)
  type cert = {
    out_start : int array;      (* vertex -> first slot in [out_edge] *)
    out_edge : int array;       (* intra-SCC edges grouped by source *)
    theta : int array;
    on_witness : Bytes.t;       (* edge -> '\001' when on the witness *)
    logged : Bytes.t;           (* edge -> '\001' when in [log] *)
    log : int array;            (* changed edges, [0, n_log) *)
    mutable n_log : int;
    queue : int array;          (* relaxation FIFO, a ring of V slots *)
    queued : Bytes.t;           (* vertex -> '\001' while in [queue] *)
    mutable head : int;
    mutable size : int;
    mutable relaxations : int;  (* edges relaxed by this repair *)
    mutable num : int;          (* the certified ratio *)
    mutable den : int;
    mutable valid : bool;
    mutable answer : (ratio * Digraph.edge list) option;  (* what it certifies *)
    mutable certified : int;    (* [minimum] calls answered by the certificate *)
  }

  type t = {
    n : int;                    (* vertices *)
    m : int;                    (* edges *)
    src : int array;            (* edge id -> source vertex *)
    dst : int array;            (* edge id -> destination vertex *)
    intra : int array;          (* ids of the edges inside one SCC, ascending *)
    cost : int array;           (* edge id -> cost *)
    time : int array;           (* edge id -> time, >= 0 *)
    policy : int array;         (* vertex -> chosen out-edge, -1 if none *)
    (* Scratch for policy evaluation, reused across solves. *)
    lambda : float array;
    potential : float array;
    closing : int array;        (* vertex -> closing vertex of its policy cycle *)
    state : int array;          (* 0 white / 1 on the chain / 2 done *)
    anchor : bool array;        (* potential-0 vertex of its policy cycle *)
    anchors : int array;        (* this evaluation's anchors, [0, n_anchors) *)
    chain : int array;          (* the policy chain being walked *)
    mutable dirty : bool;
    mutable cached : (ratio * Digraph.edge list) option;
    mutable solves : int;       (* policy-iteration runs (cache misses) *)
    comp : int array;           (* vertex -> SCC id *)
    mutable cert : cert option;
  }

  let create g ~cost ~time =
    let n = Digraph.vertex_count g in
    let m = Digraph.edge_count g in
    let times = Array.init m time in
    Array.iter
      (fun t -> if t < 0 then invalid_arg "Cycle_ratio.Incremental.create: negative time")
      times;
    let src = Array.init m (Digraph.edge_src g) in
    let dst = Array.init m (Digraph.edge_dst g) in
    let comp = Scc.component_ids g in
    let intra =
      Array.of_list (List.filter (fun e -> comp.(src.(e)) = comp.(dst.(e))) (Digraph.edges g))
    in
    let policy = Array.make (max n 1) (-1) in
    for v = 0 to n - 1 do
      policy.(v) <-
        (match List.find_opt (fun e -> comp.(dst.(e)) = comp.(v)) (Digraph.out_edges g v) with
        | Some e -> e
        | None -> -1)
    done;
    let scratch x = Array.make (max n 1) x in
    {
      n;
      m;
      src;
      dst;
      intra;
      cost = Array.init m cost;
      time = times;
      policy;
      lambda = scratch infinity;
      potential = scratch 0.0;
      closing = scratch (-1);
      state = scratch 0;
      anchor = scratch false;
      anchors = scratch 0;
      chain = scratch 0;
      dirty = true;
      cached = None;
      solves = 0;
      comp;
      cert = None;
    }

  let cost t e = t.cost.(e)
  let time t e = t.time.(e)

  let log_change t e =
    t.dirty <- true;
    match t.cert with
    | Some c when Bytes.get c.logged e = '\000' ->
      Bytes.set c.logged e '\001';
      c.log.(c.n_log) <- e;
      c.n_log <- c.n_log + 1
    | _ -> ()

  let set_cost t e c =
    if t.cost.(e) <> c then begin
      t.cost.(e) <- c;
      log_change t e
    end

  let set_time t e x =
    if x < 0 then invalid_arg "Cycle_ratio.Incremental.set_time: negative time";
    if t.time.(e) <> x then begin
      t.time.(e) <- x;
      log_change t e
    end

  let solves t = t.solves

  (* Potential of [u] from its policy successor's, at ratio [lam]. *)
  let[@inline] descend t u lam =
    let e = t.policy.(u) in
    float_of_int t.cost.(e) -. (lam *. float_of_int t.time.(e)) +. t.potential.(t.dst.(e))

  (* Close the policy cycle found on the chain at [x] (the chain holds
     [top] vertices, the cycle is its suffix from [x]): fix its anchor
     at potential 0 and set every other cycle vertex, walking back
     from the anchor — a vertex's potential needs its successor's.  A
     cycle that survives from the previous evaluation keeps its
     previous anchor (at most one old anchor lies on it, since old
     policy cycles are disjoint); without that rule a tie on lambda can
     shift a whole tree's potentials and the improvement step can cycle
     forever. *)
  let close_cycle t x top n_anchors =
    let first = ref (top - 1) in
    while t.chain.(!first) <> x do
      decr first
    done;
    let first = !first in
    let k = top - first in
    let total_cost = ref 0 and total_time = ref 0 and j = ref (-1) in
    for i = 0 to k - 1 do
      let u = t.chain.(first + i) in
      let e = t.policy.(u) in
      total_cost := !total_cost + t.cost.(e);
      total_time := !total_time + t.time.(e);
      if !j < 0 && t.anchor.(u) then j := i
    done;
    let j = if !j < 0 then 0 else !j in
    let lam = float_of_int !total_cost /. float_of_int !total_time in
    let a = t.chain.(first + j) in
    t.anchors.(n_anchors) <- a;
    t.lambda.(a) <- lam;
    t.potential.(a) <- 0.0;
    t.closing.(a) <- x;
    t.state.(a) <- 2;
    for step = 1 to k - 1 do
      let u = t.chain.(first + ((j - step + k) mod k)) in
      t.lambda.(u) <- lam;
      t.potential.(u) <- descend t u lam;
      t.closing.(u) <- x;
      t.state.(u) <- 2
    done

  (* Value determination: per-vertex cycle ratio [lambda], potential
     and the closing vertex of the policy cycle it drains into.  Chains
     are walked from every vertex in id order; each new policy cycle
     gets one anchor vertex at potential 0, and the chain's tree
     vertices are then set from their successors, last first. *)
  let evaluate t =
    Array.fill t.state 0 (Array.length t.state) 0;
    let n_anchors = ref 0 in
    for s = 0 to t.n - 1 do
      if t.state.(s) = 0 then begin
        let top = ref 0 and v = ref s and walking = ref true in
        while !walking do
          let u = !v in
          t.state.(u) <- 1;
          t.chain.(!top) <- u;
          incr top;
          let e = t.policy.(u) in
          if e < 0 then begin
            t.state.(u) <- 2;
            t.lambda.(u) <- infinity;
            walking := false
          end
          else begin
            let x = t.dst.(e) in
            match t.state.(x) with
            | 0 -> v := x
            | 1 ->
              close_cycle t x !top !n_anchors;
              incr n_anchors;
              walking := false
            | _ -> walking := false
          end
        done;
        for i = !top - 1 downto 0 do
          let u = t.chain.(i) in
          if t.state.(u) <> 2 then begin
            let x = t.dst.(t.policy.(u)) in
            let lam = t.lambda.(x) in
            t.lambda.(u) <- lam;
            t.potential.(u) <- descend t u lam;
            t.closing.(u) <- t.closing.(x);
            t.state.(u) <- 2
          end
        done
      end
    done;
    Array.fill t.anchor 0 (Array.length t.anchor) false;
    for i = 0 to !n_anchors - 1 do
      t.anchor.(t.anchors.(i)) <- true
    done

  (* Policy improvement: switch a vertex to an out-edge (inside its SCC)
     that reaches a strictly smaller ratio, or an equal ratio at a
     strictly smaller potential.  Returns whether any vertex switched. *)
  let improve t =
    let improved = ref false in
    for i = 0 to Array.length t.intra - 1 do
      let e = t.intra.(i) in
      let u = t.src.(e) and x = t.dst.(e) in
      let lx = t.lambda.(x) in
      if lx < infinity then begin
        let lu = t.lambda.(u) in
        if lx < lu -. epsilon then begin
          t.policy.(u) <- e;
          improved := true
        end
        else if
          abs_float (lx -. lu) <= epsilon
          && float_of_int t.cost.(e) -. (lu *. float_of_int t.time.(e)) +. t.potential.(x)
             < t.potential.(u) -. epsilon
        then begin
          t.policy.(u) <- e;
          improved := true
        end
      end
    done;
    !improved

  (* The witness: the policy cycle of [best], from its closing vertex. *)
  let witness t best =
    let x = t.closing.(best) in
    let rec from u acc =
      let e = t.policy.(u) in
      let acc = e :: acc in
      if t.dst.(e) = x then List.rev acc else from t.dst.(e) acc
    in
    from x []

  let solve t =
    if not t.dirty then t.cached
    else begin
      let result =
        if t.n = 0 || Array.for_all (fun e -> e = -1) t.policy then None
        else begin
          t.solves <- t.solves + 1;
          let max_iterations = (t.n * t.m) + 16 in
          let k = ref 0 in
          evaluate t;
          while improve t do
            if !k >= max_iterations then
              failwith
                (Printf.sprintf
                   "Cycle_ratio: policy iteration did not converge in %d iterations"
                   max_iterations);
            incr k;
            evaluate t
          done;
          let best = ref (-1) in
          for v = 0 to t.n - 1 do
            if t.lambda.(v) < infinity
               && (!best < 0 || t.lambda.(v) < t.lambda.(!best))
            then best := v
          done;
          if !best < 0 then None
          else begin
            let cycle = witness t !best in
            let total a = List.fold_left (fun s e -> s + a.(e)) 0 cycle in
            Some (make_ratio (total t.cost) (total t.time), cycle)
          end
        end
      in
      t.dirty <- false;
      t.cached <- result;
      result
    end

  (* ---------------------------------------------------------------- *)
  (* Certified minimum                                                *)
  (* ---------------------------------------------------------------- *)

  let make_cert t =
    let n = max t.n 1 in
    let out_start = Array.make (n + 1) 0 in
    Array.iter (fun e -> out_start.(t.src.(e) + 1) <- out_start.(t.src.(e) + 1) + 1) t.intra;
    for v = 0 to n - 1 do
      out_start.(v + 1) <- out_start.(v + 1) + out_start.(v)
    done;
    let out_edge = Array.make (Array.length t.intra) 0 in
    let next = Array.sub out_start 0 n in
    Array.iter
      (fun e ->
        let u = t.src.(e) in
        out_edge.(next.(u)) <- e;
        next.(u) <- next.(u) + 1)
      t.intra;
    {
      out_start;
      out_edge;
      theta = Array.make n 0;
      on_witness = Bytes.make t.m '\000';
      logged = Bytes.make t.m '\000';
      log = Array.make t.m 0;
      n_log = 0;
      queue = Array.make n 0;
      queued = Bytes.make n '\000';
      head = 0;
      size = 0;
      relaxations = 0;
      num = 0;
      den = 1;
      valid = false;
      answer = None;
      certified = 0;
    }

  let clear_log c =
    for i = 0 to c.n_log - 1 do
      Bytes.set c.logged c.log.(i) '\000'
    done;
    c.n_log <- 0

  (* Restore [e]'s inequality, if it fails, by lowering theta(dst e);
     a lowered vertex is queued so its own out-edges get re-checked. *)
  let relax t c e =
    c.relaxations <- c.relaxations + 1;
    let v = t.dst.(e) in
    let bound = c.theta.(t.src.(e)) + (c.den * t.cost.(e)) - (c.num * t.time.(e)) in
    if c.theta.(v) > bound then begin
      c.theta.(v) <- bound;
      if Bytes.get c.queued v = '\000' then begin
        Bytes.set c.queued v '\001';
        c.queue.((c.head + c.size) mod Array.length c.queue) <- v;
        c.size <- c.size + 1
      end
    end

  (* Queue-based Bellman-Ford from the queued vertices.  [true] when
     the queue empties — then every intra-SCC edge holds its inequality
     again, since only a lowered vertex's out-edges can have broken —
     and [false] once 2 E relaxations are spent (a cycle of ratio below
     num/den would keep the queue busy forever).  Leaves it empty. *)
  let drain t c =
    let cap = 2 * t.m in
    while c.size > 0 && c.relaxations <= cap do
      let v = c.queue.(c.head) in
      c.head <- (c.head + 1) mod Array.length c.queue;
      c.size <- c.size - 1;
      Bytes.set c.queued v '\000';
      for i = c.out_start.(v) to c.out_start.(v + 1) - 1 do
        relax t c c.out_edge.(i)
      done
    done;
    let emptied = c.size = 0 in
    while c.size > 0 do
      Bytes.set c.queued c.queue.(c.head) '\000';
      c.head <- (c.head + 1) mod Array.length c.queue;
      c.size <- c.size - 1
    done;
    emptied

  (* A fresh certificate for the solve that just converged: integer
     potentials at its ratio read off the policy (0 at each policy
     cycle's anchor, and theta(u) = theta(x) - weight(u -> x) down
     every policy edge, so every policy edge is tight), then one pass
     over the intra-SCC edges.  An edge it finds violated (a policy
     cycle of higher ratio in another SCC, or a floating-point tie
     that the exact integers break) is repaired by relaxation; a
     certificate that cannot be repaired within the cap stays invalid,
     and the next {!minimum} solves again. *)
  let rebuild t c answer =
    clear_log c;
    (match c.answer with
    | Some (_, cycle) -> List.iter (fun e -> Bytes.set c.on_witness e '\000') cycle
    | None -> ());
    c.answer <- answer;
    match answer with
    | None -> c.valid <- false
    | Some (r, cycle) ->
      List.iter (fun e -> Bytes.set c.on_witness e '\001') cycle;
      c.num <- r.num;
      c.den <- r.den;
      Array.fill t.state 0 (Array.length t.state) 0;
      for s = 0 to t.n - 1 do
        if t.state.(s) = 0 then begin
          let top = ref 0 and v = ref s in
          while t.state.(!v) = 0 && (not t.anchor.(!v)) && t.policy.(!v) >= 0 do
            t.state.(!v) <- 1;
            t.chain.(!top) <- !v;
            incr top;
            v := t.dst.(t.policy.(!v))
          done;
          if t.state.(!v) = 0 then begin
            c.theta.(!v) <- 0;
            t.state.(!v) <- 2
          end;
          for i = !top - 1 downto 0 do
            let u = t.chain.(i) in
            let e = t.policy.(u) in
            c.theta.(u) <- c.theta.(t.dst.(e)) - ((c.den * t.cost.(e)) - (c.num * t.time.(e)));
            t.state.(u) <- 2
          done
        end
      done;
      Array.iter (relax t c) t.intra;
      c.relaxations <- 0;
      c.valid <- drain t c

  (* The log's edges changed weight since the certificate.  Off the
     witness, the witness still has ratio num/den; and once relaxation
     restores every inequality, no cycle is below it. *)
  let certify t c =
    let ok = ref true in
    for i = 0 to c.n_log - 1 do
      if Bytes.get c.on_witness c.log.(i) <> '\000' then ok := false
    done;
    if !ok then begin
      c.relaxations <- 0;
      for i = 0 to c.n_log - 1 do
        let e = c.log.(i) in
        if t.comp.(t.src.(e)) = t.comp.(t.dst.(e)) then relax t c e
      done;
      ok := drain t c
    end;
    clear_log c;
    !ok

  let minimum t =
    match t.cert with
    | Some c when c.valid && certify t c ->
      c.certified <- c.certified + 1;
      c.answer
    | cert ->
      let c =
        match cert with
        | Some c -> c
        | None ->
          let c = make_cert t in
          t.cert <- Some c;
          c
      in
      c.valid <- false;
      let answer = solve t in
      rebuild t c answer;
      answer

  let certified t = match t.cert with None -> 0 | Some c -> c.certified
end

let minimum g ~cost ~time =
  validate_times g ~time;
  Incremental.solve (Incremental.create g ~cost ~time)
