module Prng = Negdl_util.Prng
module Domain_pool = Negdl_util.Domain_pool

type result =
  | Sat of bool array
  | Unsat

type mode =
  [ `Sequential
  | `Portfolio of int
  ]

(* Literal encoding inside the solver: variable v (1-based) yields literals
   2v (positive) and 2v+1 (negative); negation is [lxor 1]. *)

let lit_of_dimacs l = if l > 0 then 2 * l else (2 * -l) + 1

let var_of_lit lit = lit / 2

let neg lit = lit lxor 1

type state = {
  nvars : int;
  (* Clause store: each clause is an int array of solver literals; the two
     watched literals are kept at positions 0 and 1.  The invariant that a
     reason clause keeps its implied literal at position 0 is maintained by
     [propagate]. *)
  mutable clauses : int array array;
  mutable clause_count : int;
  (* watches.(lit) lists the ids of clauses watching [lit]. *)
  watches : int list array;
  (* assign.(v) = 0 unassigned, 1 true, -1 false. *)
  assign : int array;
  level : int array;
  reason : int array;  (* clause id, or -1 for decisions and top-level units *)
  trail : int array;
  mutable trail_size : int;
  (* trail_lim.(d) is the trail size when decision level d + 1 opened. *)
  mutable trail_lim : int array;
  mutable decision_level : int;
  mutable qhead : int;
  activity : float array;
  mutable var_inc : float;
  (* Branching order: a binary heap of variables, highest activity first
     and ties to the lower variable.  MiniSat-style lazy removal: assigned
     variables may linger and are skipped when popped, but every unassigned
     variable is in the heap.  heap_pos.(v) is v's slot, or -1. *)
  heap : int array;
  mutable heap_size : int;
  heap_pos : int array;
  phase : bool array;
  seen : bool array;
  mutable conflicts : int;
  (* Restart bookkeeping lives in the state (not the solve loop) so a search
     can be paused and resumed without rewinding the Luby sequence. *)
  mutable restarts : int;
  mutable restart_base : int;
  (* Cancellation flag, shared between portfolio workers: the first worker
     with a definite answer raises it and the others stop at their next
     poll.  A fresh state gets a private, never-raised flag. *)
  mutable stop : bool Atomic.t;
}

exception Found_unsat

(* Raised inside the CDCL loop when a budget runs out or the stop flag is
   up; caught by [solve_state], which rewinds to level 0 so the state stays
   resumable. *)
exception Stop_search of Outcome.reason

let create_state nvars =
  {
    nvars;
    clauses = Array.make 16 [||];
    clause_count = 0;
    watches = Array.make ((2 * nvars) + 2) [];
    assign = Array.make (nvars + 1) 0;
    level = Array.make (nvars + 1) 0;
    reason = Array.make (nvars + 1) (-1);
    trail = Array.make (nvars + 1) 0;
    trail_size = 0;
    trail_lim = Array.make (nvars + 1) 0;
    decision_level = 0;
    qhead = 0;
    activity = Array.make (nvars + 1) 0.0;
    var_inc = 1.0;
    (* All activities start equal, so ascending variables form a heap. *)
    heap = Array.init nvars (fun i -> i + 1);
    heap_size = nvars;
    heap_pos = Array.init (nvars + 1) (fun v -> v - 1);
    phase = Array.make (nvars + 1) false;
    seen = Array.make (nvars + 1) false;
    conflicts = 0;
    restarts = 0;
    restart_base = 100;
    stop = Atomic.make false;
  }

let value st lit =
  let v = st.assign.(var_of_lit lit) in
  if v = 0 then 0 else if lit land 1 = 0 then v else -v

let new_decision_level st =
  let d = st.decision_level in
  if d = Array.length st.trail_lim then
    st.trail_lim <- Array.append st.trail_lim (Array.make (d + 1) 0);
  st.trail_lim.(d) <- st.trail_size;
  st.decision_level <- d + 1

let enqueue st lit reason =
  let v = var_of_lit lit in
  st.assign.(v) <- (if lit land 1 = 0 then 1 else -1);
  st.level.(v) <- st.decision_level;
  st.reason.(v) <- reason;
  st.phase.(v) <- lit land 1 = 0;
  st.trail.(st.trail_size) <- lit;
  st.trail_size <- st.trail_size + 1

(* Returns [false] when the clause makes the problem unsat immediately (at
   the current level, used only at level 0 or for fresh learned units). *)
let add_clause_array st (c : int array) =
  let n = Array.length c in
  if n = 0 then false
  else if n = 1 then begin
    match value st c.(0) with
    | 1 -> true
    | -1 -> false
    | _ ->
      enqueue st c.(0) (-1);
      true
  end
  else begin
    if st.clause_count = Array.length st.clauses then begin
      let bigger = Array.make (2 * Array.length st.clauses) [||] in
      Array.blit st.clauses 0 bigger 0 st.clause_count;
      st.clauses <- bigger
    end;
    let id = st.clause_count in
    st.clauses.(id) <- c;
    st.clause_count <- st.clause_count + 1;
    st.watches.(c.(0)) <- id :: st.watches.(c.(0));
    st.watches.(c.(1)) <- id :: st.watches.(c.(1));
    true
  end

(* Unit propagation with two watched literals.  Returns the id of a
   conflicting clause, or -1. *)
let propagate st =
  let conflict = ref (-1) in
  while !conflict < 0 && st.qhead < st.trail_size do
    let lit = st.trail.(st.qhead) in
    st.qhead <- st.qhead + 1;
    let false_lit = neg lit in
    let watching = st.watches.(false_lit) in
    st.watches.(false_lit) <- [];
    let rec process = function
      | [] -> ()
      | id :: rest ->
        let c = st.clauses.(id) in
        (* Ensure the false literal is at position 1. *)
        if c.(0) = false_lit then begin
          c.(0) <- c.(1);
          c.(1) <- false_lit
        end;
        if value st c.(0) = 1 then begin
          (* Clause satisfied; keep watching the same literal. *)
          st.watches.(false_lit) <- id :: st.watches.(false_lit);
          process rest
        end
        else begin
          let n = Array.length c in
          let rec find i =
            if i = n then -1
            else if value st c.(i) <> -1 then i
            else find (i + 1)
          in
          let i = find 2 in
          if i >= 0 then begin
            (* Move the new watch into position 1. *)
            c.(1) <- c.(i);
            c.(i) <- false_lit;
            st.watches.(c.(1)) <- id :: st.watches.(c.(1));
            process rest
          end
          else begin
            (* Unit or conflicting; in both cases keep the watch. *)
            st.watches.(false_lit) <- id :: st.watches.(false_lit);
            if value st c.(0) = -1 then begin
              conflict := id;
              List.iter
                (fun id' ->
                  st.watches.(false_lit) <- id' :: st.watches.(false_lit))
                rest
            end
            else begin
              enqueue st c.(0) id;
              process rest
            end
          end
        end
    in
    process watching
  done;
  !conflict

(* --- branching heap ------------------------------------------------------ *)

(* The order a linear scan from variable 1 for the highest activity picks
   in. *)
let before st u v =
  let au = st.activity.(u) and av = st.activity.(v) in
  au > av || (au = av && u < v)

let heap_set st i v =
  st.heap.(i) <- v;
  st.heap_pos.(v) <- i

(* Move the hole at slot [i] up until [v] fits there. *)
let rec sift_up st i v =
  let p = (i - 1) / 2 in
  if i > 0 && before st v st.heap.(p) then begin
    heap_set st i st.heap.(p);
    sift_up st p v
  end
  else heap_set st i v

(* Move the hole at slot [i] down until [v] fits there. *)
let rec sift_down st i v =
  let l = (2 * i) + 1 in
  if l >= st.heap_size then heap_set st i v
  else begin
    let r = l + 1 in
    let c =
      if r < st.heap_size && before st st.heap.(r) st.heap.(l) then r else l
    in
    let w = st.heap.(c) in
    if before st w v then begin
      heap_set st i w;
      sift_down st c v
    end
    else heap_set st i v
  end

let heap_insert st v =
  if st.heap_pos.(v) < 0 then begin
    st.heap_size <- st.heap_size + 1;
    sift_up st (st.heap_size - 1) v
  end

(* Add [v] at the end, out of order; a [heap_rebuild] must follow. *)
let heap_append st v =
  if st.heap_pos.(v) < 0 then begin
    heap_set st st.heap_size v;
    st.heap_size <- st.heap_size + 1
  end

let heap_pop st =
  let top = st.heap.(0) in
  st.heap_pos.(top) <- -1;
  st.heap_size <- st.heap_size - 1;
  if st.heap_size > 0 then sift_down st 0 st.heap.(st.heap_size);
  top

(* Restore the heap order after activities changed wholesale. *)
let heap_rebuild st =
  for i = (st.heap_size / 2) - 1 downto 0 do
    sift_down st i st.heap.(i)
  done

let heap_drop_assigned st =
  let n = ref 0 in
  for i = 0 to st.heap_size - 1 do
    let v = st.heap.(i) in
    if st.assign.(v) = 0 then begin
      heap_set st !n v;
      incr n
    end
    else st.heap_pos.(v) <- -1
  done;
  st.heap_size <- !n;
  heap_rebuild st

let bump st v =
  st.activity.(v) <- st.activity.(v) +. st.var_inc;
  if st.activity.(v) > 1e100 then begin
    for u = 1 to st.nvars do
      st.activity.(u) <- st.activity.(u) *. 1e-100
    done;
    st.var_inc <- st.var_inc *. 1e-100;
    (* Scaling can round distinct activities to equal ones, whose order is
       then decided by the variable instead. *)
    heap_rebuild st
  end
  else if st.heap_pos.(v) >= 0 then sift_up st st.heap_pos.(v) v

let decay st = st.var_inc <- st.var_inc /. 0.95

(* First-UIP conflict analysis.  Returns the learned clause with the
   asserting literal first, and the backjump level. *)
let analyze st conflict_id =
  let current = st.decision_level in
  let learned = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let index = ref (st.trail_size - 1) in
  let confl = ref conflict_id in
  let finished = ref false in
  while not !finished do
    let c = st.clauses.(!confl) in
    let start = if !p = -1 then 0 else 1 in
    for i = start to Array.length c - 1 do
      let q = c.(i) in
      let v = var_of_lit q in
      if (not st.seen.(v)) && st.level.(v) > 0 then begin
        st.seen.(v) <- true;
        bump st v;
        if st.level.(v) = current then incr counter
        else learned := q :: !learned
      end
    done;
    (* Walk the trail back to the next marked literal. *)
    while not st.seen.(var_of_lit st.trail.(!index)) do
      decr index
    done;
    p := st.trail.(!index);
    let v = var_of_lit !p in
    st.seen.(v) <- false;
    decr index;
    decr counter;
    if !counter = 0 then finished := true else confl := st.reason.(v)
  done;
  let learned_clause = neg !p :: !learned in
  List.iter (fun lit -> st.seen.(var_of_lit lit) <- false) !learned;
  let backjump =
    List.fold_left
      (fun acc lit -> max acc st.level.(var_of_lit lit))
      0 !learned
  in
  (learned_clause, backjump)

let cancel_until st target =
  if st.decision_level > target then begin
    let keep_size = st.trail_lim.(target) in
    (* Putting back more variables than the heap holds (a restart, or the
       next call of a session whose last model assigned everything):
       append them and heapify once, O(n), instead of sifting each up. *)
    let bulk = st.trail_size - keep_size > st.heap_size in
    for i = st.trail_size - 1 downto keep_size do
      let v = var_of_lit st.trail.(i) in
      st.assign.(v) <- 0;
      st.reason.(v) <- -1;
      if bulk then heap_append st v else heap_insert st v
    done;
    if bulk then heap_rebuild st;
    st.trail_size <- keep_size;
    st.qhead <- keep_size;
    st.decision_level <- target
  end

(* The unassigned variable of highest activity, ties to the lowest; 0 when
   every variable is assigned.  The heap holds every unassigned variable, so
   [heap_size - (nvars - trail_size)] of its entries are assigned; when
   those are the majority (propagation assigned most variables since the
   last pick), one O(n) sweep drops them instead of one O(log n) pop
   each. *)
let rec pick_branch_var st =
  if st.heap_size = 0 then 0
  else if
    st.assign.(st.heap.(0)) <> 0
    && 2 * (st.heap_size - (st.nvars - st.trail_size)) > st.heap_size
  then begin
    heap_drop_assigned st;
    pick_branch_var st
  end
  else
    let v = heap_pop st in
    if st.assign.(v) = 0 then v else pick_branch_var st

(* The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let rec find k = if (1 lsl k) - 1 >= i then k else find (k + 1) in
  let k = find 1 in
  if (1 lsl k) - 1 = i then 1 lsl (k - 1)
  else luby (i - ((1 lsl (k - 1)) - 1))

(* Internal verdict of one (possibly budgeted) CDCL run.  [V_unsat] means
   unsatisfiable under the given assumptions; unconditional unsatisfiability
   still travels as [Found_unsat] so sessions can mark themselves broken. *)
type verdict =
  | V_sat of bool array
  | V_unsat
  | V_stopped of Outcome.reason

(* [assumptions] are solver literals assumed for this call only, realised
   as the first decisions (MiniSat-style).
   [conflict_limit] is an absolute ceiling on [st.conflicts];
   [deadline] an absolute [Unix.gettimeofday] instant;
   [should_stop] an external cancellation probe (polled together with the
   state's own atomic stop flag once per CDCL iteration, i.e. around every
   propagate call).
   On [V_stopped] the trail is rewound to level 0 but conflicts, restarts,
   learned clauses, phases and activities survive, so calling again simply
   resumes the search.
   May raise [Found_unsat] when the formula itself (independent of the
   assumptions) is contradicted at level 0; callers decide how to record
   that. *)
let solve_state ?(assumptions = [||]) ?(conflict_limit = max_int)
    ?(deadline = infinity) ?(should_stop = fun () -> false) st =
  let check_budgets () =
    if Atomic.get st.stop || should_stop () then
      raise (Stop_search Outcome.Cancelled);
    if st.conflicts >= conflict_limit then
      raise (Stop_search Outcome.Conflict_budget);
    if deadline < infinity && Unix.gettimeofday () >= deadline then
      raise (Stop_search Outcome.Time_budget)
  in
  try
    check_budgets ();
    if propagate st >= 0 then raise Found_unsat;
    let result = ref None in
    while !result = None do
      st.restarts <- st.restarts + 1;
      let limit = st.restart_base * luby st.restarts in
      let conflicts_here = ref 0 in
      let restart = ref false in
      while (not !restart) && !result = None do
        check_budgets ();
        let conflict = propagate st in
        if conflict >= 0 then begin
          st.conflicts <- st.conflicts + 1;
          incr conflicts_here;
          if st.decision_level = 0 then raise Found_unsat;
          let learned, backjump = analyze st conflict in
          cancel_until st backjump;
          let c = Array.of_list learned in
          if Array.length c > 1 then begin
            (* Watch the asserting literal and a literal of the backjump
               level, so the clause wakes up correctly. *)
            let pos = ref 1 in
            for i = 1 to Array.length c - 1 do
              if
                st.level.(var_of_lit c.(i))
                > st.level.(var_of_lit c.(!pos))
              then pos := i
            done;
            let tmp = c.(1) in
            c.(1) <- c.(!pos);
            c.(!pos) <- tmp;
            if not (add_clause_array st c) then raise Found_unsat;
            enqueue st c.(0) (st.clause_count - 1)
          end
          else if not (add_clause_array st c) then raise Found_unsat;
          decay st
        end
        else if !conflicts_here >= limit then begin
          cancel_until st 0;
          restart := true
        end
        else begin
          let dl = st.decision_level in
          if dl < Array.length assumptions then begin
            (* Assume the next assumption literal as a decision. *)
            let lit = assumptions.(dl) in
            match value st lit with
            | 1 ->
              (* Already true: open an empty level so indices advance. *)
              new_decision_level st
            | -1 ->
              (* Incompatible with the formula (plus earlier assumptions). *)
              result := Some V_unsat
            | _ ->
              new_decision_level st;
              enqueue st lit (-1)
          end
          else begin
            let v = pick_branch_var st in
            if v = 0 then begin
              let model = Array.make (st.nvars + 1) false in
              for u = 1 to st.nvars do
                model.(u) <- st.assign.(u) = 1
              done;
              result := Some (V_sat model)
            end
            else begin
              new_decision_level st;
              let lit = if st.phase.(v) then 2 * v else (2 * v) + 1 in
              enqueue st lit (-1)
            end
          end
        end
      done
    done;
    (match !result with
    | Some r -> r
    | None -> assert false)
  with Stop_search reason ->
    cancel_until st 0;
    V_stopped reason

let load cnf extra_units =
  let st = create_state (Cnf.num_vars cnf) in
  let ok = ref true in
  let add c =
    if !ok && not (add_clause_array st (Array.of_list (List.map lit_of_dimacs c)))
    then ok := false
  in
  List.iter add (Cnf.clauses cnf);
  List.iter (fun l -> add [ l ]) extra_units;
  (st, !ok)

(* --- portfolio diversification ------------------------------------------- *)

(* Worker 0 always runs the stock configuration, so a portfolio answers no
   later than the sequential solver would (modulo scheduling).  The other
   workers diversify along the classic axes: initial phase, activity noise
   (i.e. branching order) and restart cadence, all seeded deterministically
   from the worker index via the splittable PRNG. *)
type profile = {
  seed : int;
  restart_base : int;
  phase_init : [ `Default | `Inverted | `Random ];
  activity_noise : bool;
}

let profile_for_worker = function
  | 0 -> { seed = 0; restart_base = 100; phase_init = `Default; activity_noise = false }
  | 1 -> { seed = 1; restart_base = 100; phase_init = `Inverted; activity_noise = false }
  | 2 -> { seed = 2; restart_base = 40; phase_init = `Random; activity_noise = true }
  | 3 -> { seed = 3; restart_base = 300; phase_init = `Random; activity_noise = true }
  | w ->
    let bases = [| 25; 60; 150; 400; 800 |] in
    { seed = (101 * w) + 7;
      restart_base = bases.(w mod Array.length bases);
      phase_init = `Random;
      activity_noise = true }

let apply_profile (st : state) (p : profile) =
  st.restart_base <- p.restart_base;
  let rng = Prng.create (0x5eed + (0x9e3779b9 * p.seed)) in
  (match p.phase_init with
  | `Default -> ()
  | `Inverted ->
    for v = 1 to st.nvars do
      st.phase.(v) <- true
    done
  | `Random ->
    for v = 1 to st.nvars do
      st.phase.(v) <- Prng.bool rng
    done);
  if p.activity_noise then begin
    for v = 1 to st.nvars do
      st.activity.(v) <- Prng.float rng *. 0.5
    done;
    heap_rebuild st
  end

(* --- top-level solving ---------------------------------------------------- *)

let run_to_outcome ?(conflict_limit = max_int) ?(deadline = infinity)
    ?(should_stop = fun () -> false) st =
  try
    match solve_state ~conflict_limit ~deadline ~should_stop st with
    | V_sat m -> Outcome.Sat m
    | V_unsat -> Outcome.Unsat
    | V_stopped r -> Outcome.Unknown r
  with Found_unsat -> Outcome.Unsat

let sequential_outcome ~conflict_budget ~deadline ~should_stop cnf =
  let st, ok = load cnf [] in
  if not ok then Outcome.Unsat
  else run_to_outcome ~conflict_limit:conflict_budget ~deadline ~should_stop st

(* How many conflicts a worker runs before yielding to its siblings when the
   portfolio is interleaved on one core. *)
let interleave_slice = 2000

let portfolio_outcome ~n ~conflict_budget ~deadline ~should_stop cnf =
  Sat_stats.portfolio_run ();
  let shared_stop = Atomic.make false in
  let states =
    Array.init n (fun w ->
        let st, ok = load cnf [] in
        if not ok then None
        else begin
          apply_profile st (profile_for_worker w);
          st.stop <- shared_stop;
          Some st
        end)
  in
  if Array.exists (fun s -> s = None) states then Outcome.Unsat
  else begin
    let states =
      Array.map (function Some s -> s | None -> assert false) states
    in
    let budget_limit st =
      if conflict_budget = max_int then max_int
      else st.conflicts + conflict_budget
    in
    let pool = Domain_pool.default () in
    if Domain_pool.size pool >= 1 then begin
      (* Real race: one domain per worker, first definite answer raises the
         shared stop flag and the others give up at their next poll. *)
      let decided = Atomic.make None in
      let worker w st () =
        let outcome =
          run_to_outcome ~conflict_limit:(budget_limit st) ~deadline
            ~should_stop st
        in
        (match outcome with
        | Outcome.Sat _ | Outcome.Unsat ->
          if Atomic.compare_and_set decided None (Some (w, outcome)) then
            Atomic.set shared_stop true
        | Outcome.Unknown _ -> ());
        outcome
      in
      let results =
        Domain_pool.run pool
          (Array.to_list (Array.mapi worker states))
      in
      match Atomic.get decided with
      | Some (w, answer) ->
        Sat_stats.race_won w;
        answer
      | None -> (
        (* Nobody was decisive: every worker stopped on a budget or the
           caller's flag.  Report the first worker's reason. *)
        match results with
        | first :: _ -> first
        | [] -> assert false)
    end
    else begin
      (* Single core: deterministic round-robin interleave.  Diversification
         still pays off on heavy-tailed instances — the first worker whose
         configuration gets lucky finishes the race for everyone. *)
      let limits = Array.map budget_limit states in
      let exhausted = Array.make n false in
      let decided = ref None in
      let stopped = ref None in
      let progress = ref true in
      while !decided = None && !stopped = None && !progress do
        progress := false;
        for w = 0 to n - 1 do
          if !decided = None && !stopped = None && not exhausted.(w) then begin
            let st = states.(w) in
            let slice_limit = min limits.(w) (st.conflicts + interleave_slice) in
            match
              run_to_outcome ~conflict_limit:slice_limit ~deadline
                ~should_stop st
            with
            | (Outcome.Sat _ | Outcome.Unsat) as answer ->
              decided := Some (w, answer)
            | Outcome.Unknown Outcome.Conflict_budget ->
              if st.conflicts >= limits.(w) then exhausted.(w) <- true
              else progress := true
            | Outcome.Unknown r -> stopped := Some r
          end
        done
      done;
      match !decided with
      | Some (w, answer) ->
        Sat_stats.race_won w;
        answer
      | None -> (
        match !stopped with
        | Some r -> Outcome.Unknown r
        | None -> Outcome.Unknown Outcome.Conflict_budget)
    end
  end

(* A short bounded CDCL run whose only purpose is to heat up the VSIDS
   activities; the cube-and-conquer splitter branches on the hottest
   variables.  Sequential and deterministic. *)
let probe_activity_order ?(conflicts = 200) cnf =
  let st, ok = load cnf [] in
  if not ok then []
  else begin
    (try ignore (solve_state ~conflict_limit:conflicts st)
     with Found_unsat -> ());
    let vars = List.init st.nvars (fun i -> i + 1) in
    List.stable_sort
      (fun a b -> compare st.activity.(b) st.activity.(a))
      vars
  end

let default_par = Atomic.make 1

let set_default_parallelism n = Atomic.set default_par (max 1 n)

let default_parallelism () = Atomic.get default_par

let default_mode () : mode =
  let n = default_parallelism () in
  if n >= 2 then `Portfolio n else `Sequential

let solve_outcome ?mode ?(conflict_budget = max_int) ?(time_budget = infinity)
    ?stop cnf =
  let mode = match mode with Some m -> m | None -> default_mode () in
  let deadline =
    if time_budget = infinity then infinity
    else Unix.gettimeofday () +. time_budget
  in
  let should_stop =
    match stop with
    | Some flag -> fun () -> Atomic.get flag
    | None -> fun () -> false
  in
  let outcome =
    match mode with
    | `Sequential ->
      sequential_outcome ~conflict_budget ~deadline ~should_stop cnf
    | `Portfolio n when n <= 1 ->
      sequential_outcome ~conflict_budget ~deadline ~should_stop cnf
    | `Portfolio n ->
      let n = min n 64 in
      portfolio_outcome ~n ~conflict_budget ~deadline ~should_stop cnf
  in
  (match outcome with
  | Outcome.Unknown (Outcome.Conflict_budget | Outcome.Time_budget | Outcome.Node_budget) ->
    Sat_stats.budget_exhausted ()
  | _ -> ());
  outcome

let solve ?mode cnf =
  match solve_outcome ?mode cnf with
  | Outcome.Sat m -> Sat m
  | Outcome.Unsat -> Unsat
  | Outcome.Unknown _ ->
    (* Unreachable: no budget and no stop flag were given. *)
    assert false

let solve_with_units cnf units =
  let st, ok = load cnf units in
  if not ok then Unsat
  else
    try
      match solve_state st with
      | V_sat m -> Sat m
      | V_unsat | V_stopped _ -> assert false
    with Found_unsat -> Unsat

let is_satisfiable ?mode cnf =
  match solve ?mode cnf with
  | Sat _ -> true
  | Unsat -> false

let model_checks r cnf =
  match r with
  | Unsat -> true
  | Sat model -> Cnf.eval cnf (fun v -> model.(v))

(* --- incremental sessions ------------------------------------------------ *)

type session = {
  state : state;
  mutable broken : bool;  (* formula unsatisfiable outright *)
}

let session cnf =
  let st, ok = load cnf [] in
  { state = st; broken = not ok }

let check_session_literal s l =
  let v = abs l in
  if l = 0 || v > s.state.nvars then
    invalid_arg
      (Printf.sprintf "Solver: literal %d out of range 1..%d" l s.state.nvars)

let solve_assuming_outcome ?(conflict_budget = max_int)
    ?(time_budget = infinity) s assumptions =
  List.iter (check_session_literal s) assumptions;
  if s.broken then Outcome.Unsat
  else begin
    cancel_until s.state 0;
    let conflict_limit =
      if conflict_budget = max_int then max_int
      else s.state.conflicts + conflict_budget
    in
    let deadline =
      if time_budget = infinity then infinity
      else Unix.gettimeofday () +. time_budget
    in
    let assumptions =
      Array.of_list (List.map lit_of_dimacs assumptions)
    in
    let result =
      try
        match solve_state ~assumptions ~conflict_limit ~deadline s.state with
        | V_sat m -> Outcome.Sat m
        | V_unsat -> Outcome.Unsat
        | V_stopped r -> Outcome.Unknown r
      with Found_unsat ->
        s.broken <- true;
        Outcome.Unsat
    in
    cancel_until s.state 0;
    (match result with
    | Outcome.Unknown (Outcome.Conflict_budget | Outcome.Time_budget) ->
      Sat_stats.budget_exhausted ()
    | _ -> ());
    result
  end

let solve_assuming s assumptions =
  match solve_assuming_outcome s assumptions with
  | Outcome.Sat m -> Sat m
  | Outcome.Unsat -> Unsat
  | Outcome.Unknown _ ->
    (* Unreachable: no budget was given. *)
    assert false

let add_clause s lits =
  List.iter (check_session_literal s) lits;
  if not s.broken then begin
    cancel_until s.state 0;
    let st = s.state in
    let solver_lits = List.map lit_of_dimacs lits in
    (* Level-0 values are permanent: a true literal satisfies the clause
       forever, false literals can be dropped.  What remains must carry the
       watches, because level-0 propagation has already passed. *)
    if not (List.exists (fun l -> value st l = 1) solver_lits) then begin
      let unassigned = List.filter (fun l -> value st l = 0) solver_lits in
      match unassigned with
      | [] -> s.broken <- true
      | [ unit_lit ] ->
        if not (add_clause_array st [| unit_lit |]) then s.broken <- true
        else if propagate st >= 0 then s.broken <- true
      | lits ->
        (* Keep the falsified literals too (harmless), but watch two
           unassigned ones. *)
        let falsified =
          List.filter (fun l -> value st l = -1) solver_lits
        in
        if not (add_clause_array st (Array.of_list (lits @ falsified))) then
          s.broken <- true
    end
  end
