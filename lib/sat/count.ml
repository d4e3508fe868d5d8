module ISet = Set.Make (Int)

exception Conflict

(* Assign literal [l] true: drop satisfied clauses, shrink the others.
   @raise Conflict when an empty clause appears. *)
let assign l clauses =
  List.filter_map
    (fun clause ->
      if List.mem l clause then None
      else
        match List.filter (fun l' -> l' <> -l) clause with
        | [] -> raise Conflict
        | smaller -> Some smaller)
    clauses

(* Exhaustive unit propagation; returns the simplified clauses and the set
   of variables that got forced. *)
let rec propagate clauses forced =
  match List.find_map (function [ l ] -> Some l | _ -> None) clauses with
  | None -> (clauses, forced)
  | Some l -> propagate (assign l clauses) (ISet.add (abs l) forced)

(* --- component split ----------------------------------------------------- *)

(* A component's clauses as a join tree: the clause that formed it, then the
   components that clause joined, newest first.  Flattened once, in
   pre-order, it is the clause list of the component. *)
type rope = Join of int list * rope list

let flatten rope =
  let rec go acc = function
    | [] -> List.rev acc
    | Join (clause, joined) :: rest -> go (clause :: acc) (joined @ rest)
  in
  go [] [ rope ]

(* Per-domain scratch: [owner.(v)] is the index of the newest clause seen to
   mention variable [v], valid only while [stamp.(v)] equals the current
   call's [epoch].  Bumping the epoch invalidates every entry at once, so a
   call on a handful of clauses (the DPLL counter splits at every node)
   touches only its own variables' entries, never the whole array. *)
type scratch = {
  mutable owner : int array;
  mutable stamp : int array;
  mutable epoch : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { owner = [||]; stamp = [||]; epoch = 0 })

let reserve s v =
  let len = Array.length s.owner in
  if v >= len then begin
    let len' = max (v + 1) (2 * len) in
    let grow a = Array.append a (Array.make (len' - len) 0) in
    s.owner <- grow s.owner;
    s.stamp <- grow s.stamp
  end

(* Union-find over clause indices.  A set's root is always its newest
   clause: a clause becomes the parent of every root it touches, so roots
   order components by their latest clause and the set of roots a clause
   meets, sorted descending, is the join order. *)
let components clauses =
  let clauses = Array.of_list clauses in
  let n = Array.length clauses in
  let s = Domain.DLS.get scratch_key in
  s.epoch <- s.epoch + 1;
  let epoch = s.epoch in
  let parent = Array.init n Fun.id in
  let ropes = Array.make n (Join ([], [])) in
  (* Path halving. *)
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      let g = parent.(p) in
      parent.(i) <- g;
      if g = p then p else find g
    end
  in
  let seen = ref [] in
  for i = 0 to n - 1 do
    let met = ref [] in
    List.iter
      (fun l ->
        let v = abs l in
        reserve s v;
        if s.stamp.(v) = epoch then begin
          let r = find s.owner.(v) in
          if r <> i then met := r :: !met
        end
        else begin
          s.stamp.(v) <- epoch;
          seen := v :: !seen
        end;
        s.owner.(v) <- i)
      clauses.(i);
    let met = List.sort_uniq (fun a b -> compare b a) !met in
    List.iter (fun r -> parent.(r) <- i) met;
    ropes.(i) <- Join (clauses.(i), List.map (fun r -> ropes.(r)) met)
  done;
  let vars = Array.make n [] in
  List.iter
    (fun v ->
      let r = find s.owner.(v) in
      vars.(r) <- v :: vars.(r))
    !seen;
  let comps = ref [] in
  for i = 0 to n - 1 do
    if parent.(i) = i then
      comps := (flatten ropes.(i), ISet.of_list vars.(i)) :: !comps
  done;
  !comps

let pow2 n =
  if n < 0 then invalid_arg "Count.pow2" else 1 lsl n

type partial = {
  value : int;
  exact : bool;
}

(* Budgeted DPLL count.  Exhaustion never discards completed work: a
   subtree the budget cannot afford contributes 0 (a sound lower bound)
   and flips [exact] off, while fully counted siblings — earlier branch
   sides, earlier components — keep their exact contribution.  Branch sums
   and component products combine values and AND exactness; an exact 0
   absorbs a product (the formula is unsatisfiable there no matter what
   the unexplored part would have said). *)
let count_nonempty ~budget clauses vars =
  let nodes = ref 0 in
  let exhausted = ref false in
  let rec go clauses vars =
    if !exhausted then { value = 0; exact = false }
    else begin
      incr nodes;
      if !nodes > budget then begin
        exhausted := true;
        Sat_stats.budget_exhausted ();
        { value = 0; exact = false }
      end
      else
        match propagate clauses ISet.empty with
        | exception Conflict -> { value = 0; exact = true }
        | clauses, forced ->
          let vars = ISet.diff vars forced in
          if clauses = [] then
            { value = pow2 (ISet.cardinal vars); exact = true }
          else begin
            let comps = components clauses in
            let constrained =
              List.fold_left
                (fun acc (_, vs) -> ISet.union acc vs)
                ISet.empty comps
            in
            let free = ISet.cardinal (ISet.diff vars constrained) in
            let product =
              List.fold_left
                (fun acc (cs, vs) ->
                  if acc.value = 0 then acc
                  else begin
                    (* Branch on some variable of the component. *)
                    let v = ISet.min_elt vs in
                    let vs' = ISet.remove v vs in
                    let pos =
                      match assign v cs with
                      | exception Conflict -> { value = 0; exact = true }
                      | cs' -> go cs' vs'
                    in
                    let neg =
                      match assign (-v) cs with
                      | exception Conflict -> { value = 0; exact = true }
                      | cs' -> go cs' vs'
                    in
                    {
                      value = acc.value * (pos.value + neg.value);
                      exact = acc.exact && pos.exact && neg.exact;
                    }
                  end)
                { value = 1; exact = true }
                comps
            in
            { product with value = product.value * pow2 free }
          end
    end
  in
  go clauses vars

(* An empty clause can only occur in the input — [assign] raises [Conflict]
   rather than ever producing one — so one up-front check keeps the
   recursion free of it (a clause with no variables would otherwise confuse
   the component split). *)
let count_clauses ~budget clauses vars =
  if List.mem [] clauses then { value = 0; exact = true }
  else count_nonempty ~budget clauses vars

let count_limited ~budget cnf =
  let clauses = Cnf.clauses cnf in
  let vars = ISet.of_list (List.init (Cnf.num_vars cnf) (fun i -> i + 1)) in
  match count_clauses ~budget clauses vars with
  | { value; exact = true } -> Outcome.Exact value
  | { value; exact = false } -> Outcome.Lower_bound (value, Outcome.Node_budget)

let count cnf =
  match count_limited ~budget:max_int cnf with
  | Outcome.Exact n -> n
  | Outcome.Lower_bound _ -> assert false
