(* Oracles that share no code with the evaluator: plain graph algorithms
   over adjacency arrays, compared against the relations a run produced.
   Each check returns [None] when the model agrees and [Some reason]
   otherwise. *)

open Negdl

(* Vertices are the constants v0 .. v(n-1). *)
let vertex_name i = "v" ^ string_of_int i

let vertex_of_symbol s =
  let name = Symbol.name s in
  int_of_string (String.sub name 1 (String.length name - 1))

let adjacency n edges ~reverse =
  let adj = Array.make n [] in
  Array.iter
    (fun (u, v) ->
      if reverse then adj.(v) <- u :: adj.(v) else adj.(u) <- v :: adj.(u))
    edges;
  adj

let unary_set n rel =
  let s = Array.make n false in
  Relation.iter (fun t -> s.(vertex_of_symbol (Tuple.get t 0)) <- true) rel;
  s

let count_true a = Array.fold_left (fun c b -> if b then c + 1 else c) 0 a

let first_failure checks =
  List.find_map (fun (ok, what) -> if ok then None else Some what) checks

(* Does [rel] hold exactly the vertices flagged in [expected]? *)
let unary_equal n rel expected =
  Relation.cardinal rel = count_true expected
  && Array.for_all2 ( = ) (unary_set n rel) expected

(* [rel] holds exactly the pairs (x, y) with [expected x y]; [total] is
   the number of such pairs. *)
let binary_equal rel ~total expected =
  Relation.cardinal rel = total
  && Relation.for_all
       (fun t ->
         expected (vertex_of_symbol (Tuple.get t 0)) (vertex_of_symbol (Tuple.get t 1)))
       rel

(* Row x marks the vertices reachable from x by a non-empty path. *)
let closure_rows ~n ~edges =
  let succ = adjacency n edges ~reverse:false in
  Array.init n (fun x ->
      let seen = Bytes.make n '\000' in
      let stack = ref [] in
      let visit y =
        if Bytes.get seen y = '\000' then begin
          Bytes.set seen y '\001';
          stack := y :: !stack
        end
      in
      List.iter visit succ.(x);
      while !stack <> [] do
        let y = List.hd !stack in
        stack := List.tl !stack;
        List.iter visit succ.(y)
      done;
      seen)

let closure_size ~n ~edges =
  Array.fold_left
    (fun acc row ->
      let c = ref acc in
      Bytes.iter (fun b -> if b = '\001' then incr c) row;
      !c)
    0 (closure_rows ~n ~edges)

(* closure_strat: r = non-empty-path closure of e, reach(Y) :- r(X, Y),
   src(X) :- e(X, Y), !reach(X), far(X, Y) :- src(X), r(X, Y), !e(X, Y). *)
let check_closure ~n ~edges ~get =
  let succ = adjacency n edges ~reverse:false in
  let reach_from = closure_rows ~n ~edges in
  let r x y = Bytes.get reach_from.(x) y = '\001' in
  let e = Hashtbl.create (Array.length edges) in
  Array.iter (fun uv -> Hashtbl.replace e uv ()) edges;
  let reach = Array.init n (fun y -> Array.exists (fun row -> Bytes.get row y = '\001') reach_from) in
  let src = Array.init n (fun x -> succ.(x) <> [] && not reach.(x)) in
  let far x y = src.(x) && r x y && not (Hashtbl.mem e (x, y)) in
  let count f =
    let c = ref 0 in
    for x = 0 to n - 1 do
      for y = 0 to n - 1 do
        if f x y then incr c
      done
    done;
    !c
  in
  first_failure
    [
      (binary_equal (get "r") ~total:(count r) r, "r is not the closure of e");
      (unary_equal n (get "reach") reach, "reach differs from the oracle");
      (unary_equal n (get "src") src, "src differs from the oracle");
      (binary_equal (get "far") ~total:(count far) far, "far differs from the oracle");
    ]

(* game_wfs: retrograde analysis of win(X) :- e(X, Y), !win(Y).  A position
   with no moves is lost; one with a move into a lost position is won; one
   whose moves all reach won positions is lost; the rest are drawn.  Won
   positions are the well-founded true facts, drawn ones the unknown facts.
   [retrograde] also returns the depth: the most moves after which a
   position is decided, which sets how many alternations the well-founded
   evaluation runs. *)
let retrograde ~n ~edges =
  let pred = adjacency n edges ~reverse:true in
  let out = Array.make n 0 in
  Array.iter (fun (u, _) -> out.(u) <- out.(u) + 1) edges;
  (* 0 undecided (drawn at the end), 1 won, 2 lost *)
  let status = Array.make n 0 and level = Array.make n 0 in
  let queue = Queue.create () in
  for x = 0 to n - 1 do
    if out.(x) = 0 then begin
      status.(x) <- 2;
      Queue.add x queue
    end
  done;
  let decide x s y =
    status.(x) <- s;
    level.(x) <- level.(y) + 1;
    Queue.add x queue
  in
  while not (Queue.is_empty queue) do
    let y = Queue.pop queue in
    List.iter
      (fun x ->
        if status.(x) = 0 then
          if status.(y) = 2 then decide x 1 y
          else begin
            out.(x) <- out.(x) - 1;
            if out.(x) = 0 then decide x 2 y
          end)
      pred.(y)
  done;
  (status, Array.fold_left max 0 level)

let check_game ~n ~edges ~(won : Relation.t) ~(unknown : Relation.t) =
  let status, _ = retrograde ~n ~edges in
  first_failure
    [
      (unary_equal n won (Array.map (( = ) 1) status), "won positions differ from retrograde analysis");
      (unary_equal n unknown (Array.map (( = ) 0) status), "drawn positions differ from retrograde analysis");
    ]

(* kernel_fixpoints: T is a fixpoint of t(X) :- e(Y, X), !t(Y) iff
   T = { x | some y with e(y, x) is outside T }, checked directly; its
   complement must then be a kernel of the reversed graph. *)
let check_kernel_fixpoint ~n ~edges ~graph (t : Relation.t) =
  let in_t = unary_set n t in
  let pred = adjacency n edges ~reverse:true in
  let theta_fixed =
    Array.for_all Fun.id
      (Array.init n (fun x -> in_t.(x) = List.exists (fun y -> not in_t.(y)) pred.(x)))
  in
  let complement = List.filter (fun v -> not in_t.(v)) (List.init n Fun.id) in
  first_failure
    [
      (theta_fixed, "reported fixpoint T has Theta(T) <> T");
      (Kernel.is_kernel (Digraph.reverse graph) complement,
       "complement of the fixpoint is not a kernel of the reversed graph");
    ]
