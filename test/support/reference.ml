module Ast = Datalog.Ast

module Atoms = Set.Make (struct
  type t = string * string list

  let compare = compare
end)

let atoms_of_bindings bindings =
  List.fold_left
    (fun acc (pred, rel) ->
      Relalg.Relation.fold
        (fun t acc ->
          Atoms.add
            (pred, List.map Relalg.Symbol.name (Relalg.Tuple.to_list t))
            acc)
        rel acc)
    Atoms.empty bindings

(* The only read of the database: its universe and facts as strings. *)
let read_database db =
  ( List.map Relalg.Symbol.name (Relalg.Database.universe db),
    atoms_of_bindings (Relalg.Database.relations db) )

let term_vars = function Ast.Var v -> [ v ] | Ast.Const _ -> []

let atom_vars (a : Ast.atom) = List.concat_map term_vars a.args

let rule_vars (r : Ast.rule) =
  let body =
    List.concat_map
      (function
        | Ast.Pos a | Ast.Neg a -> atom_vars a
        | Ast.Eq (t1, t2) | Ast.Neq (t1, t2) -> term_vars t1 @ term_vars t2
        | Ast.Leq _ | Ast.Geq _ | Ast.Plus _ ->
          invalid_arg "Reference: comparison literals are not supported")
      r.body
  in
  List.sort_uniq compare (atom_vars r.head @ body)

(* Θ with the two readings split: positive literals are checked against
   [pos], negated ones against [neg]. *)
let consequences rules universe ~pos ~neg =
  List.fold_left
    (fun acc (r : Ast.rule) ->
      let rec assign env vars acc =
        match vars with
        | v :: rest ->
          List.fold_left (fun acc c -> assign ((v, c) :: env) rest acc) acc
            universe
        | [] ->
          let value = function
            | Ast.Var v -> List.assoc v env
            | Ast.Const c -> Relalg.Symbol.name c
          in
          let ground (a : Ast.atom) = (a.pred, List.map value a.args) in
          let holds = function
            | Ast.Pos a -> Atoms.mem (ground a) pos
            | Ast.Neg a -> not (Atoms.mem (ground a) neg)
            | Ast.Eq (t1, t2) -> value t1 = value t2
            | Ast.Neq (t1, t2) -> value t1 <> value t2
            | Ast.Leq _ | Ast.Geq _ | Ast.Plus _ -> assert false
          in
          if List.for_all holds r.body then Atoms.add (ground r.head) acc
          else acc
      in
      assign [] (rule_vars r) acc)
    Atoms.empty rules

(* Iterate [s := s ∪ step s] until nothing new appears. *)
let rec saturate step s =
  let s' = Atoms.union s (step s) in
  if Atoms.equal s s' then s else saturate step s'

(* The least model of [rules] over [base] with negation read against the
   fixed set [neg]. *)
let least rules universe base ~neg =
  saturate (fun s -> consequences rules universe ~pos:s ~neg) base

let heads (p : Ast.program) =
  List.sort_uniq compare (List.map (fun (r : Ast.rule) -> r.head.pred) p.rules)

let idb_only p atoms =
  let hs = heads p in
  Atoms.filter (fun (pred, _) -> List.mem pred hs) atoms

let inflationary p db =
  let universe, edb = read_database db in
  idb_only p
    (saturate (fun s -> consequences p.Ast.rules universe ~pos:s ~neg:s) edb)

let well_founded p db =
  let universe, edb = read_database db in
  let gamma i = least p.Ast.rules universe edb ~neg:i in
  (* Van Gelder's alternating fixpoint: underestimates [a] of the true
     atoms and overestimates [gamma a] of the possible ones, each computed
     with negation read against the other, until the underestimate is
     stable. *)
  let rec alternate a =
    let u = gamma a in
    let a' = gamma u in
    if Atoms.equal a a' then (a, u) else alternate a'
  in
  let t, u = alternate edb in
  (idb_only p t, idb_only p u)

(* Stratum numbers by relaxation: a head sits at or above every positive
   body predicate and strictly above every negated one.  A number past the
   predicate count means a negative cycle. *)
let strata p =
  let hs = heads p in
  let level = Hashtbl.create 8 in
  let get q = Option.value ~default:0 (Hashtbl.find_opt level q) in
  let limit = List.length hs in
  let rec relax () =
    let changed = ref false in
    List.iter
      (fun (r : Ast.rule) ->
        List.iter
          (fun lit ->
            let need =
              match lit with
              | Ast.Pos a when List.mem a.Ast.pred hs -> get a.pred
              | Ast.Neg a when List.mem a.Ast.pred hs -> get a.pred + 1
              | _ -> 0
            in
            if need > get r.head.pred then begin
              Hashtbl.replace level r.head.pred need;
              changed := true
            end)
          r.body)
      p.Ast.rules;
    if List.exists (fun q -> get q > limit) hs then None
    else if !changed then relax ()
    else Some get
  in
  relax ()

let stratified p db =
  match strata p with
  | None -> None
  | Some level ->
    let universe, edb = read_database db in
    let top = List.fold_left (fun m q -> max m (level q)) 0 (heads p) in
    let rec go k s =
      if k > top then s
      else
        let rules =
          List.filter (fun (r : Ast.rule) -> level r.head.pred = k) p.rules
        in
        (* Negated predicates lie in lower, finished strata. *)
        go (k + 1)
          (saturate (fun s -> consequences rules universe ~pos:s ~neg:s) s)
    in
    Some (idb_only p (go 0 edb))
