let idb_schema_exn p =
  match Datalog.Ast.idb_schema p with
  | Ok s -> s
  | Error msg -> invalid_arg ("Theta: " ^ msg)

let apply ?(parallel = false) ?pool ?grain ?planner ?cache ?stats p db s =
  let schema = idb_schema_exn p in
  if parallel then
    (* Same semantics as the sequential path below — evolving predicates
       read [s], everything else the database — expressed through
       {!Saturate.apply_once} so the stage can fan across rules or shard
       within them.  Union with the empty valuation first so a caller
       valuation missing some IDB predicate still resolves (the layered
       source's database fallback, made explicit). *)
    let s = Idb.union (Idb.empty schema) s in
    Saturate.apply_once ~parallel:true ?pool ?grain ?planner ?cache
      ?stats ~rules:p.Datalog.Ast.rules ~schema
      ~universe:(Relalg.Database.universe db)
      ~base:(Engine.database_source db) ~neg:`Current ~current:s ()
  else
    let resolver = Engine.uniform (Engine.layered db s) in
    Engine.eval_rules ?planner ?cache ?stats
      ~universe:(Relalg.Database.universe db) ~resolver ~schema
      p.Datalog.Ast.rules

let is_fixpoint p db s = Idb.equal (apply p db s) s

let inflate p db s = Idb.union s (apply p db s)

type iteration_outcome =
  | Reached_fixpoint of { fixpoint : Idb.t; steps : int }
  | Entered_cycle of { entry : int; period : int; states : Idb.t list }
  | Gave_up of { steps : int }

let iterate ?(max_steps = 10000) ?parallel ?pool ?grain ?planner p db start =
  (* The orbit of a deterministic map on a finite space is a rho: store the
     states seen with their step index and stop at the first repeat.  The
     repeat test hashes each state's canonical fingerprint into buckets of
     (step, state) pairs, so a step costs one fingerprint plus [Idb.equal]
     against fingerprint collisions only — not an [Idb.equal] scan over the
     whole history, which made long orbits quadratic in both steps and
     state size.  Rule plans are shared across the whole orbit through one
     cache. *)
  let cache = Planlib.Cache.create () in
  let seen : (int, (int * Idb.t) list) Hashtbl.t = Hashtbl.create 97 in
  let remember step s =
    let fp = Idb.fingerprint s in
    Hashtbl.replace seen fp
      ((step, s) :: Option.value ~default:[] (Hashtbl.find_opt seen fp))
  in
  let find_seen s =
    match Hashtbl.find_opt seen (Idb.fingerprint s) with
    | None -> None
    | Some bucket -> List.find_opt (fun (_, s') -> Idb.equal s' s) bucket
  in
  remember 0 start;
  (* [history] keeps the orbit newest-first for cycle reconstruction. *)
  let rec loop history current step =
    if step > max_steps then Gave_up { steps = step - 1 }
    else
      let next = apply ?parallel ?pool ?grain ?planner ~cache p db current in
      if Idb.equal next current then
        Reached_fixpoint { fixpoint = current; steps = step - 1 }
      else
        match find_seen next with
        | Some (entry, _) ->
          let period = step - entry in
          let states =
            history
            |> List.filter (fun (i, _) -> i >= entry)
            |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
            |> List.map snd
          in
          Entered_cycle { entry; period; states }
        | None ->
          remember step next;
          loop ((step, next) :: history) next (step + 1)
  in
  loop [ (0, start) ] start 1
