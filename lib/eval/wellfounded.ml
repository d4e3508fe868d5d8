type model = {
  true_facts : Idb.t;
  possible : Idb.t;
}

let unknown m = Idb.diff m.possible m.true_facts

let is_total m = Idb.is_empty (unknown m)

let idb_schema_exn p =
  match Datalog.Ast.idb_schema p with
  | Ok s -> s
  | Error msg -> invalid_arg ("Wellfounded: " ^ msg)

let reduct_fixpoint ?engine ?planner ?cache ?stats ?pool ?grain p db s =
  let schema = idb_schema_exn p in
  let fixed = { Engine.find = (fun pred _arity -> Idb.get s pred) } in
  let trace =
    Saturate.run ?engine ?planner ?cache ?stats ?pool
      ?grain ~rules:p.Datalog.Ast.rules ~schema
      ~universe:(Relalg.Database.universe db)
      ~base:(Engine.database_source db) ~neg:(`Fixed fixed)
      ~init:(Idb.empty schema) ()
  in
  trace.Saturate.result

let eval ?engine ?planner ?cache ?stats ?pool ?grain p db =
  Stats.timed stats "well-founded" @@ fun () ->
  (* One cache across every application of A: the alternating fixpoint
     re-saturates the same rules many times, and the plans carry over. *)
  let cache =
    match cache with Some c -> c | None -> Planlib.Cache.create ()
  in
  let a =
    reduct_fixpoint ?engine ?planner ~cache ?stats ?pool ?grain p db
  in
  let rec alternate under over =
    let under' = a over in
    let over' = a under' in
    if Idb.equal under under' && Idb.equal over over' then
      { true_facts = under'; possible = over' }
    else alternate under' over'
  in
  let schema = idb_schema_exn p in
  let empty = Idb.empty schema in
  let over0 = a empty in
  alternate empty over0
