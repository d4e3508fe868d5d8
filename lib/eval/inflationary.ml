let idb_schema_exn p =
  match Datalog.Ast.idb_schema p with
  | Ok s -> s
  | Error msg -> invalid_arg ("Inflationary: " ^ msg)

let eval_trace ?engine ?planner ?cache ?stats ?pool ?grain p db =
  let schema = idb_schema_exn p in
  Saturate.run ?engine ?planner ?cache ?stats ?pool
    ?grain ~label:"inflationary" ~rules:p.Datalog.Ast.rules ~schema
    ~universe:(Relalg.Database.universe db)
    ~base:(Engine.database_source db) ~neg:`Current ~init:(Idb.empty schema)
    ()

let eval ?engine ?planner ?cache ?stats ?pool ?grain p db =
  (eval_trace ?engine ?planner ?cache ?stats ?pool ?grain p db)
    .result

let carrier ?engine p ~carrier db =
  let result = eval ?engine p db in
  if not (Idb.mem result carrier) then
    invalid_arg
      (Printf.sprintf "Inflationary.carrier: %s is not an IDB predicate"
         carrier)
  else Idb.get result carrier
