let check_positive p =
  if not (Datalog.Ast.is_positive p) then
    invalid_arg
      "Naive.least_fixpoint: the program uses negation or inequality; use \
       the inflationary, stratified or well-founded semantics instead"

let idb_schema_exn p =
  match Datalog.Ast.idb_schema p with
  | Ok s -> s
  | Error msg -> invalid_arg ("Naive: " ^ msg)

let least_fixpoint_trace ?engine ?planner ?cache ?stats ?pool ?grain p db =
  check_positive p;
  let schema = idb_schema_exn p in
  Saturate.run ?engine ?planner ?cache ?stats ?pool
    ?grain ~label:"least-fixpoint" ~rules:p.Datalog.Ast.rules ~schema
    ~universe:(Relalg.Database.universe db)
    ~base:(Engine.database_source db) ~neg:`Current ~init:(Idb.empty schema)
    ()

let least_fixpoint ?engine ?planner ?cache ?stats ?pool ?grain p db =
  (least_fixpoint_trace ?engine ?planner ?cache ?stats ?pool ?grain p db)
    .result
