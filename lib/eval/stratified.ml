module Schema = Relalg.Schema

type error =
  | Not_stratifiable of { offending : string * string }
  | Not_limit_stratifiable of { pred : string; rule : Datalog.Ast.rule }

let error_to_string = function
  | Not_stratifiable { offending = p, q } ->
    Printf.sprintf
      "not stratifiable: %s depends negatively on %s inside a recursive \
       component"
      p q
  | Not_limit_stratifiable { pred; rule } ->
    Datalog.Stratify.limit_error_to_string ~pred ~rule

let idb_schema_exn p =
  match Datalog.Ast.idb_schema p with
  | Ok s -> s
  | Error msg -> invalid_arg ("Stratified: " ^ msg)

let eval ?engine ?planner ?cache ?stats ?pool ?grain p db =
  match Datalog.Stratify.stratify p with
  | Datalog.Stratify.Not_stratifiable { offending } ->
    Error (Not_stratifiable { offending })
  | Datalog.Stratify.Not_limit_stratifiable { pred; rule } ->
    Error (Not_limit_stratifiable { pred; rule })
  | Datalog.Stratify.Stratified strat ->
    let full_schema = idb_schema_exn p in
    (* One structurally-keyed cache across all strata: plans for a rule are
       compiled once even though each stratum passes its own rule list. *)
    let cache =
      match cache with Some c -> c | None -> Planlib.Cache.create ()
    in
    let universe = Relalg.Database.universe db in
    let limits =
      List.map
        (fun (l : Datalog.Ast.limit) -> (l.limit_pred, (l.kind, l.column)))
        p.Datalog.Ast.limits
    in
    let stratum_count = List.length strat.strata in
    let rec layer s accumulated =
      if s = stratum_count then accumulated
      else begin
        let rules = Datalog.Stratify.rules_of_stratum p strat s in
        let preds = List.nth strat.strata s in
        let schema =
          List.fold_left
            (fun acc name ->
              Schema.add name (Schema.arity_exn name full_schema) acc)
            Schema.empty preds
        in
        (* Lower strata are frozen into the base source. *)
        let base = Engine.layered db accumulated in
        let trace =
          Saturate.run ?engine ?planner ~cache ~limits
            ?stats ?pool ?grain ~label:(Printf.sprintf "stratum %d" s)
            ~rules ~schema ~universe ~base ~neg:`Current
            ~init:(Idb.empty schema) ()
        in
        let accumulated =
          List.fold_left
            (fun acc name -> Idb.set acc name (Idb.get trace.result name))
            accumulated preds
        in
        layer (s + 1) accumulated
      end
    in
    Ok (layer 0 (Idb.empty full_schema))

let eval_exn ?engine ?planner ?cache ?stats ?pool ?grain
    p db =
  match
    eval ?engine ?planner ?cache ?stats ?pool ?grain p db
  with
  | Ok idb -> idb
  | Error e -> invalid_arg ("Stratified.eval: " ^ error_to_string e)
