module Ast = Datalog.Ast

type key = {
  krule : Ast.rule;
  kvariant : Plan.variant;
  klimit : (Ast.limit_kind * int) option;
      (* The head limit the plan was compiled under, when any: the same
         (rule, variant) is compiled both with tightening steps (normal
         evaluation) and without (DRed overdeletion derives the {e old}
         candidates, which never improve the current bound), and the two
         must not collide. *)
}

module H = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.kvariant = b.kvariant && a.klimit = b.klimit
    && Ast.compare_rule a.krule b.krule = 0

  let hash k = Hashtbl.hash (k.krule, k.kvariant, k.klimit)
end)

type t = {
  table : Plan.t H.t;
  pending : (int * int) list H.t;
      (* Overrides imported from a snapshot, keyed like [table], consumed
         (and removed) by the first fresh [`Adaptive] compile of that key —
         the restored server starts from the previous run's learned
         selectivities instead of re-learning them. *)
}

let create () = { table = H.create 32; pending = H.create 8 }

(* Consecutive feedback replans a plan may accumulate before the cache
   falls back to a plain recompile (which clears the overrides and resets
   the generation): each lookup performs at most one compilation, so a
   persistently mispredicting rule costs one recompile per stage at worst
   instead of diverging. *)
let max_generation = 2

(* Replan when any cardinality the cost model saw has drifted past the
   shared [Plan.drift_factor] — early fixpoint stages grow relations from
   empty, so the first plans are made against unrepresentative sizes.  Occurrences a
   feedback replan overrode are skipped: their recorded size is the
   observed effective cardinality, which the resolver's raw size is
   expected to disagree with. *)
let drifted (plan : Plan.t) ~sizes =
  let f = Plan.drift_factor in
  List.exists
    (fun ((occ : Plan.occurrence), arity, n0) ->
      (not (List.mem_assoc occ.Plan.index plan.Plan.overrides))
      &&
      let n = sizes occ arity in
      n > (f * n0) + Plan.drift_slack || n0 > (f * n) + Plan.drift_slack)
    plan.Plan.sizes_at_plan

let bump_compile = function
  | Some (c : Plan.counters) -> c.plan_compiles <- c.plan_compiles + 1
  | None -> ()

let bump_hit = function
  | Some (c : Plan.counters) -> c.plan_cache_hits <- c.plan_cache_hits + 1
  | None -> ()

let bump_replan = function
  | Some (c : Plan.counters) -> c.plan_replans <- c.plan_replans + 1
  | None -> ()

let find ?counters ?planner ?(variant = Plan.Full) ?label ?(limits = [])
    cache ~sizes ~universe_size rule =
  let planner =
    match planner with Some p -> p | None -> Plan.default_planner ()
  in
  let klimit = List.assoc_opt rule.Ast.head.pred limits in
  let compile () =
    bump_compile counters;
    Plan.compile ~planner ~variant ?label ~limits ~sizes ~universe_size rule
  in
  match planner with
  | `Static | `Scan -> (
    let key = { krule = rule; kvariant = variant; klimit } in
    match H.find_opt cache.table key with
    | Some plan
      when plan.Plan.planner = planner
           && (planner = `Scan || not (drifted plan ~sizes)) ->
      bump_hit counters;
      plan
    | _ ->
      let plan = compile () in
      H.replace cache.table key plan;
      plan)
  | `Adaptive -> (
    let key = { krule = rule; kvariant = variant; klimit } in
    let replace plan =
      H.replace cache.table key plan;
      plan
    in
    match H.find_opt cache.table key with
    | Some plan when plan.Plan.planner = `Adaptive -> (
      (* Feedback first: observed-selectivity divergence wins over the
         input-size check, because it carries the override that stops the
         same misprediction from recurring. *)
      match Plan.replan_hint plan with
      | Some (occ, eff) when plan.Plan.generation < max_generation ->
        bump_replan counters;
        let overrides =
          (occ, eff) :: List.remove_assoc occ plan.Plan.overrides
        in
        replace
          (Plan.compile ~planner ~variant ?label ~overrides ~limits
             ~generation:(plan.Plan.generation + 1)
             ~sizes ~universe_size rule)
      | Some _ ->
        (* Generation cap: restart adaptation from a plain compile. *)
        replace (compile ())
      | None ->
        (* No divergence.  If the plan has actually run, observation
           agreeing with the estimates supersedes the input-size proxy:
           per-step feedback already covers what size drift only
           predicts (a step whose input blew up shows up as observed
           rows past the factor).  Only a plan with no feedback yet
           falls back to the static drift check. *)
        if plan.Plan.fb.Plan.fb_runs = 0 && drifted plan ~sizes then
          replace (compile ())
        else begin
          bump_hit counters;
          plan
        end)
    | _ -> (
      (* Fresh compile.  A pending imported override set (seeded from a
         snapshot) starts the plan at generation 1 with the previous run's
         learned effective cardinalities already applied; it is consumed
         whether or not it helps, so a stale import costs one replan at
         most. *)
      match H.find_opt cache.pending { key with klimit = None } with
      | Some overrides ->
        H.remove cache.pending { key with klimit = None };
        bump_compile counters;
        replace
          (Plan.compile ~planner ~variant ?label ~overrides ~limits
             ~generation:1 ~sizes ~universe_size rule)
      | None -> replace (compile ())))

let cardinal cache = H.length cache.table

let export_overrides cache =
  H.fold
    (fun key (plan : Plan.t) acc ->
      match plan.Plan.overrides with
      | [] -> acc
      | overrides -> (key.krule, key.kvariant, overrides) :: acc)
    cache.table []

let seed_overrides cache seeds =
  List.iter
    (fun (rule, variant, overrides) ->
      if overrides <> [] then
        H.replace cache.pending
          (* Pending imports are keyed limit-blind: the snapshot format
             predates limits and overrides only concern join occurrences,
             which the tightening steps never are. *)
          { krule = rule; kvariant = variant; klimit = None }
          overrides)
    seeds

let plans cache = H.fold (fun _ plan acc -> plan :: acc) cache.table []

let program_plans cache (p : Ast.program) =
  let all = plans cache in
  let variant_rank = function Plan.Full -> -1 | Plan.Delta j -> j in
  let for_rule r =
    List.filter (fun (pl : Plan.t) -> Ast.compare_rule pl.Plan.rule r = 0) all
    |> List.sort (fun (a : Plan.t) (b : Plan.t) ->
           Int.compare (variant_rank a.Plan.variant)
             (variant_rank b.Plan.variant))
  in
  let matched = List.concat_map for_rule p.rules in
  let rest =
    List.filter
      (fun (pl : Plan.t) ->
        not
          (List.exists (fun r -> Ast.compare_rule pl.Plan.rule r = 0) p.rules))
      all
    |> List.sort (fun (a : Plan.t) (b : Plan.t) ->
           String.compare a.Plan.label b.Plan.label)
  in
  matched @ rest
