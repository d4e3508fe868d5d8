(** Inflationary DATALOG — the semantics the paper proposes (Section 4).

    The inflationary semantics of a program pi on a database D iterates
    Theta-hat(S) = S union Theta(S) from the empty valuation; the sequence
    is increasing, reaches its limit Theta-infinity within |A|{^ k} stages,
    and is therefore computable in polynomial time in the size of D.  It is
    total on {e all} DATALOG-not programs, and on positive programs it
    coincides with the least-fixpoint semantics. *)

val eval :
  ?engine:Saturate.engine ->
  ?planner:Engine.planner ->
  ?cache:Planlib.Cache.t ->
  ?stats:Stats.t ->
  ?pool:Negdl_util.Domain_pool.t ->
  ?grain:Engine.grain ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  Idb.t
(** Theta-infinity for all IDB predicates.  Default engine: [`Seminaive]
    (see {!Saturate} for why the differential cut remains sound under
    negation, and for the [`Parallel] fan-out; [pool] and [grain] only
    matter there). *)

val eval_trace :
  ?engine:Saturate.engine ->
  ?planner:Engine.planner ->
  ?cache:Planlib.Cache.t ->
  ?stats:Stats.t ->
  ?pool:Negdl_util.Domain_pool.t ->
  ?grain:Engine.grain ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  Saturate.trace
(** Keeps the per-stage deltas; the stage at which a tuple enters is the
    key to the distance-query argument of Proposition 2. *)

val carrier :
  ?engine:Saturate.engine ->
  Datalog.Ast.program ->
  carrier:string ->
  Relalg.Database.t ->
  Relalg.Relation.t
(** The relation computed for the distinguished carrier (goal) predicate.
    @raise Invalid_argument if [carrier] is not an IDB predicate. *)
