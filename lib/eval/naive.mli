(** Standard least-fixpoint semantics for positive DATALOG programs.

    For a program without negation or inequality the operator Theta is
    monotone, so a least fixpoint exists (Tarski) and is reached by
    iterating Theta from the empty valuation (Section 2).  This module is
    the textbook bottom-up evaluation; the inflationary semantics of
    Section 4 coincides with it on positive programs, which the test suite
    checks extensively. *)

val least_fixpoint :
  ?engine:Saturate.engine ->
  ?planner:Engine.planner ->
  ?cache:Planlib.Cache.t ->
  ?stats:Stats.t ->
  ?pool:Negdl_util.Domain_pool.t ->
  ?grain:Engine.grain ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  Idb.t
(** @raise Invalid_argument if the program uses negation or inequality, or
    has inconsistent arities.  Default engine: [`Seminaive]; [pool] and
    [grain] only matter under [`Parallel]. *)

val least_fixpoint_trace :
  ?engine:Saturate.engine ->
  ?planner:Engine.planner ->
  ?cache:Planlib.Cache.t ->
  ?stats:Stats.t ->
  ?pool:Negdl_util.Domain_pool.t ->
  ?grain:Engine.grain ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  Saturate.trace
(** Same, keeping the per-stage deltas. *)
