(** Well-founded semantics via the alternating fixpoint (Van Gelder).

    An extension beyond the paper's proposals, included for comparison: the
    well-founded model is the third major deterministic semantics for
    negation discussed in the literature the paper engages (negation as
    failure, stratification, fixpoints).  It is three-valued: each IDB fact
    is true, false or unknown.  On stratifiable programs it is total and
    agrees with the stratified semantics; on the toggle rule it leaves
    everything unknown, while inflationary semantics makes everything true —
    a contrast the experiment harness surfaces.

    The alternating fixpoint computes A(S) = the least fixpoint of the
    program with all negated IDB literals frozen to the valuation S, then
    iterates U := A(O), O := A(U) from U = empty; U climbs, O descends, and
    the limits are the true and the possible facts respectively. *)

type model = {
  true_facts : Idb.t;   (** Facts true in the well-founded model. *)
  possible : Idb.t;     (** Facts true or unknown (the final overestimate). *)
}

val unknown : model -> Idb.t
(** [possible] minus [true_facts]. *)

val is_total : model -> bool
(** No unknown facts. *)

val eval :
  ?engine:Saturate.engine ->
  ?planner:Engine.planner ->
  ?cache:Planlib.Cache.t ->
  ?stats:Stats.t ->
  ?pool:Negdl_util.Domain_pool.t ->
  ?grain:Engine.grain ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  model

val reduct_fixpoint :
  ?engine:Saturate.engine ->
  ?planner:Engine.planner ->
  ?cache:Planlib.Cache.t ->
  ?stats:Stats.t ->
  ?pool:Negdl_util.Domain_pool.t ->
  ?grain:Engine.grain ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  Idb.t ->
  Idb.t
(** One application of the operator A: the least fixpoint with negated IDB
    atoms read from the given fixed valuation.  Exposed for tests (A is
    anti-monotone, so A o A is monotone — properties the suite checks). *)
