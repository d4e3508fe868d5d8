(** Stratified semantics (Chandra-Harel; Apt-Blair-Walker).

    Each stratum is evaluated to its least fixpoint in order, with negation
    allowed only on already-finished lower strata (and EDB relations).
    Defined only for stratifiable programs — the paper's Section 4 uses the
    6-rule distance program to show that, where both are defined, stratified
    and inflationary semantics genuinely differ. *)

type error =
  | Not_stratifiable of { offending : string * string }
  | Not_limit_stratifiable of { pred : string; rule : Datalog.Ast.rule }
      (** The limit-stratification side condition fails; see
          {!Datalog.Stratify.result}. *)

val error_to_string : error -> string

val eval :
  ?engine:Saturate.engine ->
  ?planner:Engine.planner ->
  ?cache:Planlib.Cache.t ->
  ?stats:Stats.t ->
  ?pool:Negdl_util.Domain_pool.t ->
  ?grain:Engine.grain ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  (Idb.t, error) result
(** [stats], when given, records one wall-time stage per stratum.  [pool]
    and [grain] are passed through to {!Saturate.run} and only matter under
    [`Parallel]. *)

val eval_exn :
  ?engine:Saturate.engine ->
  ?planner:Engine.planner ->
  ?cache:Planlib.Cache.t ->
  ?stats:Stats.t ->
  ?pool:Negdl_util.Domain_pool.t ->
  ?grain:Engine.grain ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  Idb.t
(** @raise Invalid_argument when the program is not stratifiable. *)
