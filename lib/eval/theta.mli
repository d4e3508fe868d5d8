(** The immediate consequence operator Theta of Section 2.

    For a program pi with IDB relations S = (S1, ..., Sm) and a database D,
    [apply pi db s] is Theta(S): the relations obtained by applying every
    rule of pi once, reading both EDB and IDB relations at their current
    values.  Note that Theta is applied "from scratch": the result contains
    exactly the derivable tuples, {e not} unioned with the input — a
    sequence S is a fixpoint of (pi, D) precisely when [apply pi db s]
    equals [s]. *)

val apply :
  ?parallel:bool ->
  ?pool:Negdl_util.Domain_pool.t ->
  ?grain:Engine.grain ->
  ?planner:Engine.planner ->
  ?cache:Planlib.Cache.t ->
  ?stats:Stats.t ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  Idb.t ->
  Idb.t
(** One application of Theta.  With [~parallel:true] the application runs
    across [pool] (default {!Negdl_util.Domain_pool.default}) exactly like
    one [`Parallel] saturation stage: whole-rule fan-out when there are at
    least as many rules as pool participants, morsel-sharded plan
    execution within each rule otherwise ([grain], default
    {!Engine.default_grain}, sizes the morsels; [`Rules] forces fan-out).
    The result is identical either way.
    @raise Invalid_argument if the program has inconsistent arities. *)

val is_fixpoint : Datalog.Ast.program -> Relalg.Database.t -> Idb.t -> bool
(** [is_fixpoint pi db s] iff Theta(s) = s. *)

val inflate : Datalog.Ast.program -> Relalg.Database.t -> Idb.t -> Idb.t
(** The inflationary operator Theta-hat: [s] union [apply pi db s]
    (Gurevich-Shelah, Section 4). *)

type iteration_outcome =
  | Reached_fixpoint of { fixpoint : Idb.t; steps : int }
      (** Theta{^ steps}(start) is a fixpoint (and the first repeat). *)
  | Entered_cycle of { entry : int; period : int; states : Idb.t list }
      (** The orbit becomes periodic without a fixpoint:
          Theta{^ entry+period} = Theta{^ entry} with [period >= 2];
          [states] lists the cycle's valuations. *)
  | Gave_up of { steps : int }
      (** [max_steps] exceeded without a repeat. *)

val iterate :
  ?max_steps:int ->
  ?parallel:bool ->
  ?pool:Negdl_util.Domain_pool.t ->
  ?grain:Engine.grain ->
  ?planner:Engine.planner ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  Idb.t ->
  iteration_outcome
(** Iterates the {e plain} (non-inflationary) operator from the given
    valuation and detects repetition — the naive "negation by fixpoint"
    attempt.  On the paper's pi_1 it converges on paths but oscillates with
    period 2 on even and odd cycles alike; the toggle rule oscillates on
    every non-empty database.  Default [max_steps] is 10000.  Repetition
    is detected through a fingerprint hashtable ({!Idb.fingerprint}, with
    collisions verified by {!Idb.equal}), so long-period orbits cost one
    lookup per step rather than a scan of the whole history; rule plans
    are compiled once and shared across the orbit. *)
