(** A naive reference evaluator for the random programs of
    {!Gen_programs}, sharing no code with the evaluator under test.

    Ground atoms are [(predicate, argument names)] pairs held in a Stdlib
    [Set]; a rule is applied by enumerating every assignment of universe
    elements to its variables (the paper's reading: head-only variables and
    variables of negated literals range over the whole universe).  The
    input database is read once, into plain strings; nothing in [Plan],
    [Store], [Engine], [Saturate], [Idb] or the {!Relalg.Relation} algebra
    is called.  Only [Pos], [Neg], [Eq] and [Neq] literals are supported —
    the program space {!Gen_programs.arb_case} draws from. *)

module Atoms : Set.S with type elt = string * string list

val stratified : Datalog.Ast.program -> Relalg.Database.t -> Atoms.t option
(** The perfect model's IDB atoms, stratum by stratum; [None] when some
    predicate depends negatively on itself through a cycle (not
    stratifiable). *)

val inflationary : Datalog.Ast.program -> Relalg.Database.t -> Atoms.t
(** The IDB atoms of the inflationary limit [S_{i+1} = S_i ∪ Θ(S_i)]. *)

val well_founded :
  Datalog.Ast.program -> Relalg.Database.t -> Atoms.t * Atoms.t
(** [(true, possible)]: the well-founded model by Van Gelder's alternating
    fixpoint, as IDB atoms that are true and that are true or
    undefined. *)

val atoms_of_bindings : (string * Relalg.Relation.t) list -> Atoms.t
(** The ground atoms of an evaluator's result, for comparison. *)
