(** Goal-directed query answering via magic sets.

    [answer p db query] computes exactly the tuples of the query predicate
    matching the query's constants, by rewriting the program with
    [Datalog.Magic] and running the semi-naive least-fixpoint evaluation on
    the rewritten program — touching only the query-relevant part of the
    database.  Equivalent to (but usually much cheaper than) evaluating the
    whole program and selecting. *)

val select :
  Relalg.Relation.t ->
  query:Datalog.Ast.atom ->
  (Relalg.Relation.t, string) result
(** [select rel ~query] keeps the tuples of [rel] matching the query atom:
    constants must coincide positionally and repeated variables must bind
    consistently ([s(X, X)] selects the diagonal).  [Error] when the query
    atom's arity disagrees with the relation's — never a bare
    [Invalid_argument].  This is the snapshot-side filter the serve layer
    runs against an already-materialised model; {!answer} applies it to the
    magic-sets answer relation. *)

val answer :
  ?engine:Saturate.engine ->
  ?stats:Stats.t ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  query:Datalog.Ast.atom ->
  (Relalg.Relation.t, string) result
(** Full tuples of the query predicate (all positions, bound ones
    included), restricted to the query's constants.  Errors on non-positive
    programs and malformed queries (see [Datalog.Magic.rewrite]). *)

val answer_exn :
  ?engine:Saturate.engine ->
  ?stats:Stats.t ->
  Datalog.Ast.program ->
  Relalg.Database.t ->
  query:Datalog.Ast.atom ->
  Relalg.Relation.t

val holds :
  Datalog.Ast.program ->
  Relalg.Database.t ->
  query:Datalog.Ast.atom ->
  (bool, string) result
(** For a fully ground query atom: is it in the least fixpoint? *)
