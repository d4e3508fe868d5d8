(** DIMACS CNF reading and writing.

    The interchange format used by SAT solvers; provided so the CLI can load
    external instances and so instances generated here can be checked with
    third-party tools. *)

val to_string : Cnf.t -> string

val pp : Format.formatter -> Cnf.t -> unit

val max_vars : int
(** The largest variable count a header may declare (2{^16}). *)

val parse : string -> (Cnf.t, string) result
(** Accepts comment lines [c ...], the header [p cnf <vars> <clauses>] and
    zero-terminated clauses, possibly spanning lines.  The instance is
    validated against its header: [vars] must not exceed {!max_vars},
    every literal must name a variable in [1..vars] and the number of
    clauses found must equal the declared count; violations produce a
    precise [Error]. *)

val parse_exn : string -> Cnf.t
(** @raise Failure on malformed input. *)
