(* Cross-cutting property tests: a random DATALOG-not program generator and
   the equivalences every component pair must satisfy.

   These are the strongest correctness checks in the repository: for
   arbitrary small programs and databases,
     - the naive and semi-naive inflationary engines agree;
     - the inflationary limit is a fixpoint of the inflationary operator
       (Theta(S) subset of S) and its stage deltas partition the result;
     - the grounding's immediate consequence operator tracks Theta along
       the inflationary iteration;
     - brute-force and SAT-based fixpoint censuses agree, and every model
       returned really is a fixpoint;
     - on positive programs, naive least fixpoint = inflationary =
       stratified, and a least fixpoint always exists;
     - on stratifiable programs the well-founded model is total and equals
       the stratified semantics;
     - the stratified, inflationary and well-founded models equal those of
       a naive reference evaluator over plain sets
       (test/support/reference.ml);
     - the Proposition 1 operator translation preserves semantics. *)

module Ast = Datalog.Ast
module Idb = Evallib.Idb
module Theta = Evallib.Theta
module Ground = Evallib.Ground
module Generate = Graphlib.Generate
module Digraph = Graphlib.Digraph

(* The shared random program/database generator lives in
   test/support/gen_programs.ml so every suite draws from the same space. *)

let arb_case = Testsupport.Gen_programs.arb_case

module Reference = Testsupport.Reference

let atoms idb = Reference.atoms_of_bindings (Idb.bindings idb)

let positivise = Testsupport.Gen_programs.positivise

(* --- properties ------------------------------------------------------------ *)

let prop_engines_agree =
  QCheck.Test.make ~name:"naive and seminaive inflationary engines agree"
    ~count:150 arb_case (fun (p, db) ->
      Idb.equal
        (Evallib.Inflationary.eval ~engine:`Naive p db)
        (Evallib.Inflationary.eval ~engine:`Seminaive p db))

(* Every engine must compute the same model — the fixpoint is a semantic
   object, not an artefact of evaluation order or domain scheduling. *)
let engines = [ `Naive; `Seminaive; `Parallel ]

let all_modes_agree eval equal reference =
  List.for_all (fun engine -> equal reference (eval ~engine)) engines

let prop_engine_matrix_inflationary =
  QCheck.Test.make
    ~name:"all engines agree (inflationary fixpoint)" ~count:60 arb_case
    (fun (p, db) ->
      let reference = Evallib.Inflationary.eval p db in
      all_modes_agree
        (fun ~engine -> Evallib.Inflationary.eval ~engine p db)
        Idb.equal reference)

let prop_engine_matrix_positive =
  QCheck.Test.make ~name:"all engines agree (positive lfp)" ~count:60
    arb_case (fun (p, db) ->
      let p = positivise p in
      let reference = Evallib.Naive.least_fixpoint p db in
      all_modes_agree
        (fun ~engine -> Evallib.Naive.least_fixpoint ~engine p db)
        Idb.equal reference)

let prop_engine_matrix_semantics =
  QCheck.Test.make
    ~name:"all engines agree (stratified + well-founded)" ~count:40 arb_case
    (fun (p, db) ->
      QCheck.assume (Datalog.Stratify.is_stratified p);
      let strat_ref = Evallib.Stratified.eval_exn p db in
      let wf_equal (a : Evallib.Wellfounded.model) b =
        Idb.equal a.Evallib.Wellfounded.true_facts
          b.Evallib.Wellfounded.true_facts
        && Idb.equal a.Evallib.Wellfounded.possible
             b.Evallib.Wellfounded.possible
      in
      let wf_ref = Evallib.Wellfounded.eval p db in
      all_modes_agree
        (fun ~engine -> Evallib.Stratified.eval_exn ~engine p db)
        Idb.equal strat_ref
      && all_modes_agree
           (fun ~engine -> Evallib.Wellfounded.eval ~engine p db)
           wf_equal wf_ref)

(* The morsel grain is pure scheduling: whatever the shard size (one tuple,
   a prime that straddles shard boundaries, the auto heuristic) or the
   rule-level fallback, the [`Parallel] engine must compute the reference
   model — across planners, and for every semantics built on
   saturation. *)
let grains : Evallib.Engine.grain list = [ `Fixed 1; `Fixed 7; `Auto; `Rules ]

let planners : Evallib.Engine.planner list = [ `Static; `Scan; `Adaptive ]

(* One pool shared across all iterations: spawning domains per case would
   dominate the property's runtime. *)
let shared_pool = lazy (Negdl_util.Domain_pool.create ~size:2 ())

let prop_grain_matrix =
  QCheck.Test.make
    ~name:"parallel engine agrees across grain x planner (all semantics)"
    ~count:30 arb_case (fun (p, db) ->
      let pool = Lazy.force shared_pool in
      let agree eval equal reference =
        List.for_all
          (fun grain ->
            List.for_all
              (fun planner -> equal reference (eval ~grain ~planner))
              planners)
          grains
      in
      let infl_ref = Evallib.Inflationary.eval p db in
      let pos = positivise p in
      let lfp_ref = Evallib.Naive.least_fixpoint pos db in
      agree
        (fun ~grain ~planner ->
          Evallib.Inflationary.eval ~engine:`Parallel ~pool ~grain ~planner p
            db)
        Idb.equal infl_ref
      && agree
           (fun ~grain ~planner ->
             Evallib.Naive.least_fixpoint ~engine:`Parallel ~pool ~grain
               ~planner pos db)
           Idb.equal lfp_ref
      &&
      if not (Datalog.Stratify.is_stratified p) then true
      else
        let strat_ref = Evallib.Stratified.eval_exn p db in
        let wf_ref = Evallib.Wellfounded.eval p db in
        let wf_equal (a : Evallib.Wellfounded.model) b =
          Idb.equal a.Evallib.Wellfounded.true_facts
            b.Evallib.Wellfounded.true_facts
          && Idb.equal a.Evallib.Wellfounded.possible
               b.Evallib.Wellfounded.possible
        in
        agree
          (fun ~grain ~planner ->
            Evallib.Stratified.eval_exn ~engine:`Parallel ~pool ~grain
              ~planner p db)
          Idb.equal strat_ref
        && agree
             (fun ~grain ~planner ->
               Evallib.Wellfounded.eval ~engine:`Parallel ~pool ~grain
                 ~planner p db)
             wf_equal wf_ref)

(* The partitioned packed store, under the sequential and the parallel
   engine at the auto and per-rule grains, must compute the stratified
   model of the naive reference evaluator — which shares no code with the
   store, the planner or the engines — and agree with it on which programs
   are stratifiable. *)
let stratified_agrees p db result =
  match (Reference.stratified p db, result) with
  | None, Error _ -> true
  | Some want, Ok got -> Reference.Atoms.equal want (atoms got)
  | _ -> false

let prop_partitioned_store_reference =
  QCheck.Test.make
    ~name:"partitioned hashed store matches the reference evaluator"
    ~count:40 arb_case (fun (p, db) ->
      let pool = Lazy.force shared_pool in
      stratified_agrees p db (Evallib.Stratified.eval ~engine:`Seminaive p db)
      && List.for_all
           (fun grain ->
             stratified_agrees p db
               (Evallib.Stratified.eval ~engine:`Parallel ~pool ~grain p db))
           [ `Auto; `Rules ])

(* The default configuration against the reference evaluator, one property
   per semantics. *)
let prop_reference_stratified =
  QCheck.Test.make ~name:"stratified model = reference evaluator" ~count:150
    arb_case (fun (p, db) ->
      stratified_agrees p db (Evallib.Stratified.eval p db))

let prop_reference_inflationary =
  QCheck.Test.make ~name:"inflationary model = reference evaluator" ~count:150
    arb_case (fun (p, db) ->
      Reference.Atoms.equal (Reference.inflationary p db)
        (atoms (Evallib.Inflationary.eval p db)))

let prop_reference_well_founded =
  QCheck.Test.make ~name:"well-founded model = reference evaluator" ~count:150
    arb_case (fun (p, db) ->
      let want_true, want_possible = Reference.well_founded p db in
      let m = Evallib.Wellfounded.eval p db in
      Reference.Atoms.equal want_true (atoms m.Evallib.Wellfounded.true_facts)
      && Reference.Atoms.equal want_possible
           (atoms m.Evallib.Wellfounded.possible))

let prop_limit_is_inflationary_fixpoint =
  QCheck.Test.make ~name:"Theta(limit) is contained in the limit" ~count:150
    arb_case (fun (p, db) ->
      let limit = Evallib.Inflationary.eval p db in
      Idb.subset (Theta.apply p db limit) limit)

let prop_deltas_partition =
  QCheck.Test.make ~name:"stage deltas are disjoint and union to the limit"
    ~count:100 arb_case (fun (p, db) ->
      let trace = Evallib.Inflationary.eval_trace p db in
      let union =
        List.fold_left Idb.union (Idb.of_program p) trace.Evallib.Saturate.deltas
      in
      let rec disjoint = function
        | [] -> true
        | d :: rest ->
          List.for_all (fun d' -> Idb.is_empty (Idb.inter d d')) rest
          && disjoint rest
      in
      Idb.equal union trace.Evallib.Saturate.result
      && disjoint trace.Evallib.Saturate.deltas)

let prop_ground_tracks_theta =
  QCheck.Test.make ~name:"ground apply = Theta along the iteration" ~count:100
    arb_case (fun (p, db) ->
      let g = Ground.ground p db in
      let rec walk s n =
        n = 0
        ||
        let via_theta = Theta.apply p db s in
        Idb.equal via_theta (Ground.apply g s)
        && walk (Idb.union s via_theta) (n - 1)
      in
      walk (Idb.of_program p) 3)

let prop_census_agrees =
  QCheck.Test.make ~name:"brute and SAT fixpoint censuses agree" ~count:60
    arb_case (fun (p, db) ->
      let g = Ground.ground p db in
      QCheck.assume (Ground.atom_count g <= 14);
      let solver = Fixpointlib.Solve.prepare p db in
      Fixpointlib.Brute.count g = Fixpointlib.Solve.count solver)

let prop_solve_models_are_fixpoints =
  QCheck.Test.make ~name:"every enumerated fixpoint satisfies Theta(S)=S"
    ~count:60 arb_case (fun (p, db) ->
      let solver = Fixpointlib.Solve.prepare p db in
      List.for_all
        (fun fp -> Theta.is_fixpoint p db fp)
        (Fixpointlib.Solve.enumerate ~limit:8 solver))

let prop_least_is_least =
  QCheck.Test.make ~name:"reported least fixpoint is below every fixpoint"
    ~count:60 arb_case (fun (p, db) ->
      let solver = Fixpointlib.Solve.prepare p db in
      match Fixpointlib.Solve.least solver with
      | None -> true
      | Some least ->
        Theta.is_fixpoint p db least
        && List.for_all
             (fun fp -> Idb.subset least fp)
             (Fixpointlib.Solve.enumerate ~limit:16 solver))

let prop_positive_semantics_coincide =
  QCheck.Test.make ~name:"positive: naive lfp = inflationary = stratified"
    ~count:100 arb_case (fun (p, db) ->
      let p = positivise p in
      let lfp = Evallib.Naive.least_fixpoint p db in
      Idb.equal lfp (Evallib.Inflationary.eval p db)
      && Idb.equal lfp (Evallib.Stratified.eval_exn p db))

let prop_positive_has_least_fixpoint =
  QCheck.Test.make ~name:"positive programs have a least fixpoint = naive lfp"
    ~count:40 arb_case (fun (p, db) ->
      let p = positivise p in
      let g = Ground.ground p db in
      QCheck.assume (Ground.atom_count g <= 12);
      match Fixpointlib.Solve.least (Fixpointlib.Solve.prepare p db) with
      | None -> false
      | Some least -> Idb.equal least (Evallib.Naive.least_fixpoint p db))

let prop_wellfounded_on_stratified =
  QCheck.Test.make ~name:"stratifiable: well-founded total and = stratified"
    ~count:100 arb_case (fun (p, db) ->
      QCheck.assume (Datalog.Stratify.is_stratified p);
      let m = Evallib.Wellfounded.eval p db in
      Evallib.Wellfounded.is_total m
      && Idb.equal m.Evallib.Wellfounded.true_facts
           (Evallib.Stratified.eval_exn p db))

let prop_wellfounded_bounds =
  QCheck.Test.make ~name:"well-founded: true facts within possible facts"
    ~count:100 arb_case (fun (p, db) ->
      let m = Evallib.Wellfounded.eval p db in
      Idb.subset m.Evallib.Wellfounded.true_facts m.Evallib.Wellfounded.possible)

let prop_prop1_translation =
  QCheck.Test.make ~name:"Prop 1 operator translation preserves semantics"
    ~count:60 arb_case (fun (p, db) -> Reductions.Prop1.agree p db)

let prop_wellfounded_algorithms_agree =
  QCheck.Test.make
    ~name:"alternating fixpoint = unfounded sets (well-founded model)"
    ~count:120 arb_case (fun (p, db) ->
      let via_alternation = Evallib.Wellfounded.eval p db in
      let via_unfounded = Evallib.Unfounded.eval p db in
      Idb.equal via_alternation.Evallib.Wellfounded.true_facts
        via_unfounded.Evallib.Wellfounded.true_facts
      && Idb.equal
           (Evallib.Wellfounded.unknown via_alternation)
           (Evallib.Wellfounded.unknown via_unfounded))

let prop_kripke_kleene_within_wellfounded =
  QCheck.Test.make ~name:"Kripke-Kleene is at most as decided as well-founded"
    ~count:100 arb_case (fun (p, db) ->
      let kk = Evallib.Fitting.eval p db in
      let wf = Evallib.Wellfounded.eval p db in
      Idb.subset kk.Evallib.Fitting.true_facts wf.Evallib.Wellfounded.true_facts
      && Idb.subset wf.Evallib.Wellfounded.possible kk.Evallib.Fitting.possible)

let prop_indexed_equals_scan =
  QCheck.Test.make ~name:"indexed joins = full-scan joins" ~count:100 arb_case
    (fun (p, db) ->
      match Ast.idb_schema p with
      | Error _ -> true
      | Ok schema ->
        let universe = Relalg.Database.universe db in
        (* One Theta application against the inflationary limit: through
           the static planner's index probes, through the scan planner
           (textual order, no probes), and by the reference evaluator. *)
        let s = Evallib.Inflationary.eval p db in
        let resolver =
          Evallib.Engine.uniform (Evallib.Engine.layered db s)
        in
        let apply planner =
          Evallib.Engine.eval_rules ~planner ~universe ~resolver ~schema
            p.Ast.rules
        in
        let indexed = apply `Static in
        Idb.equal indexed (apply `Scan)
        && Reference.Atoms.equal (atoms indexed)
             (Reference.theta p db (atoms s)))

(* Limit predicates: the plan-path tightening evaluation must agree with
   a brute-force reference that materializes every cost tuple (same rules,
   no limit declarations) and then keeps only the dominant tuple of each
   group.  Because the generator's guards match the limit kind's polarity
   (min with <=, max with >=), the strata above the limit predicate are
   insensitive to the dominant filter, so the whole models must coincide —
   across engines and static/adaptive planners. *)
let prop_limit_differential =
  QCheck.Test.make ~name:"limit tightening = dominant filter of pair model"
    ~count:60 Testsupport.Gen_programs.arb_limit_case
    (fun (limit_p, pairs_p, db) ->
      let pairs = Evallib.Stratified.eval_exn pairs_p db in
      let reference =
        List.fold_left
          (fun idb (l : Ast.limit) ->
            let kind =
              match l.Ast.kind with Ast.Min -> `Min | Ast.Max -> `Max
            in
            Idb.set idb l.Ast.limit_pred
              (Relalg.Relation.dominant ~kind ~col:l.Ast.column
                 (Idb.get pairs l.Ast.limit_pred)))
          pairs limit_p.Ast.limits
      in
      List.for_all
        (fun engine ->
          List.for_all
            (fun planner ->
              Idb.equal reference
                (Evallib.Stratified.eval_exn ~engine ~planner limit_p db))
            [ `Static; `Adaptive ])
        [ `Seminaive; `Parallel ])

let prop_pretty_roundtrip =
  QCheck.Test.make ~name:"pretty-printed programs re-parse identically"
    ~count:150 arb_case (fun (p, _db) ->
      Datalog.Parser.parse_program_exn (Datalog.Pretty.program_to_string p) = p)

(* Byte fuzzing of the three text parsers: whatever the input — random
   bytes, or a valid program, fact file or DIMACS instance truncated or
   mutated — each returns [Ok] or [Error] and never raises, and a DIMACS
   [Ok] never declares more variables than the ceiling. *)
let parser_seeds =
  [
    "dist min 2.\n\
     dist(X, 0) :- source(X).\n\
     dist(Y, S) :- dist(X, D), edge(X, Y, W), S = D + W.\n\
     near(X) :- dist(X, D), D <= 2.\n\
     far(X) :- node(X), !near(X).\n";
    "% the paper's pi_1\nt(X) :- e(Y, X), !t(Y).\nw(X) :- e(X, Y), X != Y.\n";
    "source(a).\nedge(a, b, 1). edge(b, c, 1).\nnode(a). node(\"b c\").\n";
    "c comment\np cnf 3 3\n1 2 0\n-1 3 0\n-2 0\n";
    "p cnf 4611686018427387903 1\n1 0\n";
  ]

let gen_parser_input =
  let open QCheck.Gen in
  let mutate s =
    let n = String.length s in
    let* i = int_bound (max 0 n) in
    let* c = char in
    oneof
      [
        return (String.sub s 0 i);
        return
          (if i < n then String.mapi (fun j x -> if j = i then c else x) s
           else s);
        return (String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i));
        (let* k = int_bound 8 in
         let k = min k (n - i) in
         return (String.sub s 0 i ^ String.sub s (i + k) (n - i - k)));
      ]
  in
  let rec mutations k s =
    if k = 0 then return s else mutate s >>= mutations (k - 1)
  in
  oneof
    [
      string_size ~gen:char (int_bound 200);
      (let* seed = oneofl parser_seeds in
       let* k = int_range 1 4 in
       mutations k seed);
    ]

let prop_parsers_total =
  QCheck.Test.make ~name:"text parsers answer Ok or Error on any bytes"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_parser_input)
    (fun text ->
      let total parse = match parse text with Ok _ | Error _ -> true in
      total Negdl.parse_program
      && total Negdl.parse_database
      &&
      match Satlib.Dimacs.parse text with
      | Ok cnf -> Satlib.Cnf.num_vars cnf <= Satlib.Dimacs.max_vars
      | Error _ -> true)

let () =
  Alcotest.run "properties"
    [
      ( "random-programs",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_engines_agree;
            prop_engine_matrix_inflationary;
            prop_engine_matrix_positive;
            prop_engine_matrix_semantics;
            prop_grain_matrix;
            prop_partitioned_store_reference;
            prop_limit_is_inflationary_fixpoint;
            prop_deltas_partition;
            prop_ground_tracks_theta;
            prop_census_agrees;
            prop_solve_models_are_fixpoints;
            prop_least_is_least;
            prop_positive_semantics_coincide;
            prop_positive_has_least_fixpoint;
            prop_wellfounded_on_stratified;
            prop_wellfounded_bounds;
            prop_prop1_translation;
            prop_wellfounded_algorithms_agree;
            prop_kripke_kleene_within_wellfounded;
            prop_indexed_equals_scan;
            prop_limit_differential;
            prop_pretty_roundtrip;
            prop_reference_stratified;
            prop_reference_inflationary;
            prop_reference_well_founded;
            prop_parsers_total;
          ] );
    ]
