(* One benchmark process: generate a workload's inputs from the seed, set
   up, run the measured phase once, check the outputs against independent
   oracles, and print one JSON line of raw measurements.  [run.py] starts a
   fresh process per repetition (the tuple store and the symbol table are
   global and append-only, so a second repetition in one process would run
   against a warm store) and aggregates the lines.

   Every workload is a sequence of the same kinds of operation, so that
   every end-to-end metric has a value on every workload:
   - an update produces a model from new input: an evaluation, the
     grounding and encoding of a fixpoint instance, a serve insert/delete;
   - a query reads answers off a model: a point selection, a fixpoint
     question (find, count, least), a serve query line;
   - an instance is one update with the queries that follow it;
   - snapshot round trips checkpoint and restore the models: once after
     the evaluation, after each fixpoint instance, every 100 serve turns.

   Usage: bench.exe --workload NAME --seed N [--trace 0|1] [--trace-out FILE] *)

open Negdl

let span = Trace.span
let now = Trace.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- result accumulation ------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let errors = ref []

(* One operation: [outcome] is [None] when it succeeded and its oracle
   agreed, [Some reason] otherwise. *)
let operation outcome =
  incr attempted;
  match outcome with
  | None -> ()
  | Some reason ->
    incr failed;
    if List.length !errors < 5 then errors := reason :: !errors

(* Oracle checks wait until the measured phase is over. *)
let pending = ref []
let defer check = pending := check :: !pending

let run_checks () =
  List.iter (fun check -> operation (check ())) (List.rev !pending);
  pending := []

let det : (string * float) list ref = ref []
let layers : (string * float) list ref = ref []
let put cell name v = cell := (name, v) :: List.remove_assoc name !cell
let puti cell name v = put cell name (float_of_int v)

(* Layers a workload does not use report zero work. *)
let () =
  List.iter
    (fun name -> put layers name 0.0)
    [
      "fixpoint.ground_atoms"; "fixpoint.ground_rules"; "fixpoint.cnf_clauses";
      "sat.fixpoints_counted"; "serve.overdeleted"; "serve.rederived";
      "serve.rederive_ratio"; "serve.query_cache_hit_ratio";
      "serve.dred_full_applications";
    ]

let setup_s = ref 0.0
let wall_s = ref 0.0
let updates = ref []
let queries = ref []
let instances = ref []
let checkpoint_s = ref 0.0
let restore_s = ref 0.0
let snap_bytes = ref 0
let snap_tuples = ref 0

let sampled cell f =
  let r, dt = timed f in
  cell := dt :: !cell;
  r

let set_up f =
  let r, dt = timed (fun () -> span "setup" f) in
  setup_s := !setup_s +. dt;
  r

let measured f =
  let r, dt = timed (fun () -> span "run" f) in
  wall_s := !wall_s +. dt;
  r

let update f = sampled updates f
let query f = sampled queries f
let instance f = sampled instances f

let percentile q samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- run configuration ------------------------------------------------------ *)

(* Pinned here rather than inherited from the library, so both commits of
   a comparison run the same engine, indexing, planner and storage.  The
   planner and storage are global defaults, set in [main]. *)
let engine : Saturate.engine = `Seminaive
let indexing : Engine.indexing = `Cached
let planner : Plan.planner = `Static
let storage : Relation.storage = `Hashed

(* --- inputs --------------------------------------------------------------- *)

(* [m] distinct random edges u -> v, u <> v, over vertices 0 .. n-1, none
   of them joining two vertices [forbid] marks. *)
let random_edges ?(forbid = fun _ -> false) ?(init = [||]) rng ~n ~m =
  let seen = Hashtbl.create m in
  Array.iter (fun uv -> Hashtbl.replace seen uv ()) init;
  let out = ref (List.rev (Array.to_list init)) in
  while Hashtbl.length seen < m do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v && (not (forbid u && forbid v)) && not (Hashtbl.mem seen (u, v))
    then begin
      Hashtbl.add seen (u, v) ();
      out := (u, v) :: !out
    end
  done;
  Array.of_list (List.rev !out)

(* Draws until [accept] holds.  Random digraphs of one size still differ
   widely in how much work they make (closure size, game depth); drawing
   inside a narrow band keeps runs at different seeds comparable.  The
   draw sequence is a function of the seed. *)
let rec draw gen accept =
  let x = gen () in
  if accept x then x else draw gen accept

let edge_fact (u, v) =
  Printf.sprintf "e(%s, %s)." (Oracle.vertex_name u) (Oracle.vertex_name v)

let facts_text ?(extra = []) ~n edges =
  let b = Buffer.create (32 * (n + Array.length edges)) in
  for i = 0 to n - 1 do
    Buffer.add_string b (if i mod 64 = 0 then "#universe" else " ");
    Buffer.add_string b (Oracle.vertex_name i);
    if i mod 64 = 63 || i = n - 1 then Buffer.add_string b ".\n"
  done;
  Array.iter
    (fun uv ->
      Buffer.add_string b (edge_fact uv);
      Buffer.add_char b '\n')
    edges;
  List.iter
    (fun f ->
      Buffer.add_string b f;
      Buffer.add_char b '\n')
    extra;
  Buffer.contents b

(* --- set-up: the program front end and the fact loader -------------------- *)

exception Setup_failed of string

let front text =
  let program =
    match span "datalog.parse" (fun () -> Parser.parse_program text) with
    | Ok p -> p
    | Error e -> raise (Setup_failed ("parse: " ^ e))
  in
  (match span "datalog.check" (fun () -> Check.validate program) with
  | Ok _ -> ()
  | Error errs ->
    raise
      (Setup_failed (String.concat "; " (List.map Check.error_to_string errs))));
  (* Only the stratified workloads need strata; the others still pay for
     the analysis, as every evaluation entry point does. *)
  ignore (span "datalog.stratify" (fun () -> Stratify.stratify program));
  program

let facts_loaded = ref 0

let load text =
  match span "relalg.load" (fun () -> Database.parse text) with
  | Ok db ->
    List.iter
      (fun (_, r) -> facts_loaded := !facts_loaded + Relation.cardinal r)
      (Database.relations db);
    db
  | Error e -> raise (Setup_failed ("facts: " ^ e))

let get model pred = try Idb.get model pred with Not_found -> Relation.empty 1

(* --- shared operations ----------------------------------------------------- *)

(* A point query [pred(c, ...)] with the remaining positions free, answered
   by selection over a materialised relation. *)
let point_query rel pred c =
  let args =
    Ast.Const c :: List.init (Relation.arity rel - 1) (fun i -> Ast.Var (Printf.sprintf "Y%d" i))
  in
  let answer =
    query (fun () -> span "eval.query" (fun () -> Query.select rel ~query:{ Ast.pred; args }))
  in
  defer (fun () ->
      match answer with
      | Error e -> Some ("query: " ^ e)
      | Ok a ->
        if Relation.equal a (Relation.filter (fun t -> Symbol.equal (Tuple.get t 0) c) rel)
        then None
        else Some (Printf.sprintf "query %s(%s, ..) differs from a selection" pred (Symbol.name c)))

let idb_of program bindings =
  List.fold_left (fun idb (name, rel) -> Idb.set idb name rel) (Idb.of_program program) bindings

(* Checkpoint (capture + encode) and restore (decode + restore) of a model;
   the restored model must equal the one captured. *)
let round_trip ?unknown ~program ~semantics ~db model =
  let unknown_bindings = Option.map Idb.bindings unknown in
  let captured, ck =
    timed (fun () ->
        match
          span "snapshot.capture" (fun () ->
              Snapshot.capture ?unknown:unknown_bindings ~program ~semantics ~db
                (Idb.bindings model))
        with
        | Error e -> Error e
        | Ok image -> Ok (span "snapshot.encode" (fun () -> Snapshot.encode image)))
  in
  checkpoint_s := !checkpoint_s +. ck;
  let restored =
    match captured with
    | Error e -> Error e
    | Ok encoded ->
      snap_bytes := !snap_bytes + String.length encoded;
      let r, rs =
        timed (fun () ->
            match span "snapshot.decode" (fun () -> Snapshot.decode_string encoded) with
            | Error e -> Error e
            | Ok image ->
              List.iter
                (fun (r : Snapshot.relation_image) ->
                  snap_tuples := !snap_tuples + r.row_count)
                image.relations;
              span "snapshot.restore" (fun () -> Snapshot.restore image))
      in
      restore_s := !restore_s +. rs;
      r
  in
  defer (fun () ->
      match restored with
      | Error e -> Some ("snapshot: " ^ Snapshot.error_to_string e)
      | Ok r ->
        let same_unknown =
          match unknown with
          | None -> r.r_unknown = []
          | Some u -> Idb.equal (idb_of program r.r_unknown) u
        in
        if Idb.equal (idb_of program r.r_idb) model && same_unknown then None
        else Some "restored snapshot differs from the captured model")

let random_vertices rng ~n k = List.init k (fun _ -> Symbol.intern (Oracle.vertex_name (Prng.int rng n)))

(* --- closure_strat -------------------------------------------------------- *)

let closure_program =
  "r(X, Y) :- e(X, Y).\n\
   r(X, Y) :- r(X, Z), e(Z, Y).\n\
   reach(Y) :- r(X, Y).\n\
   src(X) :- e(X, Y), !reach(X).\n\
   far(X, Y) :- src(X), r(X, Y), !e(X, Y).\n"

let closure_strat ~rng ~stats =
  let n = 800 in
  let edges =
    draw
      (fun () -> random_edges rng ~n ~m:1198)
      (fun edges ->
        let c = Oracle.closure_size ~n ~edges in
        c >= 210_000 && c <= 230_000)
  in
  let text = facts_text ~n edges in
  let points = random_vertices rng ~n 8 in
  let program, db =
    set_up (fun () ->
        let program = front closure_program in
        (program, load text))
  in
  measured (fun () ->
      let result =
        instance (fun () ->
            match
              update (fun () ->
                  span "eval.run" (fun () -> Negdl.run ~engine ~indexing ?stats Semantics_stratified program db))
            with
            | Error e -> Error e
            | Ok res ->
              List.iter (point_query (get res.facts "r") "r") points;
              Ok res.facts)
      in
      match result with
      | Error e -> operation (Some ("eval: " ^ e))
      | Ok facts ->
        round_trip ~program ~semantics:"stratified" ~db facts;
        puti det "model.tuples" (Idb.total_cardinal facts);
        defer (fun () -> Oracle.check_closure ~n ~edges ~get:(get facts)))

(* --- game_wfs ------------------------------------------------------------- *)

let game_wfs ~rng ~stats =
  let n = 30000 in
  let edges =
    draw
      (fun () -> random_edges rng ~n ~m:47998)
      (fun edges ->
        let _, depth = Oracle.retrograde ~n ~edges in
        depth >= 27 && depth <= 29)
  in
  let text = facts_text ~n edges in
  let points = random_vertices rng ~n 20 in
  let program, db =
    set_up (fun () ->
        let program = front "win(X) :- e(X, Y), !win(Y).\n" in
        (program, load text))
  in
  measured (fun () ->
      let result =
        instance (fun () ->
            match
              update (fun () ->
                  span "eval.run" (fun () -> Negdl.run ~engine ~indexing ?stats Semantics_well_founded program db))
            with
            | Error e -> Error e
            | Ok res ->
              List.iter (point_query (get res.facts "win") "win") points;
              Ok res)
      in
      match result with
      | Error e -> operation (Some ("eval: " ^ e))
      | Ok res ->
        let unknown = Option.value res.unknown ~default:(Idb.of_program program) in
        round_trip ~unknown ~program ~semantics:"well-founded" ~db res.facts;
        let won = get res.facts "win" and drawn = get unknown "win" in
        puti det "model.won" (Relation.cardinal won);
        puti det "model.drawn" (Relation.cardinal drawn);
        defer (fun () -> Oracle.check_game ~n ~edges ~won ~unknown:drawn))

(* --- kernel_fixpoints ----------------------------------------------------- *)

let kernel_program = "t(X) :- e(Y, X), !t(Y).\n"
let kernel_instances = 30
let count_limit = 64

(* A random digraph with a planted fixpoint: S (about 3/10 of the vertices)
   is independent and every vertex outside S has an edge from S, so S is a
   kernel of the reversed graph and its complement a fixpoint of
   t(X) :- e(Y, X), !t(Y).  Every instance then runs the whole suite (find,
   count, least); without planting about half the instances have no
   fixpoint and the per-instance median jumps between the two kinds. *)
let planted_graph rng ~n ~m =
  let in_s = Array.init n (fun _ -> Prng.int rng 10 < 3) in
  in_s.(0) <- true;
  let s = Array.of_list (List.filter (fun v -> in_s.(v)) (List.init n Fun.id)) in
  let absorbing =
    Array.of_list
      (List.filter_map
         (fun x -> if in_s.(x) then None else Some (s.(Prng.int rng (Array.length s)), x))
         (List.init n Fun.id))
  in
  random_edges ~forbid:(fun v -> in_s.(v)) ~init:absorbing rng ~n ~m

let kernel_fixpoints ~rng ~traced =
  let n = 300 in
  let graphs = Array.init kernel_instances (fun _ -> planted_graph rng ~n ~m:(4 * n)) in
  let texts = Array.map (facts_text ~n) graphs in
  let program, dbs =
    set_up (fun () ->
        let program = front kernel_program in
        (program, Array.map load texts))
  in
  let atoms = ref 0 and rules = ref 0 and clauses = ref 0 and counted = ref 0 in
  Array.iteri
    (fun i db ->
      let example, count, least =
        measured (fun () ->
            let example, count, least =
              instance (fun () ->
                  let solver =
                    update (fun () ->
                        if traced then begin
                          (* Solve.t is only built by [prepare], which grounds
                             and encodes again: these probes time the two
                             layers on their own and show in trace.overhead_s. *)
                          let g = span "fixpoint.ground" (fun () -> Ground.ground program db) in
                          let enc = span "fixpoint.encode" (fun () -> Fixpoint_encode.build g) in
                          clauses := !clauses + Cnf.num_clauses (Fixpoint_encode.cnf enc)
                        end;
                        span "fixpoint.prepare" (fun () -> Fixpoints.prepare program db))
                  in
                  let ground = Fixpoints.ground solver in
                  atoms := !atoms + Ground.atom_count ground;
                  rules := !rules + Ground.rule_count ground;
                  (* The instance's questions form one query: asked
                     separately, their three very different costs put the
                     median on whichever kind sits in the middle. *)
                  query (fun () ->
                      let example = span "sat.find" (fun () -> Fixpoints.find solver) in
                      match example with
                      | None -> (None, 0, None)
                      | Some _ ->
                        let count =
                          span "sat.count" (fun () -> Fixpoints.count ~limit:count_limit solver)
                        in
                        let least = span "sat.least" (fun () -> Fixpoints.least solver) in
                        (example, count, least)))
            in
            round_trip ~program ~semantics:"fixpoint" ~db
              (Option.value example ~default:(Idb.of_program program));
            (example, count, least))
      in
      counted := !counted + count;
      let edges = graphs.(i) in
      defer (fun () ->
          let graph = Digraph.make n (Array.to_list edges) in
          let check = function
            | None -> None
            | Some fp -> Oracle.check_kernel_fixpoint ~n ~edges ~graph (get fp "t")
          in
          match (example, check example, check least) with
          | None, _, _ -> Some (Printf.sprintf "instance %d: no fixpoint found, one is planted" i)
          | _, Some e, _ | _, None, Some e -> Some (Printf.sprintf "instance %d: %s" i e)
          | Some _, None, None ->
            if count < 1 then Some (Printf.sprintf "instance %d: census is empty" i) else None))
    dbs;
  puti det "fixpoint.ground_atoms" !atoms;
  puti det "sat.fixpoints_counted" !counted;
  puti layers "fixpoint.ground_atoms" !atoms;
  puti layers "fixpoint.ground_rules" !rules;
  puti layers "fixpoint.cnf_clauses" !clauses;
  puti layers "sat.fixpoints_counted" !counted

(* --- serve_churn ---------------------------------------------------------- *)

let serve_program =
  "r(X, Y) :- e(X, Y).\n\
   r(X, Y) :- e(X, Z), r(Z, Y).\n\
   reached(Y) :- r(X, Y).\n\
   unreached(X) :- v(X), !reached(X).\n"

let components = 150
let component_size = 8
let turns = 800
let check_every = 100

let serve_churn ~rng ~stats =
  let n = components * component_size in
  let p = 1.8 /. float_of_int component_size in
  let edges =
    List.concat
      (List.init components (fun c ->
           let base = c * component_size in
           List.concat
             (List.init component_size (fun i ->
                  List.filter_map
                    (fun j ->
                      if i <> j && Prng.float rng < p then Some (base + i, base + j)
                      else None)
                    (List.init component_size Fun.id)))))
    |> Array.of_list
  in
  let vfacts = List.init n (fun i -> Printf.sprintf "v(%s)." (Oracle.vertex_name i)) in
  let text = facts_text ~extra:vfacts ~n edges in
  let program, t =
    set_up (fun () ->
        let program = front serve_program in
        let db = load text in
        match span "serve.create" (fun () -> Serve.create ~engine ~indexing ?stats program db) with
        | Ok t -> (program, t)
        | Error e -> raise (Setup_failed ("serve create: " ^ e)))
  in
  (* The bench's own view of the edge set: [present] is swap-removed on
     delete, deleted edges queue up for re-insertion. *)
  let present = Array.copy edges and live = ref (Array.length edges) in
  let waiting = Queue.create () in
  let reply_ok prefix = function
    | Serve.Reply [ line ] ->
      String.length line >= String.length prefix
      && String.sub line 0 (String.length prefix) = prefix
    | _ -> false
  in
  (* Over-deleted facts put back by delete turns: the wasted share. *)
  let del_over = ref 0 and del_back = ref 0 in
  let turn i =
    let line =
      if i mod 2 = 1 && not (Queue.is_empty waiting) then begin
        let uv = Queue.pop waiting in
        present.(!live) <- uv;
        incr live;
        "insert " ^ edge_fact uv
      end
      else begin
        let k = Prng.int rng !live in
        let uv = present.(k) in
        decr live;
        present.(k) <- present.(!live);
        Queue.add uv waiting;
        "delete " ^ edge_fact uv
      end
    in
    let c = Oracle.vertex_name (Prng.int rng n) in
    let point = Printf.sprintf "query r(%s, Y)" c in
    let before = Serve.counters t in
    let reply, replies =
      measured (fun () ->
          instance (fun () ->
              let reply = update (fun () -> span "serve.update" (fun () -> Serve.handle_line t line)) in
              let replies =
                List.map
                  (fun q -> query (fun () -> span "serve.query" (fun () -> Serve.handle_line t q)))
                  [ point; point; "query unreached(X)" ]
              in
              (reply, replies)))
    in
    if line.[0] = 'd' then begin
      let after = Serve.counters t in
      del_over := !del_over + after.overdeleted - before.overdeleted;
      del_back := !del_back + after.rederived - before.rederived
    end;
    operation (if reply_ok "ok " reply then None else Some ("update failed: " ^ line));
    List.iter
      (fun r -> operation (if reply_ok "{" r then None else Some ("query failed: " ^ point)))
      replies;
    (c, replies)
  in
  (* The maintained model against a from-scratch evaluation, and the last
     turn's answers against a selection over that model. *)
  let check (c, replies) =
    let scratch = Stratified.eval_exn program (Serve.database t) in
    let answer rel =
      Serve.Reply
        [ Format.asprintf "%a %% %d answer(s)" Relation.pp rel (Relation.cardinal rel) ]
    in
    let c = Symbol.intern c in
    let point = answer (Relation.filter (fun tup -> Symbol.equal (Tuple.get tup 0) c) (get scratch "r")) in
    let expected = [ point; point; answer (get scratch "unreached") ] in
    let db_edges =
      match Database.relation "e" (Serve.database t) with
      | Some r -> Relation.cardinal r
      | None -> 0
    in
    if not (Idb.equal scratch (Serve.snapshot t)) then
      Some "maintained model differs from a from-scratch evaluation"
    else if db_edges <> !live then Some "served edge set differs from the bench's"
    else if replies <> expected then Some "query answers differ from a selection over the model"
    else None
  in
  (* Every [check_every] turns the server checkpoints its model, as a
     server under traffic would, and the model is checked. *)
  for i = 0 to turns - 1 do
    let last = turn i in
    if (i + 1) mod check_every = 0 then begin
      measured (fun () ->
          round_trip ~program ~semantics:"stratified" ~db:(Serve.database t) (Serve.snapshot t));
      (* Checked now, so no restored copy stays live into the next turns. *)
      run_checks ();
      operation (check last)
    end
  done;
  let c = Serve.counters t in
  let st = Serve.stats t in
  puti det "serve.overdeleted" c.overdeleted;
  puti det "serve.rederived" c.rederived;
  puti layers "serve.overdeleted" c.overdeleted;
  puti layers "serve.rederived" c.rederived;
  put layers "serve.rederive_ratio" (ratio !del_back !del_over);
  put layers "serve.query_cache_hit_ratio" (ratio c.cache_hits c.queries);
  puti layers "serve.dred_full_applications"
    (Option.value (List.assoc_opt "dred full applications" st.extra) ~default:0)

(* --- per-layer counters read from the program ----------------------------- *)

let sanitise label =
  String.map (fun ch -> match ch with 'a' .. 'z' | '0' .. '9' -> ch | _ -> '_') label

let stage_labels = [ "stratum_0"; "stratum_1"; "stratum_2"; "well_founded" ]

let eval_layer (s : Stats.t) =
  puti layers "eval.iterations" s.iterations;
  puti layers "eval.rule_applications" s.rule_applications;
  puti layers "eval.tuples_derived" s.tuples_derived;
  puti layers "eval.tuples_allocated" s.tuples_allocated;
  put layers "eval.fresh_ratio" (ratio s.tuples_allocated s.tuples_derived);
  puti layers "eval.bulk_builds" s.bulk_builds;
  let stage = Hashtbl.create 8 in
  List.iter
    (fun (label, dt) ->
      let key =
        let l = sanitise label in
        if List.mem l stage_labels then l else "other"
      in
      Hashtbl.replace stage key
        (dt +. Option.value (Hashtbl.find_opt stage key) ~default:0.0))
    s.stages;
  List.iter
    (fun l ->
      put layers ("eval.stage_s." ^ l)
        (Option.value (Hashtbl.find_opt stage l) ~default:0.0))
    (stage_labels @ [ "other" ]);
  let p = s.plan in
  puti layers "plan.compiles" p.plan_compiles;
  puti layers "plan.cache_hits" p.plan_cache_hits;
  put layers "plan.cache_hit_ratio"
    (ratio p.plan_cache_hits (p.plan_cache_hits + p.plan_compiles));
  puti layers "plan.index_builds" p.index_builds;
  puti layers "plan.index_hits" p.index_hits;
  puti layers "plan.full_scans" p.full_scans;
  puti layers "plan.bucket_probes" p.bucket_probes;
  puti det "eval.tuples_derived" s.tuples_derived;
  puti det "eval.rule_applications" s.rule_applications

(* Self time per span name, summed into the per-layer time metrics. *)
let span_layers () =
  let self = Trace.self_by_name () in
  let sum names = List.fold_left (fun a n -> a +. Trace.self_of self n) 0.0 names in
  put layers "datalog.front_s" (sum [ "datalog.parse"; "datalog.check"; "datalog.stratify" ]);
  List.iter
    (fun (metric, name) -> put layers metric (Trace.self_of self name))
    [
      ("relalg.load_s", "relalg.load");
      ("eval.run_s", "eval.run");
      ("snapshot.capture_s", "snapshot.capture");
      ("snapshot.encode_s", "snapshot.encode");
      ("snapshot.decode_s", "snapshot.decode");
      ("snapshot.restore_s", "snapshot.restore");
      ("fixpoint.ground_s", "fixpoint.ground");
      ("fixpoint.encode_s", "fixpoint.encode");
      ("sat.find_s", "sat.find");
      ("sat.count_s", "sat.count");
      ("sat.least_s", "sat.least");
      ("serve.create_s", "serve.create");
      ("serve.update_s", "serve.update");
      ("serve.query_s", "serve.query");
    ];
  put layers "trace.covered_ratio" (Trace.covered_ratio "run")

(* --- host-speed diagnostic ------------------------------------------------- *)

(* A fixed integer kernel that shares no code with negdl and allocates
   nothing, so it moves no GC count: a slow host epoch shows here too. *)
let calibrate () =
  let t0 = now () in
  let x = ref 0x2545F491 in
  for _ = 1 to 10_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  ignore (Sys.opaque_identity !x);
  now () -. t0

(* --- output ---------------------------------------------------------------- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_obj fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Trace.json_string k ^ ":" ^ json_num v) (List.rev fields))
  ^ "}"

let () =
  let workload = ref "" and seed = ref 0 and traced = ref false and trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--trace", Arg.Int (fun v -> traced := v <> 0), "0|1 record layer spans");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome trace-event output");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N [--trace 0|1] [--trace-out FILE]";
  let traced = !traced in
  Trace.enabled := traced;
  Plan.set_default_planner planner;
  Relation.set_default_storage storage;
  let calib_s = calibrate () in
  let rng = Prng.create (0x5eed + (7919 * !seed)) in
  let stats = if traced then Some (Stats.create ()) else None in
  Sat_stats.reset ();
  (try
     match !workload with
     | "closure_strat" -> closure_strat ~rng ~stats
     | "game_wfs" -> game_wfs ~rng ~stats
     | "kernel_fixpoints" -> kernel_fixpoints ~rng ~traced
     | "serve_churn" -> serve_churn ~rng ~stats
     | w ->
       prerr_endline ("unknown workload " ^ w);
       exit 2
   with Setup_failed e -> operation (Some ("set-up: " ^ e)));
  run_checks ();
  (match stats with Some s -> eval_layer s | None -> ());
  let gc = Gc.quick_stat () in
  let e2e =
    [
      ("setup_s", !setup_s);
      ("wall_s", !wall_s);
      ("peak_heap_mb", float_of_int (gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
      ("checkpoint_s", !checkpoint_s);
      ("restore_s", !restore_s);
      ("snap_bytes_per_tuple", ratio !snap_bytes !snap_tuples);
      ("suite_p50_ms", 1000.0 *. percentile 0.5 !instances);
      ("update_p50_ms", 1000.0 *. percentile 0.5 !updates);
      ("update_p90_ms", 1000.0 *. percentile 0.9 !updates);
      ("query_p50_ms", 1000.0 *. percentile 0.5 !queries);
    ]
  in
  puti det "snapshot.bytes" !snap_bytes;
  put det "gc.minor_words" gc.minor_words;
  puti det "gc.minor_collections" gc.minor_collections;
  puti det "gc.major_collections" gc.major_collections;
  puti det "relalg.tuples_interned" (Relalg.Store.count ());
  if traced then begin
    span_layers ();
    puti layers "snapshot.bytes" !snap_bytes;
    puti layers "relalg.facts_loaded" !facts_loaded;
    puti layers "relalg.tuples_interned" (Relalg.Store.count ());
    puti layers "relalg.stripe_locks" (Relalg.Store.contention ()).stripe_locks;
    put layers "gc.minor_words" gc.minor_words;
    puti layers "gc.minor_collections" gc.minor_collections;
    puti layers "gc.major_collections" gc.major_collections;
    puti layers "sat.components_counted"
      (Option.value (List.assoc_opt "sat components counted" (Sat_stats.snapshot ())) ~default:0);
    if !trace_out <> "" then Trace.write_chrome !trace_out
  end;
  let config =
    Printf.sprintf
      "{\"ocaml\":%s,\"partitions\":%d,\"pool_workers\":%d,\"engine\":%s,\"indexing\":%s,\"planner\":%s,\"storage\":%s}"
      (Trace.json_string Sys.ocaml_version)
      (Relalg.Store.partitions ())
      (Domain_pool.size (Domain_pool.default ()))
      (Trace.json_string (match engine with `Seminaive -> "seminaive" | `Naive -> "naive" | `Parallel -> "parallel"))
      (Trace.json_string (match indexing with `Cached -> "cached" | `Percall -> "percall" | `Scan -> "scan"))
      (Trace.json_string (Plan.planner_to_string (Plan.default_planner ())))
      (Trace.json_string (Format.asprintf "%a" Relation.pp_storage (Relation.default_storage ())))
  in
  Printf.printf
    "{\"workload\":%s,\"seed\":%d,\"traced\":%b,\"attempted\":%d,\"failed\":%d,\"errors\":[%s],\"calib_s\":%s,\"config\":%s,\"e2e\":%s,\"det\":%s,\"layers\":%s}\n"
    (Trace.json_string !workload) !seed traced !attempted !failed
    (String.concat "," (List.rev_map Trace.json_string !errors))
    (json_num calib_s) config (json_obj (List.rev e2e)) (json_obj !det) (json_obj !layers)
