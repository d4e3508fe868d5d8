(* Spans recorded around the benchmark's own calls into each layer.

   A span is (name, start, stop, parent); the layer is the name's prefix
   before the first '.'.  Spans are kept in memory and written once, at the
   end of the process, as Chrome trace-event JSON.  With tracing off
   [span] is a direct call, so untraced runs pay nothing for it. *)

type span = { id : int; name : string; start : float; stop : float; parent : int }

let enabled = ref false
let recorded : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let now = Unix.gettimeofday

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start = now () in
    let r = f () in
    let stop = now () in
    open_ids := List.tl !open_ids;
    recorded := { id; name; start; stop; parent } :: !recorded;
    r
  end

let spans () = List.rev !recorded

let duration s = s.stop -. s.start

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time of every span: its duration minus the part its children
   cover (children never overlap: one domain, nested calls). *)
let self_times () =
  let all = spans () in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 in
        Hashtbl.replace child s.parent (prev +. duration s))
    all;
  List.map
    (fun s ->
      let c = Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      (s, duration s -. c))
    all

(* Summed self time per span name. *)
let self_by_name () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value (Hashtbl.find_opt tbl s.name) ~default:0.0 in
      Hashtbl.replace tbl s.name (prev +. self))
    (self_times ());
  tbl

let self_of tbl name = Option.value (Hashtbl.find_opt tbl name) ~default:0.0

(* Share of the named root spans' time that their direct children cover. *)
let covered_ratio root =
  let all = spans () in
  let roots = List.filter (fun s -> s.name = root) all in
  let ids = List.map (fun s -> s.id) roots in
  let total = List.fold_left (fun a s -> a +. duration s) 0.0 roots in
  let covered =
    List.fold_left
      (fun a s -> if List.mem s.parent ids then a +. duration s else a)
      0.0 all
  in
  if total > 0.0 then covered /. total else 0.0

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Complete ("X") events in microseconds from the first span; the parent
   rides in [args] so the hierarchy survives viewers that ignore nesting. *)
let write_chrome file =
  let all = spans () in
  let t0 = List.fold_left (fun a s -> Float.min a s.start) infinity all in
  let names = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace names s.id s.name) all;
  let oc = open_out file in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      let parent =
        match Hashtbl.find_opt names s.parent with Some n -> n | None -> ""
      in
      Printf.fprintf oc
        "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%s}}"
        (json_string s.name) (json_string (layer s.name))
        ((s.start -. t0) *. 1e6) (duration s *. 1e6) s.id (json_string parent))
    all;
  output_string oc "]}\n";
  close_out oc
