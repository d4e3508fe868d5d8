let pp ppf cnf =
  Format.fprintf ppf "p cnf %d %d@." (Cnf.num_vars cnf) (Cnf.num_clauses cnf);
  List.iter
    (fun c ->
      List.iter (fun l -> Format.fprintf ppf "%d " l) c;
      Format.fprintf ppf "0@.")
    (Cnf.clauses cnf)

let to_string cnf = Format.asprintf "%a" pp cnf

(* Every consumer allocates per declared variable before reading a clause
   (the solver's per-variable arrays, one universe element per variable in
   the SAT-to-fixpoint database), so the header's count is bounded before
   anything is sized from it. *)
let max_vars = 1 lsl 16

let parse text =
  let tokenize line =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> String.trim t <> "")
  in
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun line ->
           let t = String.trim line in
           t <> "" && t.[0] <> 'c')
  in
  (* The header is line-scoped: a truncated [p cnf] must not swallow the
     first clause's literals as its counts. *)
  match lines with
  | [] -> Error "missing 'p cnf' header"
  | header :: body -> (
  match tokenize header with
  | "p" :: "cnf" :: nv :: nc :: header_rest -> (
    let rest = header_rest @ List.concat_map tokenize body in
    match (int_of_string_opt nv, int_of_string_opt nc) with
    | None, _ -> Error (Printf.sprintf "bad variable count %S" nv)
    | _, None -> Error (Printf.sprintf "bad clause count %S" nc)
    | Some n, _ when n < 0 ->
      Error (Printf.sprintf "negative variable count %d" n)
    | Some n, _ when n > max_vars ->
      Error
        (Printf.sprintf "variable count %d exceeds the limit of %d" n max_vars)
    | _, Some c when c < 0 -> Error (Printf.sprintf "negative clause count %d" c)
    | Some n, Some declared -> (
      let rec clauses acc current = function
        | [] ->
          if current = [] then Ok (List.rev acc)
          else Error "unterminated clause (missing 0)"
        | tok :: rest -> (
          match int_of_string_opt tok with
          | None -> Error (Printf.sprintf "bad literal %S" tok)
          | Some 0 -> clauses (List.rev current :: acc) [] rest
          | Some l when abs l > n ->
            Error
              (Printf.sprintf
                 "literal %d out of range (header declares %d variables)" l n)
          | Some l -> clauses acc (l :: current) rest)
      in
      match clauses [] [] rest with
      | Error _ as e -> e
      | Ok cs ->
        (* Compare against the raw parsed clauses: [Cnf.of_list] may drop
           tautologies, which must not count as a mismatch. *)
        let found = List.length cs in
        if found <> declared then
          Error
            (Printf.sprintf "header declares %d clauses but %d found"
               declared found)
        else (
          try Ok (Cnf.of_list n cs) with Invalid_argument msg -> Error msg)))
  | "p" :: "cnf" :: _ -> Error "truncated 'p cnf' header"
  | _ -> Error "missing 'p cnf' header")

let parse_exn text =
  match parse text with
  | Ok cnf -> cnf
  | Error msg -> failwith ("Dimacs.parse: " ^ msg)
