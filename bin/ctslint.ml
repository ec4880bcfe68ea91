(* ctslint — determinism & replica-safety static analyzer for the CTS
   stack.  Two passes:

   - syntactic: parses every .ml under the given paths (default: lib bin
     bench test examples) and enforces the parsetree rules;
   - typed (--typed): loads the .cmt typedtrees dune's bin-annot build
     already produced and certifies the zero-alloc hot path and the
     domain safety of pool-reachable state.

   See lib/lint/rules.ml and DESIGN.md §11/§16.

     ctslint                      syntactic pass, exit 1 on any finding
     ctslint --typed              both passes (needs a `dune build` first)
     ctslint --typed --hotpath-report   print the certification inventory
     ctslint lib/gcs              lint one subtree
     ctslint --list-rules         what is enforced, and by which pass
     ctslint --list-suppressions  every annotation, its reason, and which
                                  pass consumed it
     ctslint --no-suppressions    audit mode: report even annotated sites *)

let default_paths = [ "lib"; "bin"; "bench"; "test"; "examples" ]

let () =
  let list_rules = ref false in
  let list_supps = ref false in
  let no_supps = ref false in
  let quiet = ref false in
  let typed = ref false in
  let hotpath_report = ref false in
  let build_dir = ref "" in
  let paths = ref [] in
  let spec =
    [
      ("--list-rules", Arg.Set list_rules, " print the rule set and exit");
      ( "--list-suppressions",
        Arg.Set list_supps,
        " print every annotation (file:line, rule, reason, consuming pass) \
         and exit" );
      ( "--no-suppressions",
        Arg.Set no_supps,
        " audit mode: report findings even where suppressed" );
      ( "--typed",
        Arg.Set typed,
        " also run the typed pass over the .cmt build (hotpath-alloc, \
         domain-unsafe)" );
      ( "--hotpath-report",
        Arg.Set hotpath_report,
        " with --typed: print the hot-path certification inventory" );
      ( "--build-dir",
        Arg.Set_string build_dir,
        "DIR where to find the bin-annot build (default: ./_build/default, \
         or . when already inside a build context)" );
      ("--quiet", Arg.Set quiet, " print findings only, no summary");
    ]
  in
  Arg.parse (Arg.align spec)
    (fun p -> paths := p :: !paths)
    "ctslint [options] [paths]";
  if !list_rules then begin
    List.iter
      (fun (r : Lint.Rules.t) ->
        Printf.printf "%-16s [%s] %s%s\n" r.Lint.Rules.name
          (Lint.Rules.pass_name r.Lint.Rules.pass)
          r.Lint.Rules.summary
          (match r.Lint.Rules.allowed_in with
          | [] -> ""
          | l -> Printf.sprintf " (exempt: %s)" (String.concat ", " l)))
      Lint.Rules.all;
    exit 0
  end;
  let paths =
    match List.rev !paths with
    | [] -> List.filter Sys.file_exists default_paths
    | ps -> ps
  in
  let respect_suppressions = not !no_supps in
  let report = Lint.Driver.lint_paths ~respect_suppressions paths in
  (* typed pass: walk the cmt build, restricted to the same paths *)
  let typed_result, cmt_errors =
    if not !typed then (None, [])
    else
      let bd =
        if !build_dir <> "" then Some !build_dir
        else Lint.Cmt_loader.find_build_dir (Sys.getcwd ())
      in
      match bd with
      | None ->
          prerr_endline
            "ctslint: --typed needs a bin-annot build; run `dune build` \
             first (or pass --build-dir)";
          exit 2
      | Some bd ->
          let units, errors = Lint.Cmt_loader.load_build_dir bd in
          let units = Lint.Cmt_loader.under_paths paths units in
          if units = [] then begin
            prerr_endline
              (Printf.sprintf
                 "ctslint: no .cmt units under %s for the given paths; run \
                  `dune build` first"
                 bd);
            exit 2
          end;
          let facts = List.map Lint.Typed_facts.walk_unit units in
          ( Some (Lint.Typed_check.analyze ~respect_suppressions facts),
            errors )
  in
  let typed_findings, typed_supps =
    match typed_result with
    | None -> ([], [])
    | Some r ->
        (r.Lint.Typed_check.r_findings, r.Lint.Typed_check.r_supps)
  in
  let suppressions =
    Lint.Suppress.merge_into ~into:report.Lint.Driver.suppressions
      typed_supps
  in
  if !list_supps then begin
    List.iter (fun s -> print_endline (Lint.Suppress.to_string s)) suppressions;
    Printf.printf "%d suppression(s) across %d file(s)\n"
      (List.length suppressions) report.Lint.Driver.files;
    exit 0
  end;
  let findings =
    List.sort Lint.Finding.compare
      (report.Lint.Driver.findings @ typed_findings @ cmt_errors)
  in
  List.iter (fun f -> print_endline (Lint.Finding.to_string f)) findings;
  (match (typed_result, !hotpath_report) with
  | Some r, true -> print_string (Lint.Typed_check.hotpath_report r)
  | _ -> ());
  let n = List.length findings in
  if not !quiet then begin
    (match typed_result with
    | Some r ->
        Printf.printf
          "ctslint: typed pass over %d unit(s), %d function(s), %d hot \
           root(s), %d certified\n"
          r.Lint.Typed_check.r_units r.Lint.Typed_check.r_fns
          (List.length r.Lint.Typed_check.r_roots)
          (List.length r.Lint.Typed_check.r_certified)
    | None -> ());
    Printf.printf "ctslint: %d file(s), %d finding(s), %d suppression(s)\n"
      report.Lint.Driver.files n (List.length suppressions)
  end;
  exit (if n = 0 then 0 else 1)
