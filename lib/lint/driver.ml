(* Parse each .ml with compiler-libs and walk it with [Ast_iterator],
   maintaining a suppression stack and a small amount of syntactic
   context (are we inside an order-restoring consumer?).  No typing, no
   ppx: the sources this lints are plain OCaml, and a syntactic pass is
   exactly strong enough for the project-specific rules it enforces. *)

type report = {
  files : int;
  findings : Finding.t list;  (* sorted by file/line/col *)
  suppressions : Suppress.t list;  (* in file order *)
}

let parse_string ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  Parse.implementation lexbuf

let rec flatten (li : Longident.t) =
  match li with
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply _ -> []

(* ------------------------------------------------------------------ *)

type ctx = {
  file : string;
  respect_suppressions : bool;
  mutable active : Suppress.t list;  (* innermost first *)
  mutable sort_depth : int;
  mutable out : Finding.t list;
  mutable supps : Suppress.t list;  (* reverse file order *)
}

let report ctx ~rule ~(loc : Location.t) message =
  match
    List.find_opt (fun s -> String.equal s.Suppress.s_rule rule) ctx.active
  with
  | Some s ->
      s.Suppress.s_used_syn <- true;
      if not ctx.respect_suppressions then
        ctx.out <- Finding.v ~file:ctx.file ~loc ~rule message :: ctx.out
  | None -> ctx.out <- Finding.v ~file:ctx.file ~loc ~rule message :: ctx.out

(* Parse one attribute; well-formed allows are pushed by the caller,
   malformed ones become [bad-suppression] findings on the spot.  The
   sibling annotations ([@ctslint.hotpath], [@ctslint.domain_owned])
   get their payload hygiene checked here too — the syntactic pass owns
   attribute well-formedness for both passes — but only allows are
   returned for the active stack. *)
let suppression_of_attr ctx ~scope (attr : Parsetree.attribute) =
  let loc = Suppress.loc attr in
  let attr_txt = attr.Parsetree.attr_name.Location.txt in
  if Suppress.is_hotpath attr then begin
    (match attr.Parsetree.attr_payload with
    | Parsetree.PStr [] -> ()
    | _ ->
        report ctx ~rule:"bad-suppression" ~loc
          "[@ctslint.hotpath] takes no payload");
    None
  end
  else
    match Suppress.parse_domain_owned attr with
    | Suppress.Owned (Some reason) when reason <> "" ->
        let s =
          {
            Suppress.s_file = ctx.file;
            s_line = loc.Location.loc_start.Lexing.pos_lnum;
            s_rule = "domain-unsafe";
            s_reason = reason;
            s_scope = scope;
            s_kind = Suppress.Domain_owned;
            s_used_syn = false;
            s_used_typed = false;
          }
        in
        ctx.supps <- s :: ctx.supps;
        None (* ownership declarations never join the allow stack *)
    | Suppress.Owned _ ->
        report ctx ~rule:"bad-suppression" ~loc
          "[@ctslint.domain_owned] carries no reason; shared mutable state \
           must say why it is safe across domains";
        None
    | Suppress.Not_owned -> (
        match Suppress.parse attr with
        | Suppress.Not_allow ->
            (* any other ctslint.* attribute is a typo we must not let
               silently pass for an annotation *)
            if
              String.length attr_txt >= 8
              && String.sub attr_txt 0 8 = "ctslint."
            then
              report ctx ~rule:"bad-suppression" ~loc
                (Printf.sprintf "unknown ctslint annotation %S" attr_txt);
            None
        | Suppress.Malformed msg ->
            report ctx ~rule:"bad-suppression" ~loc msg;
            None
        | Suppress.Allow { rule; reason } -> (
            if not (Rules.known rule) then begin
              report ctx ~rule:"bad-suppression" ~loc
                (Printf.sprintf "unknown rule %S" rule);
              None
            end
            else
              match reason with
              | None | Some "" ->
                  report ctx ~rule:"bad-suppression" ~loc
                    (Printf.sprintf
                       "suppression of %S carries no reason; every \
                        exception to the determinism contract must say why"
                       rule);
                  None
              | Some reason ->
                  let s =
                    {
                      Suppress.s_file = ctx.file;
                      s_line = loc.Location.loc_start.Lexing.pos_lnum;
                      s_rule = rule;
                      s_reason = reason;
                      s_scope = scope;
                      s_kind = Suppress.Allow;
                      s_used_syn = false;
                      s_used_typed = false;
                    }
                  in
                  ctx.supps <- s :: ctx.supps;
                  Some s))

let push_attrs ctx ~scope attrs =
  List.filter_map (suppression_of_attr ctx ~scope) attrs

let pop_attrs ctx pushed =
  List.iter
    (fun (s : Suppress.t) ->
      ctx.active <-
        List.filter
          (fun s' ->
            (s' != s)
            [@ctslint.allow
              "phys-equality"
                "removing exactly this stack entry, not a structural twin"])
          ctx.active;
      (* Unused scoped allows are flagged here only for syntactic rules:
         an allow for a typed rule can only be judged once the typed
         pass has walked this file's cmt (Typed_check.unused_findings). *)
      if
        (not (Suppress.used s))
        && s.Suppress.s_scope = Suppress.Scoped
        && ctx.respect_suppressions
        && Rules.pass_of s.Suppress.s_rule = Rules.Syntactic
      then
        ctx.out <-
          Finding.v ~file:ctx.file
            ~loc:
              {
                Location.loc_start =
                  {
                    Lexing.pos_fname = ctx.file;
                    pos_lnum = s.Suppress.s_line;
                    pos_bol = 0;
                    pos_cnum = 0;
                  };
                loc_end =
                  {
                    Lexing.pos_fname = ctx.file;
                    pos_lnum = s.Suppress.s_line;
                    pos_bol = 0;
                    pos_cnum = 0;
                  };
                loc_ghost = true;
              }
            ~rule:"unused-allow"
            (Printf.sprintf "suppression of %S silences nothing; delete it"
               s.Suppress.s_rule)
          :: ctx.out)
    pushed

let check_path ctx ~loc path =
  let file = ctx.file in
  match Rules.classify path with
  | Rules.Clean -> ()
  | Rules.Phys_eq op ->
      report ctx ~rule:"phys-equality" ~loc
        (Printf.sprintf
           "physical equality (%s) depends on value representation, not \
            contents; use structural (=/<>) or annotate the sanctioned \
            sentinel identity check"
           op)
  | Rules.Hash_iter ->
      report ctx ~rule:"hash-order" ~loc
        "Hashtbl.iter visits bindings in hash-bucket order, which varies \
         with seeding and growth history; use Dsim.Det.iter_sorted (or \
         annotate a genuinely order-free callback)"
  | Rules.Hash_fold ->
      if ctx.sort_depth = 0 then
        report ctx ~rule:"hash-order" ~loc
          "Hashtbl.fold exposes hash-bucket order; sort the result in \
           place (List.sort (... Hashtbl.fold ...)), use \
           Dsim.Det.sorted_bindings, or annotate a commutative fold"
  | Rules.Wall_clock id ->
      if not (Rules.exempt (Rules.find "wall-clock") ~file) then
        report ctx ~rule:"wall-clock" ~loc
          (Printf.sprintf
             "%s reads real time or the host; replicas must read time \
              through the CTS interposition (paper \xc2\xa73) and \
              simulations through Dsim.Time"
             id)
  | Rules.Random_use id ->
      if not (Rules.exempt (Rules.find "unseeded-random") ~file) then
        report ctx ~rule:"unseeded-random" ~loc
          (Printf.sprintf
             "%s draws from the ambient generator; use the run's seeded \
              Dsim.Rng so schedules replay"
             id)
  | Rules.Domain_use id ->
      if not (Rules.exempt (Rules.find "domain-hygiene") ~file) then
        report ctx ~rule:"domain-hygiene" ~loc
          (Printf.sprintf
             "%s spawns or names domains outside Mc.Pool; parallelism must \
              go through the pool's deterministic merge"
             id)

let expr_path (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { Location.txt; _ } -> Some (flatten txt)
  | _ -> None

(* Is [e] an order-restoring consumer in function position — an ident
   like [List.sort], possibly partially applied ([List.sort cmp])? *)
let rec is_sort_expr (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { Location.txt; _ } ->
      Rules.is_sort_path (flatten txt)
  | Parsetree.Pexp_apply (f, _) -> is_sort_expr f
  | _ -> false

let lint_structure ~file ?(respect_suppressions = true) str =
  let ctx =
    {
      file;
      respect_suppressions;
      active = [];
      sort_depth = 0;
      out = [];
      supps = [];
    }
  in
  (* File-level suppressions: floating [@@@ctslint.allow ...] items apply
     to the whole file, wherever they appear. *)
  let file_level =
    List.filter_map
      (fun (si : Parsetree.structure_item) ->
        match si.Parsetree.pstr_desc with
        | Parsetree.Pstr_attribute a ->
            suppression_of_attr ctx ~scope:Suppress.File a
        | _ -> None)
      str
  in
  ctx.active <- ctx.active @ file_level;
  let default = Ast_iterator.default_iterator in
  let expr sub (e : Parsetree.expression) =
    let pushed =
      push_attrs ctx ~scope:Suppress.Scoped e.Parsetree.pexp_attributes
    in
    ctx.active <- pushed @ ctx.active;
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { Location.txt; loc } ->
        check_path ctx ~loc (flatten txt)
    | Parsetree.Pexp_try (_, cases) ->
        List.iter
          (fun (c : Parsetree.case) ->
            match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
            | Parsetree.Ppat_any ->
                report ctx ~rule:"exn-swallow"
                  ~loc:c.Parsetree.pc_lhs.Parsetree.ppat_loc
                  "catch-all `with _ ->` discards the exception; match the \
                   specific exceptions this code expects, or bind and \
                   surface it"
            | _ -> ())
          cases
    | _ -> ());
    (* Descend.  Sort applications get special handling so that a
       [Hashtbl.fold] in argument position counts as pure aggregation;
       [x |> List.sort cmp] pipes are recognized too. *)
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_apply (f, args) when is_sort_expr f ->
        sub.Ast_iterator.expr sub f;
        ctx.sort_depth <- ctx.sort_depth + 1;
        List.iter (fun (_, a) -> sub.Ast_iterator.expr sub a) args;
        ctx.sort_depth <- ctx.sort_depth - 1
    | Parsetree.Pexp_apply (f, [ (_, lhs); (_, rhs) ])
      when (match expr_path f with
           | Some [ "|>" ] -> true
           | _ -> false)
           && is_sort_expr rhs ->
        sub.Ast_iterator.expr sub f;
        sub.Ast_iterator.expr sub rhs;
        ctx.sort_depth <- ctx.sort_depth + 1;
        sub.Ast_iterator.expr sub lhs;
        ctx.sort_depth <- ctx.sort_depth - 1
    | _ -> default.Ast_iterator.expr sub e);
    pop_attrs ctx pushed
  in
  let value_binding sub (vb : Parsetree.value_binding) =
    let pushed =
      push_attrs ctx ~scope:Suppress.Scoped vb.Parsetree.pvb_attributes
    in
    ctx.active <- pushed @ ctx.active;
    default.Ast_iterator.value_binding sub vb;
    pop_attrs ctx pushed
  in
  (* [open Unix], [let open Unix in], [Unix.( ... )], [module U = Unix]
     and [include Unix] all name the module itself: flag that one place,
     since the members it brings into scope are unqualified from then
     on. *)
  let module_expr sub (me : Parsetree.module_expr) =
    (match me.Parsetree.pmod_desc with
    | Parsetree.Pmod_ident { Location.txt; loc } ->
        let path = flatten txt in
        if Rules.is_host_module path then
          check_path ctx ~loc (path @ [ "*" ])
    | _ -> ());
    default.Ast_iterator.module_expr sub me
  in
  let iter = { default with Ast_iterator.expr; value_binding; module_expr } in
  iter.Ast_iterator.structure iter str;
  if respect_suppressions then
    List.iter
      (fun (s : Suppress.t) ->
        if
          (not (Suppress.used s))
          && Rules.pass_of s.Suppress.s_rule = Rules.Syntactic
        then
          ctx.out <-
            {
              Finding.file;
              line = s.Suppress.s_line;
              col = 0;
              rule = "unused-allow";
              message =
                Printf.sprintf
                  "file-level suppression of %S silences nothing; delete it"
                  s.Suppress.s_rule;
            }
            :: ctx.out)
      file_level;
  (List.sort Finding.compare ctx.out, List.rev ctx.supps)

let lint_string ~file ?respect_suppressions source =
  match parse_string ~file source with
  | str -> lint_structure ~file ?respect_suppressions str
  | exception Syntaxerr.Error _ ->
      ( [
          {
            Finding.file;
            line = 1;
            col = 0;
            rule = "parse-error";
            message = "file does not parse as an OCaml implementation";
          };
        ],
        [] )

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let lint_file ?respect_suppressions path =
  lint_string ~file:path ?respect_suppressions (read_file path)

(* ------------------------------------------------------------------ *)
(* Tree walking.  Directory entries are sorted so the report order (and
   the bench's files/s denominator) is stable across filesystems. *)

let rec collect_ml acc path =
  if Sys.file_exists path && Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if String.length name = 0 || name.[0] = '.' || name = "_build"
           then acc
           else collect_ml acc (Filename.concat path name))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let lint_paths ?respect_suppressions paths =
  let files = List.rev (List.fold_left collect_ml [] paths) in
  let findings, supps =
    List.fold_left
      (fun (fs, ss) path ->
        let f, s = lint_file ?respect_suppressions path in
        (f :: fs, s :: ss))
      ([], []) files
  in
  {
    files = List.length files;
    findings = List.concat (List.rev findings);
    suppressions = List.concat (List.rev supps);
  }
