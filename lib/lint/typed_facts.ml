(* Extract per-function facts from one typedtree: allocation sites,
   call/reference edges, module-level mutable definitions and their
   uses, and the [@ctslint.*] annotations — everything Typed_check needs
   to judge the two typed rule families without walking the trees
   again.

   The walk mirrors the syntactic driver's suppression discipline: an
   active-allow stack follows the typedtree's attributes (they are the
   same [Parsetree.attribute] values), and each fact snapshots the
   innermost matching allow for its rule.  Whether that allow is *used*
   is decided later, by the checker, when the fact actually becomes a
   finding — so an allow on a cold path dies as unused-allow instead of
   silently sanctioning nothing. *)

type callee =
  | Local of string  (* Ident.unique_name within this unit *)
  | Global of string  (* normalized dotted path: "Dsim.Event_queue.push" *)

type ref_fact = {
  r_loc : Location.t;
  r_callee : callee;
  r_is_call : bool;  (* head of an application vs value reference *)
  r_supp_hot : Suppress.t option;  (* active hotpath-alloc allow *)
  r_supp_dom : Suppress.t option;  (* active domain-unsafe allow *)
}

type alloc = {
  a_loc : Location.t;
  a_what : string;
  a_supp : Suppress.t option;  (* active hotpath-alloc allow *)
}

type fn_fact = {
  f_canon : string;  (* "Dsim.Event_queue.sift_up" *)
  f_uniq : string option;  (* Ident.unique_name, None for the init fact *)
  f_file : string;
  f_loc : Location.t;
  f_hotpath : bool;
  f_ret_boxed : string option;  (* Some "float"/"int64"/... if boxed *)
  mutable f_allocs : alloc list;
  mutable f_refs : ref_fact list;
  mutable f_locks : bool;  (* body takes a Mutex: lock-protected section *)
}

type global_kind = Mutable of string | Safe | Other

type global_def = {
  g_canon : string;
  g_uniq : string;
  g_file : string;
  g_loc : Location.t;
  g_kind : global_kind;
  g_owned : Suppress.t option;  (* [@ctslint.domain_owned "reason"] *)
}

type unit_facts = {
  u_file : string;
  u_modname : string;
  u_fns : fn_fact list;  (* in definition order *)
  u_globals : global_def list;
  u_supps : Suppress.t list;  (* typed-pass sightings, file order *)
}

(* ------------------------------------------------------------------ *)

let boxed_name (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      if Path.same p Predef.path_float then Some "float"
      else if Path.same p Predef.path_int64 then Some "int64"
      else if Path.same p Predef.path_int32 then Some "int32"
      else if Path.same p Predef.path_nativeint then Some "nativeint"
      else None
  | _ -> None

let is_arrow (ty : Types.type_expr) =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

type ctx = {
  file : string;
  modname : string;
  mutable active : Suppress.t list;
  mutable supps : Suppress.t list;  (* reverse order *)
  mutable cur : fn_fact;
  mutable fns : fn_fact list;  (* reverse order *)
  mutable globals : global_def list;  (* reverse order *)
}

let active_for ctx rule =
  List.find_opt (fun s -> String.equal s.Suppress.s_rule rule) ctx.active

(* Register an attribute sighting.  The typed pass is lenient where the
   syntactic pass is strict — malformed payloads and unknown rules are
   already [bad-suppression] findings over there; here they simply fail
   to suppress. *)
let suppression_of_attr ctx ~scope (attr : Parsetree.attribute) =
  match Suppress.parse attr with
  | Suppress.Allow { rule; reason = Some reason }
    when reason <> "" && Rules.known rule ->
      let s =
        {
          Suppress.s_file = ctx.file;
          s_line = (Suppress.loc attr).Location.loc_start.Lexing.pos_lnum;
          s_rule = rule;
          s_reason = reason;
          s_scope = scope;
          s_kind = Suppress.Allow;
          s_used_syn = false;
          s_used_typed = false;
        }
      in
      ctx.supps <- s :: ctx.supps;
      Some s
  | _ -> None

let domain_owned_of_attrs ctx attrs =
  List.fold_left
    (fun acc (attr : Parsetree.attribute) ->
      match acc with
      | Some _ -> acc
      | None -> (
          match Suppress.parse_domain_owned attr with
          | Suppress.Owned (Some reason) when reason <> "" ->
              let s =
                {
                  Suppress.s_file = ctx.file;
                  s_line =
                    (Suppress.loc attr).Location.loc_start.Lexing.pos_lnum;
                  s_rule = "domain-unsafe";
                  s_reason = reason;
                  s_scope = Suppress.Scoped;
                  s_kind = Suppress.Domain_owned;
                  s_used_syn = false;
                  s_used_typed = false;
                }
              in
              ctx.supps <- s :: ctx.supps;
              Some s
          | _ -> None))
    None attrs

let push_attrs ctx attrs =
  let pushed =
    List.filter_map (suppression_of_attr ctx ~scope:Suppress.Scoped) attrs
  in
  ctx.active <- pushed @ ctx.active;
  pushed

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
          ctx.active)
    pushed

let alloc ctx ~loc what =
  ctx.cur.f_allocs <-
    { a_loc = loc; a_what = what; a_supp = active_for ctx "hotpath-alloc" }
    :: ctx.cur.f_allocs

let reference ctx ~loc ~is_call callee =
  ctx.cur.f_refs <-
    {
      r_loc = loc;
      r_callee = callee;
      r_is_call = is_call;
      r_supp_hot = active_for ctx "hotpath-alloc";
      r_supp_dom = active_for ctx "domain-unsafe";
    }
    :: ctx.cur.f_refs

(* ------------------------------------------------------------------ *)
(* Expression walk                                                     *)

let prim_of (vd : Types.value_description) =
  match vd.Types.val_kind with
  | Types.Val_prim pd -> Some pd.Primitive.prim_name
  | _ -> None

let handle_ident ctx ~is_call (path : Path.t)
    (vd : Types.value_description) (loc : Location.t) =
  let dotted = Rules.normalize_path (Path.name path) in
  match prim_of vd with
  | Some prim ->
      if is_call && Rules.prim_allocates prim then
        alloc ctx ~loc (Printf.sprintf "allocating primitive %s (%s)" dotted prim)
      else if is_call then ()
      else if Rules.prim_allocates prim then
        (* referencing an allocating primitive as a value both allocates
           its closure and hides the allocation behind an indirect call *)
        alloc ctx ~loc
          (Printf.sprintf "allocating primitive %s passed as a value" dotted)
  | None -> (
      if is_call && Rules.is_cold_error (Path.name path) then ()
      else
        match path with
        | Path.Pident id ->
            reference ctx ~loc ~is_call (Local (Ident.unique_name id))
        | _ -> reference ctx ~loc ~is_call (Global dotted))

let rec walk_expr ctx iter (e : Typedtree.expression) =
  let pushed = push_attrs ctx e.Typedtree.exp_attributes in
  let loc = e.Typedtree.exp_loc in
  (match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, vd) -> handle_ident ctx ~is_call:false p vd loc
  | Typedtree.Texp_apply (f, args) -> (
      (match f.Typedtree.exp_desc with
      | Typedtree.Texp_ident (p, _, vd) ->
          handle_ident ctx ~is_call:true p vd f.Typedtree.exp_loc;
          (* boxed arguments crossing a non-primitive call boundary are
             boxed by the caller; primitive calls stay unboxed *)
          if prim_of vd = None then
            List.iter
              (fun (_, a) ->
                match a with
                | Some (a : Typedtree.expression) -> (
                    match boxed_name a.Typedtree.exp_type with
                    | Some ty ->
                        alloc ctx ~loc:a.Typedtree.exp_loc
                          (Printf.sprintf
                             "boxed %s argument crosses a call boundary" ty)
                    | None -> ())
                | None -> ())
              args
      | _ ->
          alloc ctx ~loc:f.Typedtree.exp_loc
            "indirect call (function value; target unknown to the \
             certifier)";
          walk_expr ctx iter f);
      List.iter
        (fun (_, a) -> match a with Some a -> walk_expr ctx iter a | None -> ())
        args;
      match
        (f.Typedtree.exp_desc, is_arrow e.Typedtree.exp_type)
      with
      | Typedtree.Texp_ident (_, _, vd), true when prim_of vd = None ->
          alloc ctx ~loc "partial application builds a closure"
      | _ -> ())
  | Typedtree.Texp_function _ ->
      alloc ctx ~loc "closure construction";
      Tast_iterator.default_iterator.Tast_iterator.expr iter e
  | Typedtree.Texp_tuple _ ->
      alloc ctx ~loc "tuple allocation";
      Tast_iterator.default_iterator.Tast_iterator.expr iter e
  | Typedtree.Texp_construct (_, cd, args) ->
      if args <> [] then
        alloc ctx ~loc
          (Printf.sprintf "constructor %s allocation" cd.Types.cstr_name);
      Tast_iterator.default_iterator.Tast_iterator.expr iter e
  | Typedtree.Texp_variant (_, Some _) ->
      alloc ctx ~loc "polymorphic variant allocation";
      Tast_iterator.default_iterator.Tast_iterator.expr iter e
  | Typedtree.Texp_record _ ->
      alloc ctx ~loc "record allocation";
      Tast_iterator.default_iterator.Tast_iterator.expr iter e
  | Typedtree.Texp_array _ ->
      alloc ctx ~loc "array literal allocation";
      Tast_iterator.default_iterator.Tast_iterator.expr iter e
  | Typedtree.Texp_lazy _ ->
      alloc ctx ~loc "lazy thunk allocation";
      Tast_iterator.default_iterator.Tast_iterator.expr iter e
  | Typedtree.Texp_letmodule _ | Typedtree.Texp_pack _
  | Typedtree.Texp_object _ ->
      alloc ctx ~loc "first-class module / object allocation";
      Tast_iterator.default_iterator.Tast_iterator.expr iter e
  | Typedtree.Texp_letop _ ->
      alloc ctx ~loc "binding operator allocates closures";
      Tast_iterator.default_iterator.Tast_iterator.expr iter e
  | _ -> Tast_iterator.default_iterator.Tast_iterator.expr iter e);
  pop_attrs ctx pushed

(* ------------------------------------------------------------------ *)
(* Structure walk                                                      *)

let has_hotpath attrs = List.exists Suppress.is_hotpath attrs

(* Unroll the parameter chain of a top-level definition: single-case
   [fun p ->] layers are parameters (one n-ary function at runtime, no
   per-call closure); the first multi-case [function] or non-function
   node is the body. *)
let rec body_of (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function
      { cases = [ { Typedtree.c_guard = None; c_rhs; _ } ]; _ } ->
      body_of c_rhs
  | _ -> e

let classify_global_rhs (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply (f, _) -> (
      match f.Typedtree.exp_desc with
      | Typedtree.Texp_ident (p, _, vd) -> (
          match prim_of vd with
          | Some "%makemutable" -> Mutable "ref cell"
          | _ ->
              let name = Path.name p in
              if Rules.is_safe_ctor name then Safe
              else if Rules.is_mutable_ctor name then
                Mutable (Rules.normalize_path name)
              else Other)
      | _ -> Other)
  | Typedtree.Texp_array (_ :: _) -> Mutable "array literal"
  | _ -> Other

let walk_unit (u : Cmt_loader.unit_info) =
  let init_fact prefix =
    {
      f_canon = prefix ^ ".(init)";
      f_uniq = None;
      f_file = u.Cmt_loader.ui_file;
      f_loc = Location.none;
      f_hotpath = false;
      f_ret_boxed = None;
      f_allocs = [];
      f_refs = [];
      f_locks = false;
    }
  in
  let ctx =
    {
      file = u.Cmt_loader.ui_file;
      modname = u.Cmt_loader.ui_modname;
      active = [];
      supps = [];
      cur = init_fact u.Cmt_loader.ui_modname;
      fns = [];
      globals = [];
    }
  in
  let init = ctx.cur in
  ctx.fns <- [ init ];
  (* iterator used for default descent inside walk_expr *)
  let rec iter =
    lazy
      (let d = Tast_iterator.default_iterator in
       {
         d with
         Tast_iterator.expr = (fun _ e -> walk_expr ctx (Lazy.force iter) e);
         value_binding =
           (fun sub vb ->
             (* nested lets: attributes on the binding scope its RHS *)
             let pushed = push_attrs ctx vb.Typedtree.vb_attributes in
             d.Tast_iterator.value_binding sub vb;
             pop_attrs ctx pushed);
       })
  in
  let iter = Lazy.force iter in
  let rec walk_items prefix items =
    List.iter (walk_item prefix) items
  and walk_item prefix (si : Typedtree.structure_item) =
    match si.Typedtree.str_desc with
    | Typedtree.Tstr_attribute a -> (
        (* file-level allows stay active for the rest of the walk *)
        match suppression_of_attr ctx ~scope:Suppress.File a with
        | Some s -> ctx.active <- ctx.active @ [ s ]
        | None -> ())
    | Typedtree.Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let pushed = push_attrs ctx vb.Typedtree.vb_attributes in
            (* a binding with a type annotation ([let nil : ty = ...])
               elaborates to Tpat_alias over the constraint; both shapes
               bind one ident *)
            (match
               match vb.Typedtree.vb_pat.Typedtree.pat_desc with
               | Typedtree.Tpat_var (id, _) -> Some id
               | Typedtree.Tpat_alias (_, id, _) -> Some id
               | _ -> None
             with
            | Some id -> (
                let name = Ident.name id in
                let canon = prefix ^ "." ^ name in
                let body = body_of vb.Typedtree.vb_expr in
                let unrolled =
                  (body != vb.Typedtree.vb_expr)
                  [@ctslint.allow
                    "phys-equality"
                      "checking whether body_of unrolled at least one \
                       parameter layer, i.e. node identity"]
                in
                let is_fn =
                  unrolled || is_arrow vb.Typedtree.vb_expr.Typedtree.exp_type
                in
                if is_fn then begin
                  let fact =
                    {
                      f_canon = canon;
                      f_uniq = Some (Ident.unique_name id);
                      f_file = ctx.file;
                      f_loc = vb.Typedtree.vb_loc;
                      f_hotpath = has_hotpath vb.Typedtree.vb_attributes;
                      f_ret_boxed = boxed_name body.Typedtree.exp_type;
                      f_allocs = [];
                      f_refs = [];
                      f_locks = false;
                    }
                  in
                  ctx.fns <- fact :: ctx.fns;
                  let saved = ctx.cur in
                  ctx.cur <- fact;
                  (* walk the body only: the parameter chain itself is
                     the function's static code, not an allocation *)
                  (match body.Typedtree.exp_desc with
                  | Typedtree.Texp_function { cases; _ } ->
                      List.iter
                        (fun (c : Typedtree.value Typedtree.case) ->
                          (match c.Typedtree.c_guard with
                          | Some g -> walk_expr ctx iter g
                          | None -> ());
                          walk_expr ctx iter c.Typedtree.c_rhs)
                        cases
                  | _ -> walk_expr ctx iter body);
                  ctx.cur <- saved
                end
                else begin
                  let owned =
                    domain_owned_of_attrs ctx vb.Typedtree.vb_attributes
                  in
                  ctx.globals <-
                    {
                      g_canon = canon;
                      g_uniq = Ident.unique_name id;
                      g_file = ctx.file;
                      g_loc = vb.Typedtree.vb_loc;
                      g_kind = classify_global_rhs vb.Typedtree.vb_expr;
                      g_owned = owned;
                    }
                    :: ctx.globals;
                  walk_expr ctx iter vb.Typedtree.vb_expr
                end)
            | _ -> walk_expr ctx iter vb.Typedtree.vb_expr);
            pop_attrs ctx pushed)
          vbs
    | Typedtree.Tstr_eval (e, attrs) ->
        let pushed = push_attrs ctx attrs in
        walk_expr ctx iter e;
        pop_attrs ctx pushed
    | Typedtree.Tstr_module mb -> walk_module prefix mb
    | Typedtree.Tstr_recmodule mbs -> List.iter (walk_module prefix) mbs
    | _ -> ()
  and walk_module prefix (mb : Typedtree.module_binding) =
    let sub =
      match mb.Typedtree.mb_id with
      | Some id -> prefix ^ "." ^ Ident.name id
      | None -> prefix
    in
    let rec go (me : Typedtree.module_expr) =
      match me.Typedtree.mod_desc with
      | Typedtree.Tmod_structure str ->
          walk_items sub str.Typedtree.str_items
      | Typedtree.Tmod_constraint (me, _, _, _) -> go me
      | Typedtree.Tmod_functor (_, me) -> go me
      | _ -> ()
    in
    go mb.Typedtree.mb_expr
  in
  walk_items u.Cmt_loader.ui_modname
    u.Cmt_loader.ui_str.Typedtree.str_items;
  (* lock-protected sections: a function that takes a Mutex is treated
     as a critical section for the globals it touches *)
  List.iter
    (fun f ->
      if
        List.exists
          (fun r ->
            r.r_is_call
            &&
            match r.r_callee with
            | Global g -> g = "Mutex.lock" || g = "Mutex.protect"
            | Local _ -> false)
          f.f_refs
      then f.f_locks <- true)
    ctx.fns;
  {
    u_file = ctx.file;
    u_modname = ctx.modname;
    u_fns = List.rev ctx.fns;
    u_globals = List.rev ctx.globals;
    u_supps = List.rev ctx.supps;
  }
