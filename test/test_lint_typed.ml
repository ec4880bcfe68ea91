(* Tests for the typed pass of ctslint (lib/lint: Cmt_loader +
   Typed_facts + Typed_check): per-rule fixtures for the two typed
   families — hotpath-alloc and domain-unsafe — each with a positive
   finding, a clean negative, and a suppressed variant;
   interprocedural certification across modules; suppression pass
   attribution; the live-tree typed gate (every [@ctslint.hotpath] root
   certifies, zero findings); and the static-vs-dynamic cross-check:
   functions the certifier puts in the inventory are re-measured with
   [Gc.minor_words] and must allocate nothing at runtime.

   Fixtures are real compiled code: each test writes sources into a
   temp directory, runs [ocamlc -bin-annot -c] (the toolchain that
   built this very test), and feeds the resulting .cmt files through
   the same loader the CLI uses — so the tests exercise typedtree
   shapes, not hand-built fact records. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Fixture helpers: compile sources to .cmt, load, walk, analyze       *)

let sh fmt = Printf.ksprintf Sys.command fmt

let write_file path src =
  ignore (sh "mkdir -p %s" (Filename.quote (Filename.dirname path)));
  let oc = open_out path in
  output_string oc src;
  close_out oc

(* [files] are (relative-path, source) pairs in dependency order; the
   relative path becomes [cmt_sourcefile], which is what the path-based
   policies (domain roots) match against. *)
let analyze_fixture ?(respect = true) files =
  let dir = Filename.temp_file "ctslint_typed_" ".fix" in
  Sys.remove dir;
  ignore (sh "mkdir -p %s" (Filename.quote dir));
  List.iter
    (fun (rel, src) -> write_file (Filename.concat dir rel) src)
    files;
  let srcs =
    String.concat " " (List.map (fun (rel, _) -> Filename.quote rel) files)
  in
  let rc =
    sh "cd %s && ocamlc -bin-annot -w -a -c %s > compile.log 2>&1"
      (Filename.quote dir) srcs
  in
  if rc <> 0 then begin
    ignore (sh "cat %s/compile.log 1>&2" (Filename.quote dir));
    Alcotest.failf "fixture failed to compile (ocamlc exit %d)" rc
  end;
  let units, errs = Lint.Cmt_loader.load_build_dir dir in
  check int "fixture cmts load without errors" 0 (List.length errs);
  check int "every fixture unit loaded" (List.length files)
    (List.length units);
  let facts = List.map Lint.Typed_facts.walk_unit units in
  let r = Lint.Typed_check.analyze ~respect_suppressions:respect facts in
  ignore (sh "rm -rf %s" (Filename.quote dir));
  r

let rules_of (r : Lint.Typed_check.result) =
  List.map (fun f -> f.Lint.Finding.rule) r.Lint.Typed_check.r_findings

let count_rule rule r =
  List.length (List.filter (String.equal rule) (rules_of r))

let findings r = r.Lint.Typed_check.r_findings

let supp_with r pred =
  List.find_opt pred r.Lint.Typed_check.r_supps

(* ------------------------------------------------------------------ *)
(* hotpath-alloc                                                       *)

let test_hotpath_positive () =
  let r =
    analyze_fixture [ ("f1.ml", "let hot x = (x, x) [@@ctslint.hotpath]\n") ]
  in
  check int "one finding" 1 (List.length (findings r));
  let f = List.hd (findings r) in
  check string "rule" "hotpath-alloc" f.Lint.Finding.rule;
  check string "exact file" "f1.ml" f.Lint.Finding.file;
  check int "exact line" 1 f.Lint.Finding.line;
  check bool "names the allocation" true
    (contains ~sub:"tuple allocation" f.Lint.Finding.message);
  match r.Lint.Typed_check.r_roots with
  | [ (root, certified) ] ->
      check string "root name" "F1.hot" root.Lint.Typed_facts.f_canon;
      check bool "root fails certification" false certified
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots)

let test_hotpath_negative () =
  let r =
    analyze_fixture
      [ ("f1.ml", "let hot a b = (a * 31) + b [@@ctslint.hotpath]\n") ]
  in
  check int "no findings" 0 (List.length (findings r));
  (match r.Lint.Typed_check.r_roots with
  | [ (_, certified) ] -> check bool "root certifies" true certified
  | _ -> Alcotest.fail "expected exactly one root");
  check bool "certified inventory lists the root" true
    (List.mem "F1.hot" r.Lint.Typed_check.r_certified)

let hotpath_suppressed_src =
  "let hot x =\n\
  \  ((x, x) [@ctslint.allow \"hotpath-alloc\" \"fixture: sanctioned box\"])\n\
   [@@ctslint.hotpath]\n"

let test_hotpath_suppressed () =
  let r = analyze_fixture [ ("f1.ml", hotpath_suppressed_src) ] in
  check int "allow silences the finding" 0 (List.length (findings r));
  (match r.Lint.Typed_check.r_roots with
  | [ (_, certified) ] ->
      check bool "suppressed alloc does not fail the root" true certified
  | _ -> Alcotest.fail "expected exactly one root");
  (match
     supp_with r (fun s -> String.equal s.Lint.Suppress.s_rule "hotpath-alloc")
   with
  | Some s ->
      check string "consumed by the typed pass" "typed"
        (Lint.Suppress.pass_label s)
  | None -> Alcotest.fail "suppression sighting missing");
  (* audit mode re-surfaces the exact site *)
  let audit =
    analyze_fixture ~respect:false [ ("f1.ml", hotpath_suppressed_src) ]
  in
  check int "audit mode re-surfaces it" 1 (count_rule "hotpath-alloc" audit);
  check int "at the allocation line" 2
    (List.hd (findings audit)).Lint.Finding.line

let test_hotpath_interprocedural () =
  (* the allocation is two calls away, across compilation units *)
  let r =
    analyze_fixture
      [
        ("leaf.ml", "let alloc_pair x = (x, x)\n");
        ("mid.ml", "let relay x = Leaf.alloc_pair x\n");
        ("hot.ml", "let entry x = Mid.relay x [@@ctslint.hotpath]\n");
      ]
  in
  (match r.Lint.Typed_check.r_roots with
  | [ (root, certified) ] ->
      check string "root" "Hot.entry" root.Lint.Typed_facts.f_canon;
      check bool "transitive alloc fails the root" false certified
  | _ -> Alcotest.fail "expected exactly one root");
  (* the chain is reported end to end: the alloc itself, and each call
     edge that transports it back to the root *)
  check
    (Alcotest.list string)
    "one finding per hop, exact files"
    [ "hot.ml"; "leaf.ml"; "mid.ml" ]
    (List.map (fun f -> f.Lint.Finding.file) (findings r));
  let at file =
    List.find (fun f -> String.equal f.Lint.Finding.file file) (findings r)
  in
  check bool "leaf names the tuple" true
    (contains ~sub:"tuple allocation" (at "leaf.ml").Lint.Finding.message);
  check bool "mid blames Leaf.alloc_pair" true
    (contains ~sub:"Leaf.alloc_pair" (at "mid.ml").Lint.Finding.message);
  check bool "root blames Mid.relay" true
    (contains ~sub:"Mid.relay" (at "hot.ml").Lint.Finding.message)

(* ------------------------------------------------------------------ *)
(* domain-unsafe                                                       *)

let test_domain_positive () =
  let r =
    analyze_fixture
      [ ("lib/mc/pool.ml", "let tally = ref 0\nlet worker () = !tally\n") ]
  in
  check int "one finding" 1 (count_rule "domain-unsafe" r);
  let f = List.hd (findings r) in
  check string "in the worker file" "lib/mc/pool.ml" f.Lint.Finding.file;
  check int "at the access" 2 f.Lint.Finding.line;
  check bool "names the global and its definition site" true
    (contains ~sub:"Pool.tally" f.Lint.Finding.message
    && contains ~sub:"lib/mc/pool.ml:1" f.Lint.Finding.message);
  check bool "suggests the remedies" true
    (contains ~sub:"DLS" f.Lint.Finding.message)

let test_domain_dls_negative () =
  let r =
    analyze_fixture
      [
        ( "lib/mc/pool.ml",
          "let slot = Domain.DLS.new_key (fun () -> 0)\n\
           let worker () = Domain.DLS.get slot\n" );
      ]
  in
  check int "DLS-mediated state is fine" 0 (List.length (findings r))

let test_domain_lock_negative () =
  let r =
    analyze_fixture
      [
        ( "lib/mc/pool.ml",
          "let lock = Mutex.create ()\n\
           let total = ref 0\n\
           let worker () = Mutex.protect lock (fun () -> total := !total + 1)\n"
        );
      ]
  in
  check int "lock-protected access is fine" 0 (count_rule "domain-unsafe" r)

let test_domain_owned_suppressed () =
  let src =
    "let registry = ref 0\n\
     [@@ctslint.domain_owned \"fixture: populated before workers start\"]\n\
     let worker () = !registry\n"
  in
  let r = analyze_fixture [ ("lib/mc/pool.ml", src) ] in
  check int "declared ownership silences the finding" 0
    (List.length (findings r));
  match
    supp_with r (fun s -> s.Lint.Suppress.s_kind = Lint.Suppress.Domain_owned)
  with
  | Some s ->
      check string "consumed by the typed pass" "typed"
        (Lint.Suppress.pass_label s)
  | None -> Alcotest.fail "domain_owned sighting missing"

(* ------------------------------------------------------------------ *)
(* Suppression hygiene across the two passes                           *)

let test_unused_typed_allow () =
  let r =
    analyze_fixture
      [
        ( "f1.ml",
          "let clean x = x + 1\n\
           [@@ctslint.allow \"hotpath-alloc\" \"fixture: silences nothing\"]\n"
        );
      ]
  in
  check (Alcotest.list string) "unused typed allow is itself a finding"
    [ "unused-allow" ] (rules_of r);
  check bool "names the rule" true
    (contains ~sub:"hotpath-alloc" (List.hd (findings r)).Lint.Finding.message)

let test_syntactic_hygiene_of_typed_attrs () =
  (* attribute well-formedness stays with the syntactic pass, for both
     passes' annotations *)
  let rules_syn src =
    let fs, _ = Lint.Driver.lint_string ~file:"lib/fixture/fix.ml" src in
    List.map (fun f -> f.Lint.Finding.rule) fs
  in
  check (Alcotest.list string) "hotpath takes no payload"
    [ "bad-suppression" ]
    (rules_syn "let f x = x [@@ctslint.hotpath \"why\"]\n");
  check (Alcotest.list string) "domain_owned needs a reason"
    [ "bad-suppression" ]
    (rules_syn "let r = ref 0 [@@ctslint.domain_owned]\n");
  check (Alcotest.list string) "unknown ctslint attribute"
    [ "bad-suppression" ]
    (rules_syn "let g = 1 [@@ctslint.frobnicate \"a\" \"b\"]\n");
  check (Alcotest.list string) "well-formed hotpath is clean" []
    (rules_syn "let f x = x [@@ctslint.hotpath]\n");
  check (Alcotest.list string) "well-formed domain_owned is clean" []
    (rules_syn "let r = ref 0 [@@ctslint.domain_owned \"reason here\"]\n")

let test_pass_attribution_merge () =
  let mk ?(syn = false) ?(typed = false) () =
    {
      Lint.Suppress.s_file = "x.ml";
      s_line = 3;
      s_rule = "wall-clock";
      s_reason = "r";
      s_scope = Lint.Suppress.Scoped;
      s_kind = Lint.Suppress.Allow;
      s_used_syn = syn;
      s_used_typed = typed;
    }
  in
  check string "unused" "unused" (Lint.Suppress.pass_label (mk ()));
  check string "syntactic" "syntactic"
    (Lint.Suppress.pass_label (mk ~syn:true ()));
  check string "typed" "typed" (Lint.Suppress.pass_label (mk ~typed:true ()));
  (* the same source attribute seen by both walks merges into one entry
     that remembers both consumers *)
  let merged =
    Lint.Suppress.merge_into ~into:[ mk ~syn:true () ] [ mk ~typed:true () ]
  in
  check int "one entry per source attribute" 1 (List.length merged);
  let s = List.hd merged in
  check string "both passes" "both passes" (Lint.Suppress.pass_label s);
  check bool "inventory renders the consumer" true
    (contains ~sub:"[both passes]" (Lint.Suppress.to_string s))

(* ------------------------------------------------------------------ *)
(* Live-tree gates                                                     *)

let repo_root () =
  (* Walk up from the runtime cwd (_build/default/test under dune) to
     the checkout: the first ancestor holding both .git and
     dune-project. *)
  let rec go d =
    if
      Sys.file_exists (Filename.concat d ".git")
      && Sys.file_exists (Filename.concat d "dune-project")
    then Some d
    else
      let p = Filename.dirname d in
      if String.equal p d then None else go p
  in
  go (Sys.getcwd ())

let tree_dirs = [ "lib"; "bin"; "bench"; "test"; "examples" ]

(* The typed analysis of whatever part of the tree is built.  The test
   binary's own build guarantees every library (and the tests) left a
   .cmt behind; executables may or may not be built, and the gates
   below only assert over what is present. *)
let live =
  lazy
    (match repo_root () with
    | None -> None
    | Some root -> (
        match Lint.Cmt_loader.find_build_dir root with
        | None -> None
        | Some bdir ->
            let units, errs = Lint.Cmt_loader.load_build_dir bdir in
            let units = Lint.Cmt_loader.under_paths tree_dirs units in
            let facts = List.map Lint.Typed_facts.walk_unit units in
            Some (Lint.Typed_check.analyze facts, errs)))

let test_live_typed_gate () =
  match Lazy.force live with
  | None -> () (* not running from a checkout; @lint-typed covers it *)
  | Some (r, errs) ->
      check int "every .cmt loads" 0 (List.length errs);
      check
        (Alcotest.list string)
        "zero typed findings on the live tree" []
        (List.map Lint.Finding.to_string (findings r));
      check bool "the tree was actually analyzed" true
        (r.Lint.Typed_check.r_units >= 60);
      check bool "function population floor" true
        (r.Lint.Typed_check.r_fns >= 900);
      check bool "hot-path roots present" true
        (List.length r.Lint.Typed_check.r_roots >= 13);
      List.iter
        (fun ((f : Lint.Typed_facts.fn_fact), certified) ->
          check bool ("root certifies: " ^ f.Lint.Typed_facts.f_canon) true
            certified)
        r.Lint.Typed_check.r_roots

let test_live_suppression_attribution () =
  match Lazy.force live with
  | None -> ()
  | Some (r, _) -> (
      match
        supp_with r (fun s ->
            contains ~sub:"event_queue" s.Lint.Suppress.s_file
            && String.equal s.Lint.Suppress.s_rule "hotpath-alloc")
      with
      | Some s ->
          check bool "the queue's hotpath allow is consumed by the typed pass"
            true s.Lint.Suppress.s_used_typed
      | None -> Alcotest.fail "event_queue hotpath-alloc allow not sighted")

let test_alias_coverage () =
  (* every top-level directory holding .ml files must be in the set both
     lint aliases (and these tests) sweep — a new directory cannot
     silently escape the gates *)
  match repo_root () with
  | None -> ()
  | Some root ->
      let rec has_ml dir =
        Array.exists
          (fun name ->
            let p = Filename.concat dir name in
            if Sys.is_directory p then has_ml p
            else Filename.check_suffix name ".ml")
          (Sys.readdir dir)
      in
      Array.iter
        (fun entry ->
          let p = Filename.concat root entry in
          if
            Sys.is_directory p
            && String.length entry > 0
            && entry.[0] <> '.'
            && entry.[0] <> '_' (* _build, _opam *)
            && has_ml p
          then
            check bool ("directory is lint-covered: " ^ entry) true
              (List.mem entry tree_dirs))
        (Sys.readdir root);
      (* and the dune rules pass exactly that set to both passes *)
      let ic = open_in (Filename.concat root "dune") in
      let n = in_channel_length ic in
      let dune = really_input_string ic n in
      close_in ic;
      let args = String.concat " " tree_dirs in
      check bool "@lint sweeps the full set" true
        (contains ~sub:("ctslint.exe} " ^ args) dune);
      check bool "@lint-typed sweeps the full set" true
        (contains ~sub:("ctslint.exe} --typed " ^ args) dune)

let test_linted_file_floor () =
  match repo_root () with
  | None -> ()
  | Some root ->
      let paths =
        List.filter_map
          (fun d ->
            let p = Filename.concat root d in
            if Sys.file_exists p then Some p else None)
          tree_dirs
      in
      let r = Lint.Driver.lint_paths paths in
      check bool "syntactic pass file floor" true (r.Lint.Driver.files >= 95)

(* ------------------------------------------------------------------ *)
(* Static-vs-dynamic cross-check                                       *)

(* The certifier's inventory is a *claim* about runtime behavior; these
   twins hold it to account.  Each picks functions the static pass
   certified on the live tree and drives them through a steady-state
   loop under [Gc.minor_words]: the delta must be exactly zero. *)

let assert_certified names =
  match Lazy.force live with
  | None -> ()
  | Some (r, _) ->
      List.iter
        (fun n ->
          check bool ("statically certified: " ^ n) true
            (List.mem n r.Lint.Typed_check.r_certified))
        names

let minor_delta f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_cross_check_engine_queue () =
  assert_certified
    [
      "Dsim.Engine.fire_head";
      "Dsim.Event_queue.push";
      "Dsim.Event_queue.fire_min_exn";
      "Dsim.Event_queue.sift_up";
      "Dsim.Event_queue.sift_down";
      "Dsim.Event_queue.drop_min";
      "Dsim.Event_queue.min_time_exn";
    ];
  let eng = Dsim.Engine.create () in
  let fill n =
    for i = 1 to n do
      Dsim.Engine.schedule eng (Dsim.Time.Span.of_us (i mod 997)) ignore
    done;
    Dsim.Engine.run eng
  in
  (* warm: engine construction and the queue's one-time growth to the
     largest batch happen outside the meter, as in the LOOP bench.  The
     certificate covers the per-event path (schedule/push/fire), not the
     [run] entry itself, so the meter holds the number of [run] calls
     fixed and varies the event count: any per-event allocation shows up
     as the deltas diverging, while a constant per-call cost cancels. *)
  fill 8192;
  fill 8192;
  let d_small = minor_delta (fun () -> fill 1024) in
  let d_large = minor_delta (fun () -> fill 8192) in
  check (Alcotest.float 0.0) "per-event allocation is zero" d_small d_large;
  check bool "per-run overhead is bounded" true (d_small < 64.0)

let test_cross_check_rng () =
  assert_certified [ "Dsim.Rng.bits" ];
  let t = Dsim.Rng.create 0x2545F4914F6CDD1DL in
  let acc = ref 0 in
  for _ = 1 to 1_000 do
    acc := !acc lxor Dsim.Rng.bits t
  done;
  let dw =
    minor_delta (fun () ->
        for _ = 1 to 100_000 do
          acc := !acc lxor Dsim.Rng.bits t
        done)
  in
  ignore (Sys.opaque_identity !acc);
  check (Alcotest.float 0.0) "rng draws allocate nothing" 0.0 dw

let test_cross_check_recorder () =
  assert_certified [ "Obs.Recorder.emit" ];
  let r = Obs.Recorder.create ~capacity:1024 () in
  (* warm past the wrap so the measured region is pure ring overwrite *)
  for i = 1 to 2048 do
    Obs.Recorder.emit r ~kind:Obs.Recorder.k_step ~ts_us:i ~node:0 ~a:i ~b:0
  done;
  let dw =
    minor_delta (fun () ->
        for i = 1 to 100_000 do
          Obs.Recorder.emit r ~kind:Obs.Recorder.k_step ~ts_us:i ~node:1 ~a:i
            ~b:i
        done)
  in
  check (Alcotest.float 0.0) "flight recorder emits allocate nothing" 0.0 dw

let test_cross_check_sink_emit () =
  assert_certified [ "Obs.Sink.emit"; "Obs.Metrics.record" ];
  (* the one emit with the recorder and metrics consumers attached, over
     every record kind: each kind's counter, and the two histograms fed
     by CCS settles and rpc returns *)
  let s = Obs.Sink.create () in
  Obs.Sink.set_recorder s (Some (Obs.Recorder.create ~capacity:1024 ()));
  Obs.Sink.attach s ~metrics:(Obs.Metrics.create ());
  let pass () =
    for i = 1 to 100_000 do
      Obs.Sink.emit s
        ~kind:(i mod Obs.Recorder.kind_count)
        ~ts_us:i ~node:(i land 7) ~a:i ~b:(i land 255)
    done
  in
  (* warm: the ring wraps and the histograms grow to every sample's bin *)
  pass ();
  let dw = minor_delta pass in
  check (Alcotest.float 0.0) "sink emits allocate nothing" 0.0 dw

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "lint-typed",
      [
        Alcotest.test_case "hotpath-alloc: positive" `Quick
          test_hotpath_positive;
        Alcotest.test_case "hotpath-alloc: negative" `Quick
          test_hotpath_negative;
        Alcotest.test_case "hotpath-alloc: suppressed" `Quick
          test_hotpath_suppressed;
        Alcotest.test_case "hotpath-alloc: interprocedural 2-hop" `Quick
          test_hotpath_interprocedural;
        Alcotest.test_case "domain-unsafe: positive" `Quick
          test_domain_positive;
        Alcotest.test_case "domain-unsafe: DLS negative" `Quick
          test_domain_dls_negative;
        Alcotest.test_case "domain-unsafe: lock negative" `Quick
          test_domain_lock_negative;
        Alcotest.test_case "domain-unsafe: domain_owned" `Quick
          test_domain_owned_suppressed;
        Alcotest.test_case "unused typed allow" `Quick test_unused_typed_allow;
        Alcotest.test_case "syntactic hygiene of typed attributes" `Quick
          test_syntactic_hygiene_of_typed_attrs;
        Alcotest.test_case "suppression pass attribution" `Quick
          test_pass_attribution_merge;
        Alcotest.test_case "live tree: typed gate" `Quick test_live_typed_gate;
        Alcotest.test_case "live tree: suppression attribution" `Quick
          test_live_suppression_attribution;
        Alcotest.test_case "lint alias coverage" `Quick test_alias_coverage;
        Alcotest.test_case "linted file floor" `Quick test_linted_file_floor;
        Alcotest.test_case "cross-check: engine + queue" `Quick
          test_cross_check_engine_queue;
        Alcotest.test_case "cross-check: rng" `Quick test_cross_check_rng;
        Alcotest.test_case "cross-check: recorder" `Quick
          test_cross_check_recorder;
        Alcotest.test_case "cross-check: sink emit" `Quick
          test_cross_check_sink_emit;
      ] );
  ]
