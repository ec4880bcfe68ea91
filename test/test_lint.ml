(* Tests for ctslint (lib/lint): per-rule fixtures — a positive finding,
   a clean negative, and a suppressed variant — with expect-style
   diagnostic rendering; suppression hygiene (missing reason, unknown
   rule, unused allow); the sort-context whitelist for pure-aggregation
   folds; and two whole-tree gates: the live tree lints clean, and the
   live [@ctslint.allow] annotations are load-bearing (removing any one
   reintroduces a finding, checked via audit mode).

   Plus the regression the linter exists to prevent: handler fan-out
   order must be a function of state, not of Hashtbl bucket layout
   (Dsim.Det + the gcs endpoint fan-out). *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Fixture helpers                                                     *)

let lint ?(file = "lib/fixture/fix.ml") src =
  Lint.Driver.lint_string ~file src

let diags ?file src =
  let findings, _ = lint ?file src in
  List.map Lint.Finding.to_string findings

let rules_of ?file src =
  let findings, _ = lint ?file src in
  List.map (fun f -> f.Lint.Finding.rule) findings

let count_rule ?file rule src =
  List.length (List.filter (String.equal rule) (rules_of ?file src))

let supps_of ?file src =
  let _, supps = lint ?file src in
  supps

(* ------------------------------------------------------------------ *)
(* Rule fixtures                                                       *)

let test_wall_clock () =
  (* positive: anywhere outside lib/clock *)
  check int "gettimeofday flagged" 1
    (count_rule "wall-clock" "let t = Unix.gettimeofday ()");
  check int "Sys.time flagged" 1 (count_rule "wall-clock" "let t = Sys.time ()");
  check int "Unix.sleep flagged" 1
    (count_rule "wall-clock" "let () = Unix.sleep 1");
  check int "monotonic clock flagged" 1
    (count_rule "wall-clock" "let t = Monotonic_clock.now ()");
  check int "project wrapper flagged" 1
    (count_rule "wall-clock" "let t = Mc.Explore.wall ()");
  (* negative: the clock library itself is the sanctioned home *)
  check int "lib/clock exempt" 0
    (count_rule ~file:"lib/clock/hwclock.ml" "wall-clock"
       "let t = Unix.gettimeofday ()");
  (* negative: simulated time is fine anywhere *)
  check int "Dsim.Time clean" 0
    (count_rule "wall-clock" "let t = Dsim.Time.of_us 5");
  (* suppressed *)
  let src =
    {|let t = (Unix.gettimeofday () [@ctslint.allow "wall-clock" "boot banner only"])|}
  in
  check int "suppressed" 0 (count_rule "wall-clock" src);
  check int "suppression recorded" 1 (List.length (supps_of src));
  (* host I/O: any member of the host-runtime modules, and the blocking
     console reads *)
  check int "Unix member flagged" 1
    (count_rule "wall-clock" "let fd = Unix.openfile \"f\" [] 0");
  check int "UnixLabels member flagged" 1
    (count_rule "wall-clock" "let () = UnixLabels.sleep 1");
  check int "Thread member flagged" 1
    (count_rule "wall-clock" "let () = Thread.yield ()");
  check int "input_line flagged" 1
    (count_rule "wall-clock" "let l = input_line stdin");
  check int "Stdlib.read_line flagged" 1
    (count_rule "wall-clock" "let l = Stdlib.read_line ()");
  check int "read_int_opt flagged" 1
    (count_rule "wall-clock" "let n = read_int_opt ()");
  check int "read_float flagged" 1
    (count_rule "wall-clock" "let x = read_float ()");
  check int "In_channel.input_line clean" 0
    (count_rule "wall-clock" "let l = In_channel.input_line stdin");
  (* host modules brought into scope: flagged where the module is named,
     since the members are unqualified from then on *)
  check int "open Unix flagged" 1
    (count_rule "wall-clock" "open Unix\nlet t = gettimeofday ()");
  check int "let open flagged" 1
    (count_rule "wall-clock" "let t = let open Unix in gettimeofday ()");
  check int "local open flagged" 1
    (count_rule "wall-clock" "let t = Unix.(gettimeofday ())");
  check int "module alias flagged" 1
    (count_rule "wall-clock" "module U = Unix\nlet t = U.gettimeofday ()");
  check int "local module alias flagged" 1
    (count_rule "wall-clock"
       "let t = let module U = Thread in U.yield ()")

(* Exact position and identifier of a host read, in a runtime-layer-like
   file: no directory outside lib/clock is exempt. *)
let test_wall_clock_positive () =
  let findings, _ =
    lint ~file:"lib/foo.ml" "let elapsed () = Sys.time ()\n"
  in
  check int "one finding" 1 (List.length findings);
  let f = List.hd findings in
  check Alcotest.string "rule" "wall-clock" f.Lint.Finding.rule;
  check Alcotest.string "exact file" "lib/foo.ml" f.Lint.Finding.file;
  check int "exact line" 1 f.Lint.Finding.line;
  check bool "names the ident" true
    (let m = f.Lint.Finding.message in
     String.length m >= 8 && String.sub m 0 8 = "Sys.time")

let wall_clock_suppressed_src =
  "let elapsed () =\n\
  \  Sys.time ()\n\
   [@@ctslint.allow \"wall-clock\" \"fixture: declared boundary\"]\n"

let test_wall_clock_suppressed () =
  let findings, supps =
    lint ~file:"lib/foo.ml" wall_clock_suppressed_src
  in
  check int "allow silences the finding" 0 (List.length findings);
  (match supps with
  | [ s ] ->
      check Alcotest.string "consumed by the syntactic pass" "syntactic"
        (Lint.Suppress.pass_label s)
  | _ -> Alcotest.fail "expected exactly one suppression sighting");
  let audit, _ =
    Lint.Driver.lint_string ~file:"lib/foo.ml" ~respect_suppressions:false
      wall_clock_suppressed_src
  in
  check int "audit mode re-surfaces it" 1
    (List.length
       (List.filter
          (fun f -> String.equal f.Lint.Finding.rule "wall-clock")
          audit))

let test_hash_order () =
  (* positive: iter whose callback order escapes (the endpoint bug shape:
     reintroducing a Hashtbl.iter handler fan-out must fail the lint) *)
  let fan_out = "let evict t = Hashtbl.iter (fun _ s -> s.handler `Evicted) t.subs" in
  check int "iter fan-out flagged" 1 (count_rule "hash-order" fan_out);
  check int "fold to list flagged" 1
    (count_rule "hash-order" "let ks h = Hashtbl.fold (fun k _ a -> k :: a) h []");
  (* negative: pure aggregation — hash order erased by an immediate sort *)
  check int "fold under sort clean" 0
    (count_rule "hash-order"
       "let ks h = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) h [])");
  check int "fold piped to sort clean" 0
    (count_rule "hash-order"
       "let ks h = Hashtbl.fold (fun k _ a -> k :: a) h [] |> List.sort compare");
  (* the sanctioned replacement is itself clean *)
  check int "Det.iter_sorted clean" 0
    (count_rule "hash-order"
       "let f t = Dsim.Det.iter_sorted ~compare:Int.compare (fun _ s -> s ()) t");
  (* suppressed, file-level *)
  let src =
    {|[@@@ctslint.allow "hash-order" "stats table: callback only sums ints"]
let total h = Hashtbl.fold (fun _ v a -> v + a) h 0|}
  in
  check int "file-level suppressed" 0 (count_rule "hash-order" src)

let test_unseeded_random () =
  check int "Random.int flagged" 1
    (count_rule "unseeded-random" "let x = Random.int 10");
  check int "Random.self_init flagged" 1
    (count_rule "unseeded-random" "let () = Random.self_init ()");
  check int "rng.ml exempt" 0
    (count_rule ~file:"lib/dsim/rng.ml" "unseeded-random"
       "let x = Random.int 10");
  check int "seeded Rng clean" 0
    (count_rule "unseeded-random" "let x = Dsim.Rng.int_range r 0 10");
  check int "suppressed" 0
    (count_rule "unseeded-random"
       {|let x = (Random.int 10 [@ctslint.allow "unseeded-random" "jitter for a log banner"])|})

let test_phys_equality () =
  check int "== flagged" 1 (count_rule "phys-equality" "let f a b = a == b");
  check int "!= flagged" 1 (count_rule "phys-equality" "let f a b = a != b");
  check int "structural clean" 0
    (count_rule "phys-equality" "let f a b = a = b || a <> b");
  check int "suppressed" 0
    (count_rule "phys-equality"
       {|let f a b = (a == b) [@ctslint.allow "phys-equality" "sentinel"]|})

let test_exn_swallow () =
  check int "with _ flagged" 1
    (count_rule "exn-swallow" "let f g = try g () with _ -> 0");
  check int "specific exception clean" 0
    (count_rule "exn-swallow" "let f g = try g () with Not_found -> 0");
  check int "bound exception clean" 0
    (count_rule "exn-swallow"
       "let f g = try g () with e -> raise e");
  check int "suppressed" 0
    (count_rule "exn-swallow"
       {|let f g = (try g () with _ -> 0) [@ctslint.allow "exn-swallow" "fallback is result-identical"]|})

let test_domain_hygiene () =
  check int "Domain.spawn flagged" 1
    (count_rule "domain-hygiene" "let d = Domain.spawn f");
  check int "Domain.self flagged" 1
    (count_rule "domain-hygiene" "let i = Domain.self ()");
  check int "pool.ml exempt" 0
    (count_rule ~file:"lib/mc/pool.ml" "domain-hygiene"
       "let d = Domain.spawn f");
  (* Domain.DLS (fiber-local state) is not in the forbidden set *)
  check int "Domain.DLS clean" 0
    (count_rule "domain-hygiene" "let k = Domain.DLS.new_key f");
  check int "suppressed" 0
    (count_rule "domain-hygiene"
       {|let d = (Domain.spawn f) [@ctslint.allow "domain-hygiene" "one-shot watchdog"]|})

let test_suppression_hygiene () =
  (* a suppression without a reason is rejected AND does not suppress *)
  let r = rules_of {|let f a b = (a == b) [@ctslint.allow "phys-equality"]|} in
  check bool "missing reason reported" true
    (List.mem "bad-suppression" r);
  check bool "missing reason does not suppress" true
    (List.mem "phys-equality" r);
  (* unknown rule *)
  let r = rules_of {|let f a b = (a == b) [@ctslint.allow "no-such-rule" "x"]|} in
  check bool "unknown rule reported" true (List.mem "bad-suppression" r);
  (* a suppression that silences nothing is flagged *)
  check int "unused allow flagged" 1
    (count_rule "unused-allow"
       {|let f a b = (a = b) [@ctslint.allow "phys-equality" "stale"]|});
  check int "unused file-level allow flagged" 1
    (count_rule "unused-allow"
       {|[@@@ctslint.allow "hash-order" "stale"]
let x = 1|});
  (* used suppressions are not unused *)
  check int "used allow not flagged" 0
    (count_rule "unused-allow"
       {|let f a b = (a == b) [@ctslint.allow "phys-equality" "sentinel"]|})

(* Expect-style: the exact rendered diagnostics, location included. *)
let test_diagnostic_rendering () =
  let expected =
    [
      "lib/fixture/fix.ml:2:14: [phys-equality] physical equality (==) \
       depends on value representation, not contents; use structural \
       (=/<>) or annotate the sanctioned sentinel identity check";
    ]
  in
  check (Alcotest.list Alcotest.string) "rendered diagnostic" expected
    (diags "let _ = ()\nlet f a b = a == b")

(* ------------------------------------------------------------------ *)
(* Whole-tree gates                                                    *)

let repo_root () =
  (* Walk up from the runtime cwd (_build/default/test under dune) to the
     checkout: the first ancestor holding both .git and dune-project. *)
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

let tree_paths root =
  List.filter_map
    (fun d ->
      let p = Filename.concat root d in
      if Sys.file_exists p then Some p else None)
    [ "lib"; "bin"; "bench"; "test"; "examples" ]

let test_live_tree_clean () =
  match repo_root () with
  | None -> () (* not running from a checkout; the @lint alias covers it *)
  | Some root ->
      let r = Lint.Driver.lint_paths (tree_paths root) in
      check
        (Alcotest.list Alcotest.string)
        "zero findings on the live tree" []
        (List.map Lint.Finding.to_string r.Lint.Driver.findings);
      check bool "tree was actually linted" true (r.Lint.Driver.files > 50);
      (* every suppression in the tree carries a reason by construction;
         make sure there are some (the sanctioned sentinels) *)
      check bool "suppressions present" true
        (List.length r.Lint.Driver.suppressions >= 15)

let test_live_annotations_load_bearing () =
  (* Audit mode reports findings even where suppressed.  Every live
     [@ctslint.allow] must be load-bearing: removing any one would
     reintroduce at least one finding, which is exactly the difference
     between audit mode and normal mode (unused allows are impossible in
     a clean tree — they are themselves findings). *)
  match repo_root () with
  | None -> ()
  | Some root ->
      let paths = tree_paths root in
      let audit =
        Lint.Driver.lint_paths ~respect_suppressions:false paths
      in
      let normal = Lint.Driver.lint_paths paths in
      check int "clean under suppressions" 0
        (List.length normal.Lint.Driver.findings);
      check bool "audit mode exposes the suppressed sites" true
        (List.length audit.Lint.Driver.findings
        >= List.length normal.Lint.Driver.suppressions);
      (* spot-check an annotated file: the network's fault plane is clean
         normally, dirty with its annotations ignored *)
      let net = Filename.concat root "lib/netsim/network.ml" in
      let f_normal, _ = Lint.Driver.lint_file net in
      let f_audit, _ =
        Lint.Driver.lint_file ~respect_suppressions:false net
      in
      check int "network clean with annotations" 0 (List.length f_normal);
      check bool "network dirty without annotations" true
        (List.length f_audit > 0)

(* ------------------------------------------------------------------ *)
(* The bug class itself: iteration order independent of bucket layout   *)

let test_det_sorted_iteration () =
  (* Same bindings, different insertion orders and growth histories
     (including churn through a randomized table): identical traversal. *)
  let keys = [ 3; 1; 4; 1; 5; 9; 2; 6; 535; 89; 79; 32; 384; 626 ] in
  let build order =
    let h = Hashtbl.create ~random:true 2 in
    List.iter (fun k -> Hashtbl.replace h k (k * 10)) order;
    (* churn: force growth and tombstones *)
    List.iter (fun k -> Hashtbl.replace h (k + 1000) 0) order;
    List.iter (fun k -> Hashtbl.remove h (k + 1000)) order;
    h
  in
  let a = build keys in
  let b = build (List.rev keys) in
  let trace h =
    let acc = ref [] in
    Dsim.Det.iter_sorted ~compare:Int.compare
      (fun k v -> acc := (k, v) :: !acc)
      h;
    List.rev !acc
  in
  check bool "same traversal regardless of insertion order" true
    (trace a = trace b);
  check bool "traversal is key-sorted" true
    (let ks = List.map fst (trace a) in
     ks = List.sort_uniq Int.compare keys);
  check bool "fold_sorted agrees" true
    (Dsim.Det.fold_sorted ~compare:Int.compare
       (fun k _ acc -> k :: acc)
       a []
    = List.rev (List.map fst (trace a)));
  check bool "sorted_keys agrees" true
    (Dsim.Det.sorted_keys ~compare:Int.compare a
    = List.map fst (trace a))

(* Handler fan-out at the gcs endpoint: the View_change fan-out after a
   ring event must arrive in group-id order no matter the subscription
   order (which perturbs the subs table's bucket layout). *)
module Nid = Netsim.Node_id
module Gid = Gcs.Group_id
module Endpoint = Gcs.Endpoint
module Span = Dsim.Time.Span

let fanout_order sub_order =
  let eng = Dsim.Engine.create ~seed:7L () in
  let net =
    Netsim.Network.create eng
      {
        Netsim.Network.latency = Netsim.Latency.Constant (Span.of_us 26);
        loss = 0.;
      }
  in
  let eps =
    Array.init 3 (fun i ->
        Endpoint.create eng net ~me:(Nid.of_int i) ~bootstrap:true ())
  in
  Array.iter Endpoint.start eps;
  let seen = ref [] in
  List.iter
    (fun gi ->
      Endpoint.join_group eps.(0) (Gid.of_int gi) ~handler:(fun ev ->
          match ev with
          | Endpoint.View_change v -> seen := Gid.to_int v.Gcs.View.group :: !seen
          | _ -> ()))
    sub_order;
  let run_ms ms =
    Dsim.Engine.run
      ~until:(Dsim.Time.add (Dsim.Engine.now eng) (Span.of_ms ms))
      eng
  in
  run_ms 2_000;
  (* joins settled; isolate the ring-change fan-out *)
  seen := [];
  Endpoint.crash eps.(2);
  run_ms 5_000;
  List.rev !seen

let test_gcs_fanout_order () =
  let groups = [ 11; 3; 7; 5; 2 ] in
  let a = fanout_order groups in
  let b = fanout_order (List.rev groups) in
  let c = fanout_order (List.sort Int.compare groups) in
  check bool "fan-out happened" true (a <> []);
  check bool "order independent of subscription order (rev)" true (a = b);
  check bool "order independent of subscription order (sorted)" true (a = c);
  (* and the order is the deterministic one: ascending group id *)
  let is_sorted l = l = List.sort Int.compare l in
  check bool "each fan-out wave is group-id ascending" true
    (is_sorted (List.filteri (fun i _ -> i < List.length groups) a))

let suites =
  [
    ( "lint",
      [
        Alcotest.test_case "rule: wall-clock" `Quick test_wall_clock;
        Alcotest.test_case "wall-clock: positive" `Quick
          test_wall_clock_positive;
        Alcotest.test_case "wall-clock: suppressed" `Quick
          test_wall_clock_suppressed;
        Alcotest.test_case "rule: hash-order" `Quick test_hash_order;
        Alcotest.test_case "rule: unseeded-random" `Quick
          test_unseeded_random;
        Alcotest.test_case "rule: phys-equality" `Quick test_phys_equality;
        Alcotest.test_case "rule: exn-swallow" `Quick test_exn_swallow;
        Alcotest.test_case "rule: domain-hygiene" `Quick test_domain_hygiene;
        Alcotest.test_case "suppression hygiene" `Quick
          test_suppression_hygiene;
        Alcotest.test_case "diagnostic rendering" `Quick
          test_diagnostic_rendering;
        Alcotest.test_case "live tree lints clean" `Quick
          test_live_tree_clean;
        Alcotest.test_case "live annotations are load-bearing" `Quick
          test_live_annotations_load_bearing;
        Alcotest.test_case "Det iteration is order-independent" `Quick
          test_det_sorted_iteration;
        Alcotest.test_case "gcs fan-out order is deterministic" `Quick
          test_gcs_fanout_order;
      ] );
  ]
