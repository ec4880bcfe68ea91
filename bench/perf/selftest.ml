(* Tests of the benchmark itself: the metric and workload names it
   prints are exactly those BENCHMARK.json lists, and a tiny-size run of
   every workload passes its correctness gates with exact per-layer
   metrics that repeat bit-for-bit. *)

module Common = Perfbench.Common
module Workloads = Perfbench.Workloads

let read_file path = In_channel.with_open_text path In_channel.input_all

(* The text of the JSON array under [key] (the file is ours and its
   arrays hold flat objects only, so the first ']' closes it). *)
let section json key =
  let k = "\"" ^ key ^ "\"" in
  let rec find i =
    if String.sub json i (String.length k) = k then i else find (i + 1)
  in
  let start = String.index_from json (find 0) '[' in
  String.sub json start (String.index_from json start ']' - start)

(* Every string value of [field] in [text], in order. *)
let strings_of field text =
  let k = "\"" ^ field ^ "\": \"" in
  let n = String.length k in
  let rec go i acc =
    if i + n > String.length text then List.rev acc
    else if String.sub text i n = k then
      let j = String.index_from text (i + n) '"' in
      go (j + 1) (String.sub text (i + n) (j - i - n) :: acc)
    else go (i + 1) acc
  in
  go 0 []

let bench = lazy (read_file "../../BENCHMARK.json")
let str_list = Alcotest.(list string)

let table_matches key table () =
  let s = section (Lazy.force bench) key in
  Alcotest.check str_list (key ^ " names")
    (List.map (fun (m : Common.spec) -> m.Common.name) table)
    (strings_of "name" s);
  Alcotest.check str_list (key ^ " units")
    (List.map (fun (m : Common.spec) -> m.Common.unit_) table)
    (strings_of "unit" s)

let workloads_match () =
  Alcotest.check str_list "workload names"
    (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all)
    (strings_of "name" (section (Lazy.force bench) "workloads"))

let names table = List.map (fun (m : Common.spec) -> m.Common.name) table

let check_gates what (o : Common.outcome) =
  List.iter
    (fun (g, ok) -> Alcotest.(check bool) (what ^ ": " ^ g) true ok)
    o.Common.gates;
  Alcotest.(check int) (what ^ ": failed ops") 0 o.Common.failed;
  Alcotest.(check bool) (what ^ ": attempted") true (o.Common.attempted >= 1)

let untraced (w : Workloads.t) () =
  let o = w.Workloads.run `Tiny ~seed:1L ~seconds:0. ~trace:false in
  check_gates w.Workloads.name o;
  Alcotest.check str_list "every end-to-end metric, nothing else"
    (names Common.end_to_end)
    (List.map fst o.Common.metrics);
  List.iter
    (fun (n, v) ->
      Alcotest.(check bool)
        (n ^ " is positive") true
        (Float.is_finite v && v > 0.))
    o.Common.metrics

let traced (w : Workloads.t) () =
  let run () = w.Workloads.run `Tiny ~seed:3L ~seconds:0. ~trace:true in
  let a = run () and b = run () in
  check_gates w.Workloads.name a;
  check_gates w.Workloads.name b;
  List.iter
    (fun (n, _) ->
      Alcotest.(check bool) (n ^ " is a listed per-layer metric") true
        (List.mem n (names Common.per_layer)))
    a.Common.metrics;
  List.iter
    (fun (m : Common.spec) ->
      if m.Common.exact then
        let v o = List.assoc_opt m.Common.name o.Common.metrics in
        Alcotest.(check (option (float 0.)))
          (m.Common.name ^ " repeats") (v a) (v b))
    Common.per_layer

let result_line () =
  let o =
    {
      Common.attempted = 3;
      failed = 0;
      gates = [];
      metrics = [ ("setup_s", 0.5) ];
      notes = [];
    }
  in
  Alcotest.(check string) "result line"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
     {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"ops_per_s\": \
     {\"value\": 0, \"unit\": \"1/s\"}, \"peak_rss_mb\": {\"value\": 0, \
     \"unit\": \"MB\"}}}"
    (Workloads.result_json o Common.end_to_end)

let () =
  let per_workload f =
    List.map
      (fun (w : Workloads.t) ->
        Alcotest.test_case w.Workloads.name `Quick (f w))
      Workloads.all
  in
  Alcotest.run "perfbench"
    [
      ( "names",
        [
          Alcotest.test_case "end_to_end" `Quick
            (table_matches "end_to_end" Common.end_to_end);
          Alcotest.test_case "per_layer" `Quick
            (table_matches "per_layer" Common.per_layer);
          Alcotest.test_case "workloads" `Quick workloads_match;
          Alcotest.test_case "result line" `Quick result_line;
        ] );
      ("untraced", per_workload untraced);
      ("traced", per_workload traced);
    ]
