(* The repository benchmark: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it measures the end-to-end metrics with no probe
   attached; with --trace 1 it runs an untraced and a traced leg and
   reports the per-layer metrics.  The last line of standard output is
   the JSON result; the lines before it say what was measured.  Exits 1
   when a correctness gate failed, 2 on bad arguments, and 3 with no
   result line when the workload raised an exception.  See README.md
   beside this file. *)

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed every input is generated from");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--commit", Arg.Set_string commit, "REV commit for the metadata line");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Perfbench.Workloads.find !workload with
    | Some w -> w
    | None ->
        prerr_endline ("unknown --workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 in
  Printf.printf
    "meta: workload=%s seed=%d seconds=%g trace=%b nproc=%d domains=%d \
     ocaml=%s commit=%s\n%!"
    w.name !seed !seconds trace
    (Domain.recommended_domain_count ())
    w.domains Sys.ocaml_version !commit;
  let o =
    match w.run `Full ~seed:(Int64.of_int !seed) ~seconds:!seconds ~trace with
    | o -> o
    | exception e ->
        prerr_endline ("workload raised " ^ Printexc.to_string e);
        exit 3
  in
  let table =
    if trace then Perfbench.Common.per_layer else Perfbench.Common.end_to_end
  in
  List.iter (Printf.printf "note: %s\n") o.notes;
  List.iter
    (fun (g, ok) ->
      Printf.printf "gate: %-52s %s\n" g (if ok then "ok" else "FAILED"))
    o.gates;
  List.iter
    (fun (s : Perfbench.Common.spec) ->
      match List.assoc_opt s.name o.metrics with
      | Some v -> Printf.printf "metric: %-32s %14.6g %s\n" s.name v s.unit_
      | None -> Printf.printf "metric: %-32s %14s %s\n" s.name "-" s.unit_)
    table;
  print_endline (Perfbench.Workloads.result_json o table);
  if not (Perfbench.Common.correct o) then exit 1
