(* The benchmark's workloads, by the names BENCHMARK.json lists.  [run]
   takes [`Full] for the measured size and [`Tiny] for the self-test. *)

type size = [ `Full | `Tiny ]

type t = {
  name : string;
  run : size -> seed:int64 -> seconds:float -> trace:bool -> Common.outcome;
  domains : int;  (** OCaml domains the workload runs on *)
}

let pick size ~full ~tiny = match size with `Full -> full | `Tiny -> tiny

let all =
  [
    {
      name = "rpc_reads";
      run =
        (fun size ->
          Rpc_reads.run (pick size ~full:Rpc_reads.full ~tiny:Rpc_reads.tiny));
      domains = 1;
    };
    {
      name = "hier_1024";
      run =
        (fun size ->
          Hier_1024.run (pick size ~full:Hier_1024.full ~tiny:Hier_1024.tiny));
      domains = 1;
    };
    {
      name = "explore_crash";
      run =
        (fun size ->
          Explore_crash.run
            (pick size ~full:Explore_crash.full ~tiny:Explore_crash.tiny));
      domains = Explore_crash.jobs;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* The final result line: exactly [correct], [attempted], [failed] and
   [metrics], the latter holding every metric of [table] by name. *)
let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "json_number: not a finite value"

let result_json (o : Common.outcome) table =
  let metric (s : Common.spec) =
    let v =
      Option.value ~default:0.
        (List.assoc_opt s.Common.name o.Common.metrics)
    in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" s.Common.name
      (json_number v) s.Common.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (Common.correct o) o.Common.attempted o.Common.failed
    (String.concat ", " (List.map metric table))
