module Time = Dsim.Time
module Span = Dsim.Time.Span

type observation = {
  replica : int;
  round : int;
  gc : Time.t;
  pc : Time.t;
  at : Time.t;
}

type outcome = {
  replicas : int;
  rounds : int;
  observations : observation list array;
  stats : Cts.Service.stats array;
  crashed : int option;
}

type t = {
  name : string;
  doc : string;
  check : outcome -> (unit, string) result;
}

let fail fmt = Format.kasprintf (fun s -> Error s) fmt

(* Checks run on every explored schedule; a monomorphic test beats
   polymorphic equality against [Ok ()] in the inner loops. *)
let ok = function Ok () -> true | Error _ -> false

let alive o i = match o.crashed with Some c -> c <> i | None -> true

(* §3 property 1: the group clock never runs backwards at any replica. *)
let monotone =
  {
    name = "monotone";
    doc = "per-replica group clock readings are non-decreasing";
    check =
      (fun o ->
        let rec go i last = function
          | [] -> Ok ()
          | (obs : observation) :: rest ->
              if Time.(obs.gc < last) then
                fail
                  "replica %d: group clock rolled back at round %d (%a after \
                   %a)"
                  i obs.round Time.pp obs.gc Time.pp last
              else go i obs.gc rest
        in
        let rec each i =
          if i >= o.replicas then Ok ()
          else
            match go i Time.epoch o.observations.(i) with
            | Ok () -> each (i + 1)
            | Error _ as e -> e
        in
        each 0);
  }

(* §3 property 2: the group clock is identical at every replica — all
   replicas that completed a round adopted the same winner value. *)
let agreement =
  {
    name = "agreement";
    doc = "all replicas adopt the same group clock value for each round";
    check =
      (fun o ->
        (* Indexed by round (rounds are small, dense integers); checked on
           every explored schedule, so stay off hash tables and list
           concatenation here. *)
        let max_round = ref o.rounds in
        Array.iter
          (List.iter (fun (obs : observation) ->
               if obs.round > !max_round then max_round := obs.round))
          o.observations;
        let max_round = !max_round in
        let first : observation option array = Array.make (max_round + 1) None in
        let result = ref (Ok ()) in
        Array.iter
          (List.iter (fun (obs : observation) ->
               if ok !result then
                 match first.(obs.round) with
                 | None -> first.(obs.round) <- Some obs
                 | Some w ->
                     if not (Time.equal w.gc obs.gc) then
                       result :=
                         fail
                           "round %d: replica %d adopted %a but replica %d \
                            adopted %a"
                           obs.round obs.replica Time.pp obs.gc w.replica
                           Time.pp w.gc))
          o.observations;
        !result);
  }

(* §3/§4.3: exactly one synchronizer per round.  Locally that means every
   completed round accounts for exactly one send-or-suppress decision, the
   rounds of a replica are strictly sequential, and globally at least one
   CCS message was multicast per distinct round (the winner's). *)
let single_synchronizer =
  {
    name = "single-synchronizer";
    doc =
      "every round has exactly one winning CCS message; per replica, one \
       send-or-suppress per round";
    check =
      (fun o ->
        let max_round = ref o.rounds in
        Array.iter
          (List.iter (fun (obs : observation) ->
               if obs.round > !max_round then max_round := obs.round))
          o.observations;
        let max_round = !max_round in
        let distinct = Array.make (max_round + 1) false in
        let result = ref (Ok ()) in
        Array.iteri
          (fun i obs_list ->
            if ok !result && alive o i then begin
              let rounds = List.length obs_list in
              let expect = ref 1 in
              List.iter
                (fun (obs : observation) ->
                  distinct.(obs.round) <- true;
                  if ok !result && obs.round <> !expect then
                    result :=
                      fail
                        "replica %d: rounds not sequential (saw %d, expected \
                         %d)"
                        i obs.round !expect;
                  incr expect)
                obs_list;
              let s = o.stats.(i) in
              if
                ok !result
                && s.Cts.Service.ccs_sent + s.Cts.Service.suppressed <> rounds
              then
                result :=
                  fail
                    "replica %d: %d rounds but %d sent + %d suppressed CCS \
                     messages"
                    i rounds s.Cts.Service.ccs_sent s.Cts.Service.suppressed
            end)
          o.observations;
        (match !result with
        | Ok () ->
            let total_sent =
              Array.fold_left
                (fun acc (s : Cts.Service.stats) -> acc + s.ccs_sent)
                0 o.stats
            in
            let rounds_seen =
              Array.fold_left (fun n b -> if b then n + 1 else n) 0 distinct
            in
            if total_sent < rounds_seen then
              result :=
                fail "only %d CCS messages sent for %d distinct rounds"
                  total_sent rounds_seen
        | Error _ -> ());
        !result);
  }

(* §1/§3.3: no roll-back, in particular across a primary failover — the
   service-level roll-back counters must stay at zero at every survivor. *)
let no_rollback =
  {
    name = "no-rollback";
    doc = "no surviving replica ever observed its group clock roll back";
    check =
      (fun o ->
        let result = ref (Ok ()) in
        Array.iteri
          (fun i (s : Cts.Service.stats) ->
            if ok !result && alive o i && s.rollbacks > 0 then
              result :=
                fail "replica %d: %d roll-back(s), worst %a" i s.rollbacks
                  Span.pp s.max_rollback)
          o.stats;
        !result);
  }

let builtin = [ monotone; agreement; single_synchronizer; no_rollback ]
let registered : t list ref = ref []
[@@ctslint.domain_owned
  "invariant registry: populated on the main domain while setting up a \
   scenario, before Mc.Pool workers start; workers only read it (all)"]
let register inv = registered := !registered @ [ inv ]
let reset_registered () = registered := []
let all () = builtin @ !registered

let check_all outcome =
  List.filter_map
    (fun inv ->
      match inv.check outcome with
      | Ok () -> None
      | Error msg -> Some (inv.name, msg))
    (all ())
