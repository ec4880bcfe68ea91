type phase = Begin | End | Instant

type event = {
  ph : phase;
  ts_ns : int;
  pid : int;
  sub : Subsystem.t;
  name : string;
  args : (string * int) list;
}

type t = event array

let of_list = Array.of_list
let length = Array.length
let iter t f = Array.iter f t
let events = Array.to_list

let subsystems t =
  let seen = Array.make Subsystem.count false in
  iter t (fun e -> seen.(Subsystem.to_int e.sub) <- true);
  List.filter (fun s -> seen.(Subsystem.to_int s)) Subsystem.all

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)

(* Probe names are static strings without specials, but args come from
   callers; escape defensively anyway. *)
let add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Simulated time is integer nanoseconds; Chrome's [ts] field is
   microseconds but accepts fractions, so ns precision survives as three
   decimals and per-thread ordering is preserved exactly. *)
let add_ts b ts_ns =
  Buffer.add_string b (Printf.sprintf "%d.%03d" (ts_ns / 1000) (ts_ns mod 1000))

let default_process_name pid = Printf.sprintf "replica %d" pid

let add_meta b ~first ~pid ~tid ~kind ~name =
  if not !first then Buffer.add_string b ",\n";
  first := false;
  Buffer.add_string b
    (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":"
       kind pid tid);
  add_json_string b name;
  Buffer.add_string b "}}"

let to_chrome ?(process_name = default_process_name) t b =
  Buffer.add_string b "{\"traceEvents\":[\n";
  let first = ref true in
  (* Metadata: one process per pid, one named thread per (pid, subsystem)
     actually present in the stream. *)
  let pids = Hashtbl.create 16 in
  iter t (fun e ->
      let key = (e.pid, Subsystem.to_int e.sub) in
      if not (Hashtbl.mem pids key) then Hashtbl.add pids key e.sub);
  (* Sort applied directly to the fold: the hash order never escapes
     (ctslint's hash-order rule recognizes exactly this shape). *)
  let keys =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) pids [])
  in
  let seen_pid = Hashtbl.create 16 in
  List.iter
    (fun (pid, tid) ->
      if not (Hashtbl.mem seen_pid pid) then begin
        Hashtbl.add seen_pid pid ();
        add_meta b ~first ~pid ~tid:0 ~kind:"process_name"
          ~name:(process_name pid)
      end;
      add_meta b ~first ~pid ~tid ~kind:"thread_name"
        ~name:(Subsystem.name (Hashtbl.find pids (pid, tid))))
    keys;
  iter t (fun e ->
      if not !first then Buffer.add_string b ",\n";
      first := false;
      Buffer.add_string b "{\"name\":";
      add_json_string b e.name;
      Buffer.add_string b ",\"ph\":\"";
      Buffer.add_string b
        (match e.ph with Begin -> "B" | End -> "E" | Instant -> "I");
      Buffer.add_string b "\",\"ts\":";
      add_ts b e.ts_ns;
      Buffer.add_string b
        (Printf.sprintf ",\"pid\":%d,\"tid\":%d" e.pid (Subsystem.to_int e.sub));
      (match e.ph with
      | Instant -> Buffer.add_string b ",\"s\":\"t\""
      | Begin | End -> ());
      (match e.args with
      | [] -> ()
      | args ->
          Buffer.add_string b ",\"args\":{";
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_char b ',';
              add_json_string b k;
              Buffer.add_string b (Printf.sprintf ":%d" v))
            args;
          Buffer.add_char b '}');
      Buffer.add_char b '}');
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n"

let write_chrome_file ?process_name t path =
  let b = Buffer.create (65536 + (Array.length t * 96)) in
  to_chrome ?process_name t b;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc b)

(* ------------------------------------------------------------------ *)
(* Validation: a minimal JSON reader (no external deps are available)
   plus the schema checks CI relies on — well-formed JSON, the
   trace-event envelope, and per-(pid, tid) timestamp monotonicity. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
      | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail ("bad literal " ^ lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'; advance ()
          | '\\' -> Buffer.add_char b '\\'; advance ()
          | '/' -> Buffer.add_char b '/'; advance ()
          | 'b' -> Buffer.add_char b '\b'; advance ()
          | 'f' -> Buffer.add_char b '\012'; advance ()
          | 'n' -> Buffer.add_char b '\n'; advance ()
          | 'r' -> Buffer.add_char b '\r'; advance ()
          | 't' -> Buffer.add_char b '\t'; advance ()
          | 'u' ->
              if !pos + 4 >= n then fail "bad \\u escape";
              (* Code points above the validator's needs collapse to '?';
                 the traces we emit are ASCII. *)
              Buffer.add_char b '?';
              pos := !pos + 5
          | _ -> fail "bad escape");
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                members ((k, v) :: acc)
            | '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                elements (v :: acc)
            | ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
        end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

type summary = {
  v_events : int;  (** non-metadata trace events *)
  v_pids : int;
  v_subsystems : string list;  (** distinct thread names, sorted *)
}

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let validate_events events =
  (* Last timestamp and open-span depth per (pid, tid). *)
  let last_ts : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let depth : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let pids = Hashtbl.create 16 in
  let subs = Hashtbl.create 16 in
  let count = ref 0 in
  let err = ref None in
  let check i e =
    match (member "ph" e, member "pid" e, member "tid" e) with
    | Some (Str ph), Some (Num pid), Some (Num tid) -> (
        let key = (int_of_float pid, int_of_float tid) in
        match ph with
        | "M" -> (
            match (member "name" e, member "args" e) with
            | Some (Str "thread_name"), Some args -> (
                match member "name" args with
                | Some (Str s) -> Hashtbl.replace subs s ()
                | _ -> ())
            | _ -> ())
        | "B" | "E" | "I" -> (
            incr count;
            Hashtbl.replace pids (fst key) ();
            match member "ts" e with
            | Some (Num ts) ->
                (match Hashtbl.find_opt last_ts key with
                | Some prev when ts < prev ->
                    if !err = None then
                      err :=
                        Some
                          (Printf.sprintf
                             "event %d: ts %.3f < %.3f on pid %d tid %d" i ts
                             prev (fst key) (snd key))
                | _ -> ());
                Hashtbl.replace last_ts key ts;
                let d = Option.value ~default:0 (Hashtbl.find_opt depth key) in
                let d' =
                  match ph with "B" -> d + 1 | "E" -> d - 1 | _ -> d
                in
                if d' < 0 && !err = None then
                  err :=
                    Some
                      (Printf.sprintf
                         "event %d: span end without begin on pid %d tid %d" i
                         (fst key) (snd key));
                Hashtbl.replace depth key d'
            | _ ->
                if !err = None then
                  err := Some (Printf.sprintf "event %d: missing ts" i))
        | ph ->
            if !err = None then
              err := Some (Printf.sprintf "event %d: unknown ph %S" i ph))
    | _ ->
        if !err = None then
          err := Some (Printf.sprintf "event %d: missing ph/pid/tid" i)
  in
  List.iteri check events;
  (* A positive final depth is fine — the capture may end while spans are
     still open (Chrome renders them as unfinished); only an End without
     a matching Begin is a schema violation, caught above. *)
  match !err with
  | Some e -> Error e
  | None ->
      let subsystems =
        List.sort String.compare
          (Hashtbl.fold (fun s () acc -> s :: acc) subs [])
      in
      Ok { v_events = !count; v_pids = Hashtbl.length pids; v_subsystems = subsystems }

let validate_string s =
  match parse_json s with
  | exception Parse_error msg -> Error ("not well-formed JSON: " ^ msg)
  | j -> (
      match member "traceEvents" j with
      | Some (Arr events) -> validate_events events
      | Some _ -> Error "traceEvents is not an array"
      | None -> Error "missing traceEvents member")

let validate_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | s -> validate_string s
