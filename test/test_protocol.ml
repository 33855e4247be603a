(* Regression suite for the serve protocol's machine-readable error
   codes: every failure class must carry its stable "code" field (the
   contract clients may match on), successful responses must carry
   none, and the human-facing "error" text must stay advisory. *)

module Protocol = Nettomo_engine.Protocol
module Jsonx = Nettomo_util.Jsonx
module Obs = Nettomo_obs.Obs

let check = Alcotest.check
let cb = Alcotest.bool
let cs = Alcotest.string

let fig1_line =
  {|{"id":1,"op":"load","edges":"0 4\n0 3\n3 4\n4 5\n3 5\n3 2\n5 2\n5 6\n2 1\n6 2\n6 1","monitors":[0,1,2],"seed":11}|}

let parse_response raw =
  match Jsonx.parse raw with
  | Ok v -> v
  | Error m -> Alcotest.failf "response is not JSON (%s): %s" m raw

let member_string name v =
  match Jsonx.member name v with
  | Some (Jsonx.String s) -> Some s
  | Some _ | None -> None

(* Send one line and return (status, code option, error option). *)
let probe server line =
  let v = parse_response (Protocol.handle_line server line) in
  ( Option.value (member_string "status" v) ~default:"<missing>",
    member_string "code" v,
    member_string "error" v )

let expect_code server ~name ~code line =
  let status, got_code, got_error = probe server line in
  check cs (name ^ ": status") "error" status;
  (match got_code with
  | Some c -> check cs (name ^ ": code") code c
  | None -> Alcotest.failf "%s: error response lacks a code field" name);
  check cb (name ^ ": human-facing message present") true
    (match got_error with Some m -> String.length m > 0 | None -> false)

let expect_ok server ~name line =
  let status, got_code, _ = probe server line in
  check cs (name ^ ": status") "ok" status;
  check cb (name ^ ": no code field on success") true (got_code = None)

let fresh () = Protocol.create ~emit_wall_ms:false ()

(* ------------------------------------------------------------------ *)

let test_bad_json () =
  let s = fresh () in
  expect_code s ~name:"garbage" ~code:"bad_json" "{not json";
  expect_code s ~name:"truncated" ~code:"bad_json" {|{"id":1,"op":|};
  (* A bad line must not poison the stream: the next request works. *)
  expect_ok s ~name:"recovers" fig1_line

let test_bad_request () =
  let s = fresh () in
  expect_code s ~name:"missing op" ~code:"bad_request" {|{"id":1}|};
  expect_code s ~name:"unknown op" ~code:"bad_request"
    {|{"id":1,"op":"frobnicate"}|};
  expect_code s ~name:"op not a string" ~code:"bad_request"
    {|{"id":1,"op":42}|};
  expect_ok s ~name:"load" fig1_line;
  expect_code s ~name:"unknown delta action" ~code:"bad_request"
    {|{"id":2,"op":"delta","action":"teleport"}|};
  expect_code s ~name:"missing delta field" ~code:"bad_request"
    {|{"id":3,"op":"delta","action":"add_link","u":7}|};
  expect_code s ~name:"non-integer monitors" ~code:"bad_request"
    {|{"id":4,"op":"delta","action":"set_monitors","monitors":["zero"]}|};
  expect_code s ~name:"unknown batch query" ~code:"bad_request"
    {|{"id":5,"op":"batch","queries":["identifiable","everything"]}|}

let test_no_session () =
  let s = fresh () in
  List.iter
    (fun (name, line) -> expect_code s ~name ~code:"no_session" line)
    [
      ("query", {|{"id":1,"op":"identifiable"}|});
      ("delta", {|{"id":2,"op":"delta","action":"add_node","node":9}|});
      ("batch", {|{"id":3,"op":"batch","queries":["mmp"]}|});
      ("stats", {|{"id":4,"op":"stats"}|});
    ]

let test_bad_topology () =
  let s = fresh () in
  expect_code s ~name:"unparsable edges" ~code:"bad_topology"
    {|{"id":1,"op":"load","edges":"0 1\nnot an edge","monitors":[0]}|};
  expect_code s ~name:"foreign monitor" ~code:"bad_topology"
    {|{"id":2,"op":"load","edges":"0 1\n1 2","monitors":[0,99]}|};
  (* A rejected load leaves no session behind. *)
  expect_code s ~name:"still no session" ~code:"no_session"
    {|{"id":3,"op":"identifiable"}|}

let test_invalid_delta () =
  let s = fresh () in
  expect_ok s ~name:"load" fig1_line;
  expect_code s ~name:"duplicate node" ~code:"invalid_delta"
    {|{"id":2,"op":"delta","action":"add_node","node":0}|};
  expect_code s ~name:"self loop" ~code:"invalid_delta"
    {|{"id":3,"op":"delta","action":"add_link","u":3,"v":3}|};
  expect_code s ~name:"missing link" ~code:"invalid_delta"
    {|{"id":4,"op":"delta","action":"remove_link","u":0,"v":6}|};
  (* The session survives rejected deltas. *)
  expect_ok s ~name:"still serving" {|{"id":5,"op":"identifiable"}|}

let test_query_failed () =
  let s = fresh () in
  (* classify requires exactly two monitors; fig1 loads with three, so
     the session accepts the query and the library rejects it. *)
  expect_ok s ~name:"load" fig1_line;
  expect_code s ~name:"classify with three monitors" ~code:"query_failed"
    {|{"id":2,"op":"classify"}|}

let test_batch_suberror_code () =
  let s = fresh () in
  expect_ok s ~name:"load" fig1_line;
  let v =
    parse_response
      (Protocol.handle_line s
         {|{"id":2,"op":"batch","queries":["identifiable","classify"]}|})
  in
  (* The envelope is ok; the failing sub-result carries the code. *)
  check cs "envelope status" "ok"
    (Option.value (member_string "status" v) ~default:"<missing>");
  match Jsonx.member "results" v with
  | Some (Jsonx.List [ ok_item; err_item ]) ->
      check cs "first sub-result ok" "ok"
        (Option.value (member_string "status" ok_item) ~default:"<missing>");
      check cs "failing sub-result status" "error"
        (Option.value (member_string "status" err_item) ~default:"<missing>");
      check cs "failing sub-result code" "query_failed"
        (Option.value (member_string "code" err_item) ~default:"<missing>")
  | Some _ | None -> Alcotest.fail "batch response lacks a two-item results list"

(* A batch may list at most as many names as there are query kinds:
   eight names are refused before any is evaluated, while all seven
   kinds, and repeated names within the bound, are answered one result
   per name. *)
let test_batch_bounded_by_query_table () =
  let s = fresh () in
  expect_ok s ~name:"load" fig1_line;
  let kinds = [ "identifiable"; "classify"; "mmp"; "plan"; "coverage"; "augment"; "solve" ] in
  let batch names =
    Printf.sprintf {|{"id":2,"op":"batch","queries":[%s]}|}
      (String.concat "," (List.map (Printf.sprintf "%S") names))
  in
  expect_code s ~name:"eight names" ~code:"bad_request" (batch ("identifiable" :: kinds));
  let results names =
    match Jsonx.member "results" (parse_response (Protocol.handle_line s (batch names))) with
    | Some (Jsonx.List items) -> List.length items
    | Some _ | None -> -1
  in
  check Alcotest.int "all seven kinds" 7 (results kinds);
  check Alcotest.int "repeated names" 3 (results [ "solve"; "identifiable"; "solve" ])

let test_solve_op () =
  let s = fresh () in
  expect_ok s ~name:"load" fig1_line;
  let v = parse_response (Protocol.handle_line s {|{"id":2,"op":"solve"}|}) in
  check cs "status" "ok" (Option.value (member_string "status" v) ~default:"?");
  (* fig1 has 11 links: one walk and one recovered metric per link. *)
  (match Jsonx.member "links" v with
  | Some (Jsonx.Int 11) -> ()
  | Some j -> Alcotest.failf "links: %s" (Jsonx.to_string j)
  | None -> Alcotest.fail "solve response lacks links");
  (match Jsonx.member "measurements" v with
  | Some (Jsonx.Int 11) -> ()
  | Some j -> Alcotest.failf "measurements: %s" (Jsonx.to_string j)
  | None -> Alcotest.fail "solve response lacks measurements");
  (match Jsonx.member "metrics" v with
  | Some (Jsonx.List items) ->
      check Alcotest.int "one metric per link" 11 (List.length items);
      List.iter
        (fun item ->
          match (Jsonx.member "link" item, Jsonx.member "metric" item) with
          | Some (Jsonx.List [ Jsonx.Int _; Jsonx.Int _ ]), Some (Jsonx.Float w)
            ->
              check cb "metric positive" true (w > 0.0)
          | _ -> Alcotest.failf "malformed metric item: %s" (Jsonx.to_string item))
        items
  | Some _ | None -> Alcotest.fail "solve response lacks a metrics list");
  (* Byte-identical on a repeat: the session memo serves the same
     rendering. *)
  let a = Protocol.handle_line s {|{"id":3,"op":"solve"}|} in
  let b = Protocol.handle_line s {|{"id":3,"op":"solve"}|} in
  check cs "repeat solve is byte-identical" a b

let member_int name v =
  match Jsonx.member name v with
  | Some (Jsonx.Int i) -> Some i
  | Some _ | None -> None

let test_status_op () =
  let s = fresh () in
  (* Needs no session; the stdin fallback reports a one-job "pool". *)
  let v = parse_response (Protocol.handle_line s {|{"id":1,"op":"status"}|}) in
  check cs "status" "ok" (Option.value (member_string "status" v) ~default:"?");
  check cb "session_loaded false before load" true
    (Jsonx.member "session_loaded" v = Some (Jsonx.Bool false));
  check Alcotest.int "pool_jobs" 1
    (Option.value (member_int "pool_jobs" v) ~default:(-1));
  check Alcotest.int "pool_running" 0
    (Option.value (member_int "pool_running" v) ~default:(-1));
  expect_ok s ~name:"load" fig1_line;
  let v = parse_response (Protocol.handle_line s {|{"id":2,"op":"status"}|}) in
  check cb "session_loaded true after load" true
    (Jsonx.member "session_loaded" v = Some (Jsonx.Bool true))

let test_slow_op () =
  Obs.Slow.clear ();
  Fun.protect
    ~finally:(fun () -> Obs.Slow.clear ())
    (fun () ->
      (* slow_ms = 0 captures every request. *)
      let s = Protocol.create ~emit_wall_ms:false ~slow_ms:0. () in
      expect_ok s ~name:"load" fig1_line;
      expect_ok s ~name:"identifiable" {|{"id":2,"op":"identifiable"}|};
      let v =
        parse_response
          (Protocol.handle_line s {|{"id":3,"op":"slow","limit":1}|})
      in
      check cs "status" "ok"
        (Option.value (member_string "status" v) ~default:"?");
      check cb "count covers the captured requests" true
        (match member_int "count" v with Some c -> c >= 2 | None -> false);
      (match Jsonx.member "entries" v with
      | Some (Jsonx.List [ e ]) ->
          (* limit honoured, newest first: the identifiable request. *)
          check cs "newest entry is the identifiable request" "identifiable"
            (Option.value (member_string "op" e) ~default:"?");
          check cb "entry carries a request id" true
            (match member_int "req" e with Some r -> r > 0 | None -> false)
      | Some j -> Alcotest.failf "entries: %s" (Jsonx.to_string j)
      | None -> Alcotest.fail "slow response lacks entries");
      (* A ring without captures answers ok with zero entries. *)
      Obs.Slow.clear ();
      let v =
        parse_response (Protocol.handle_line s {|{"id":4,"op":"slow"}|})
      in
      check cb "empty ring: zero count" true
        (member_int "count" v = Some 0))

let test_metrics_op () =
  let s = fresh () in
  (* metrics needs no loaded session... *)
  let v = parse_response (Protocol.handle_line s {|{"id":1,"op":"metrics"}|}) in
  check cs "status" "ok" (Option.value (member_string "status" v) ~default:"?");
  (* ...and exposes the process-wide registry as Prometheus text. *)
  expect_ok s ~name:"load" fig1_line;
  expect_ok s ~name:"identifiable" {|{"id":2,"op":"identifiable"}|};
  let v = parse_response (Protocol.handle_line s {|{"id":3,"op":"metrics"}|}) in
  match member_string "metrics" v with
  | None -> Alcotest.fail "metrics response lacks a metrics text field"
  | Some text ->
      let contains needle =
        let lh = String.length text and ln = String.length needle in
        let rec scan i =
          i + ln <= lh && (String.sub text i ln = needle || scan (i + 1))
        in
        ln = 0 || scan 0
      in
      List.iter
        (fun series ->
          check Alcotest.bool (series ^ " exposed") true (contains series))
        [
          "session_queries_total";
          "session_memo_misses_total";
          {|session_memo_misses_total{query="identifiable"}|};
          "session_full_computes_total";
        ]

(* ------------------------------------------------------------------ *)
(* Framing: the line splitter shared by the stdin loop and the socket
   server. The load-bearing regression is the EOF rule — a final
   request that reaches end-of-stream without a trailing newline must
   still be answered, on both front ends by construction. *)

module Framing = Nettomo_engine.Framing

let sl = Alcotest.(list string)

let test_framing_chunks () =
  let fr = Framing.create () in
  check sl "partial line buffers" [] (Framing.feed fr "ab");
  check sl "completion joins the chunks" [ "abc" ] (Framing.feed fr "c\n");
  check sl "many lines in one feed" [ "x"; "y" ] (Framing.feed fr "x\ny\nz");
  check cb "no overflow" false (Framing.overflowed fr);
  (match Framing.close fr with
  | Some tail -> check cs "EOF delivers the partial final line" "z" tail
  | None -> Alcotest.fail "final partial line lost at EOF");
  check cb "close drains the buffer" true (Framing.close fr = None);
  (* Empty lines between separators are delivered (the protocol layer,
     not the framing layer, skips blanks). *)
  let fr = Framing.create () in
  check sl "empty lines preserved" [ "a"; ""; "b" ] (Framing.feed fr "a\n\nb\n");
  check cb "clean EOF yields nothing" true (Framing.close fr = None)

let test_framing_overflow () =
  let fr = Framing.create ~max_line_bytes:4 () in
  check sl "lines before the oversized one still arrive" [ "ab" ]
    (Framing.feed fr "ab\ntoolong\ncd\n");
  check cb "overflow latched" true (Framing.overflowed fr);
  check sl "input after overflow is discarded" [] (Framing.feed fr "ef\n");
  check cb "no final line from an overflowed stream" true
    (Framing.close fr = None);
  (* A line of exactly the bound is fine; one byte more is not. *)
  let fr = Framing.create ~max_line_bytes:4 () in
  check sl "at the bound" [ "abcd" ] (Framing.feed fr "abcd\n");
  check cb "still healthy" false (Framing.overflowed fr);
  (* Overflow also trips on an unterminated line that grows past the
     bound across feeds (the slowloris shape). *)
  let fr = Framing.create ~max_line_bytes:4 () in
  check sl "first chunk under the bound" [] (Framing.feed fr "abc");
  check sl "second chunk crosses it" [] (Framing.feed fr "de");
  check cb "overflow across feeds" true (Framing.overflowed fr)

(* Fuzzed framing: random byte strings — NUL, carriage returns, bytes
   at or above 0x80, newlines, and often no trailing newline — cut into
   random chunks. Whatever the chunking, feed then close must give the
   newline-split lines of the whole string (an empty tail dropped);
   under a line bound L, the lines before the first one longer than L,
   with the overflow latch set iff such a line exists. *)
let fuzz_bytes =
  QCheck2.Gen.(
    string_size ~gen:(frequency [ (4, char); (2, oneofl [ '\n'; '\r'; '\000'; '\xff'; '\x80' ]); (3, oneofl [ 'a'; 'b'; ' ' ]) ])
      (int_bound 120))

let chunked s sizes =
  let n = String.length s in
  let rec go i sizes acc =
    if i >= n then List.rev acc
    else
      match sizes with
      | [] -> List.rev (String.sub s i (n - i) :: acc)
      | k :: rest ->
          let k = min k (n - i) in
          go (i + k) rest (String.sub s i k :: acc)
  in
  go 0 sizes []

let split_lines s =
  match List.rev (String.split_on_char '\n' s) with
  | "" :: rest -> List.rev rest
  | lines -> List.rev lines

let framed ?max_line_bytes chunks =
  let fr = Framing.create ?max_line_bytes () in
  let lines = List.concat_map (Framing.feed fr) chunks in
  (lines @ Option.to_list (Framing.close fr), Framing.overflowed fr)

let prop_framing_fuzz =
  QCheck2.Test.make ~name:"framing: fuzzed chunks give the newline-split lines" ~count:3000
    QCheck2.Gen.(triple fuzz_bytes (list_size (int_bound 12) (int_bound 9)) (int_range 1 24))
    (fun (s, sizes, bound) ->
      let lines = split_lines s in
      let rec before_long = function
        | l :: rest when String.length l <= bound -> l :: before_long rest
        | _ -> []
      in
      let short = before_long lines in
      framed (chunked s sizes) = (lines, false)
      && framed ~max_line_bytes:bound (chunked s sizes)
         = (short, List.length short < List.length lines))

(* Fuzzed requests against a loaded session: random bytes, and the
   golden request lines with one top-level field's value swapped for
   JSON of another type. Every answer must be one JSON object line
   whose status is "ok", or "error" with a known code, and nothing may
   raise; the session must still answer afterwards. *)
let golden_requests =
  [
    fig1_line;
    {|{"id":1,"op":"load","edges":"0 1\n0 2\n1 2\n1 3\n2 3","monitors":[0,3]}|};
    {|{"id":2,"op":"identifiable"}|};
    {|{"id":3,"op":"mmp"}|};
    {|{"id":4,"op":"delta","action":"remove_link","u":6,"v":2}|};
    {|{"id":6,"op":"delta","action":"add_link","u":6,"v":2}|};
    {|{"id":8,"op":"batch","queries":["identifiable","mmp","plan"]}|};
    {|{"id":9,"op":"delta","action":"set_monitors","monitors":[0,1]}|};
    {|{"id":10,"op":"classify"}|};
    {|{"id":12,"op":"stats"}|};
    {|{"id":14,"op":"coverage"}|};
    {|{"id":15,"op":"augment","k":2}|};
    {|{"id":16,"op":"batch","queries":["coverage","augment"]}|};
    {|{"id":14,"op":"solve"}|};
    {|{"id":16,"op":"status"}|};
    {|{"id":9,"op":"slow","limit":4}|};
    {|{"id":17,"op":"metrics"}|};
  ]

let other_json =
  [
    "null"; "true"; "false"; "1.5"; "-1"; "0"; "4611686018427387903";
    "12345678901234567890123"; "-12345678901234567890123"; "1e308"; "-1e308";
    {|""|}; {|"x"|}; {|"load"|}; {|"delta"|}; {|"0 1\n1 2"|}; {|"\u0000\r\u00ff"|};
    "[]"; "[0,1]"; "[[0],[1,[2]]]"; {|[null,true,"a"]|}; "{}"; {|{"a":[1,{"b":null}]}|};
  ]

let mutated line field value =
  match Jsonx.parse line with
  | Ok (Jsonx.Obj fields) ->
      let i = field mod List.length fields in
      "{"
      ^ String.concat ","
          (List.mapi
             (fun j (k, v) ->
               Jsonx.to_string (Jsonx.String k)
               ^ ":"
               ^ if i = j then value else Jsonx.to_string v)
             fields)
      ^ "}"
  | Ok _ | Error _ -> line

let well_formed answer =
  let codes =
    List.map Protocol.code_to_string
      Protocol.
        [ Bad_json; Bad_request; No_session; Bad_topology; Invalid_delta; Query_failed; Overloaded ]
  in
  (not (String.contains answer '\n'))
  &&
  match Jsonx.parse answer with
  | Ok (Jsonx.Obj _ as v) -> (
      match (member_string "status" v, member_string "code" v) with
      | Some "ok", None -> true
      | Some "error", Some code -> List.mem code codes
      | _ -> false)
  | Ok _ | Error _ -> false

let prop_protocol_fuzz =
  QCheck2.Test.make ~name:"protocol: fuzzed requests get one well-formed answer" ~count:2000
    QCheck2.Gen.(
      oneof
        [
          map (fun s -> `Bytes s) fuzz_bytes;
          map3
            (fun line field value -> `Mutated (line, field, value))
            (oneofl golden_requests) (int_bound 7) (oneofl other_json);
        ])
    (fun input ->
      let line =
        match input with
        | `Bytes s -> s
        | `Mutated (line, field, value) -> mutated line field value
      in
      let s = fresh () in
      ignore (Protocol.handle_line s fig1_line);
      well_formed (Protocol.handle_line s line)
      && well_formed (Protocol.handle_line s {|{"id":0,"op":"identifiable"}|}))

(* Run [Protocol.serve] over a byte string, returning the raw output. *)
let serve_string input =
  let in_file = Filename.temp_file "nettomo_serve" ".in" in
  let out_file = Filename.temp_file "nettomo_serve" ".out" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove in_file with Sys_error _ -> ());
      try Sys.remove out_file with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin in_file (fun oc ->
          Out_channel.output_string oc input);
      let s = fresh () in
      In_channel.with_open_bin in_file (fun ic ->
          Out_channel.with_open_bin out_file (fun oc ->
              Protocol.serve s ic oc));
      In_channel.with_open_bin out_file In_channel.input_all)

let test_serve_eof_without_newline () =
  let requests = fig1_line ^ "\n" ^ {|{"id":2,"op":"identifiable"}|} in
  (* No trailing newline: the second request ends at EOF. *)
  let out = serve_string requests in
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> l <> "")
  in
  check Alcotest.int "both requests answered" 2 (List.length lines);
  let v = parse_response (List.nth lines 1) in
  check cs "final request status" "ok"
    (Option.value (member_string "status" v) ~default:"<missing>");
  check cb "final request id echoed" true
    (Jsonx.member "id" v = Some (Jsonx.Int 2));
  (* And the unterminated stream answers byte-identically to the
     terminated one. *)
  check cs "newline at EOF is immaterial" (serve_string (requests ^ "\n")) out

let suite =
  [
    Alcotest.test_case "bad_json" `Quick test_bad_json;
    Alcotest.test_case "bad_request" `Quick test_bad_request;
    Alcotest.test_case "no_session" `Quick test_no_session;
    Alcotest.test_case "bad_topology" `Quick test_bad_topology;
    Alcotest.test_case "invalid_delta" `Quick test_invalid_delta;
    Alcotest.test_case "query_failed" `Quick test_query_failed;
    Alcotest.test_case "batch sub-error carries code" `Quick
      test_batch_suberror_code;
    Alcotest.test_case "batch bounded by the query table" `Quick
      test_batch_bounded_by_query_table;
    Alcotest.test_case "solve op recovers every link metric" `Quick
      test_solve_op;
    Alcotest.test_case "status op: stdin fallback snapshot" `Quick
      test_status_op;
    Alcotest.test_case "slow op: ring query with limit" `Quick test_slow_op;
    Alcotest.test_case "metrics op dumps the registry" `Quick test_metrics_op;
    Alcotest.test_case "framing: incremental chunks" `Quick test_framing_chunks;
    Alcotest.test_case "framing: oversized lines" `Quick test_framing_overflow;
    QCheck_alcotest.to_alcotest prop_framing_fuzz;
    QCheck_alcotest.to_alcotest prop_protocol_fuzz;
    Alcotest.test_case "serve answers a final line without newline" `Quick
      test_serve_eof_without_newline;
  ]
