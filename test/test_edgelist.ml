open Nettomo_graph
open Nettomo_topo

let check = Alcotest.check
let cb = Alcotest.bool

let test_parse_basic () =
  let g = Edgelist.of_string "0 1\n1 2\n# comment\n\n2 3 # trailing comment\n" in
  check Fixtures.graph_testable "parsed"
    (Graph.of_edges [ (0, 1); (1, 2); (2, 3) ])
    g

let test_parse_isolated () =
  let g = Edgelist.of_string "node 7\n0 1\n" in
  check cb "isolated node present" true (Graph.mem_node g 7);
  check Alcotest.int "three nodes" 3 (Graph.n_nodes g)

let test_parse_tabs () =
  (* Regression: fields split on any run of blanks, so tab-separated
     edge files (TSV exports) parse like space-separated ones. *)
  let g = Edgelist.of_string "0\t1\n1 \t 2\nnode\t7\n" in
  check Fixtures.graph_testable "tab separated"
    (Graph.of_edges ~nodes:[ 7 ] [ (0, 1); (1, 2) ])
    g

let test_parse_errors () =
  let fails s =
    try
      ignore (Edgelist.of_string s);
      false
    with Edgelist.Parse_error _ -> true
  in
  check cb "garbage" true (fails "0 x\n");
  check cb "self loop" true (fails "3 3\n");
  check cb "three fields" true (fails "1 2 3\n");
  check cb "error carries line number" true
    (try
       ignore (Edgelist.of_string "0 1\nbad line\n");
       false
     with Edgelist.Parse_error { line; message } ->
       line = 2 && String.length message > 0);
  check cb "result variant reports the error" true
    (match Edgelist.parse "0 1\nbad line\n" with
    | Error msg ->
        let rec contains i =
          i + 6 <= String.length msg
          && (String.sub msg i 6 = "line 2" || contains (i + 1))
        in
        contains 0
    | Ok _ -> false);
  check cb "result variant parses good input" true
    (match Edgelist.parse "0 1\n1 2\n" with Ok _ -> true | Error _ -> false)

let test_roundtrip () =
  let g = Graph.of_edges ~nodes:[ 42 ] [ (0, 1); (5, 2); (2, 0) ] in
  check Fixtures.graph_testable "roundtrip" g (Edgelist.of_string (Edgelist.to_string g))

let test_file_roundtrip () =
  let g = Fixtures.petersen in
  let file = Filename.temp_file "nettomo" ".edges" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (Edgelist.to_string g));
      check Fixtures.graph_testable "file roundtrip" g (Edgelist.read_file file))

let prop_roundtrip_random =
  QCheck2.Test.make ~name:"string roundtrip on random graphs" ~count:100
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 30) (int_range 0 30))
    (fun (seed, n, extra) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      Graph.equal g (Edgelist.of_string (Edgelist.to_string g)))

(* Token soup: ids (decimal, signed, 0x/0b/0o/underscore forms,
   out-of-range integers), the [node] keyword, comments, tabs, \r, NUL
   and bytes >= 0x80, in lines that are mostly well-formed link or node
   lines so that many inputs parse. [parse] must answer [Ok] or [Error]
   without raising, and every graph it accepts must survive a round
   trip through [to_string]. *)
let edgelist_id =
  QCheck2.Gen.(
    frequency
      [
        (8, map string_of_int (int_range (-3) 12));
        ( 2,
          oneofl
            [
              "+3"; "-0"; "0x1f"; "0X1F"; "0b101"; "0o17"; "1_000"; "_1"; "0x"; "1e3"; "3.0";
              "4611686018427387903"; "-4611686018427387904"; "4611686018427387904";
              "99999999999999999999"; "0x7fffffffffffffff"; "--1"; "1-2";
            ] );
      ])

let edgelist_token =
  QCheck2.Gen.(
    frequency
      [
        (4, edgelist_id);
        (2, oneofl [ "node"; "#"; "# x y"; "\t"; "\r"; "\000"; "\x80"; "\xff"; "\xc3\xa9" ]);
        (1, map (String.make 1) char);
      ])

let edgelist_blank = QCheck2.Gen.oneofl [ " "; "  "; "\t"; " \t " ]

let edgelist_line =
  QCheck2.Gen.(
    frequency
      [
        (6, map3 (fun u sep v -> u ^ sep ^ v) edgelist_id edgelist_blank edgelist_id);
        (2, map2 (fun sep v -> "node" ^ sep ^ v) edgelist_blank edgelist_id);
        (1, oneofl [ ""; "# comment"; "  # 1 2"; "\r" ]);
        ( 2,
          map
            (fun toks -> String.concat "" (List.concat_map (fun (t, b) -> [ t; b ]) toks))
            (list_size (int_bound 5) (pair edgelist_token (oneof [ edgelist_blank; return "" ]))) );
      ])

let edgelist_soup =
  QCheck2.Gen.(
    map
      (fun lines -> String.concat "" (List.concat_map (fun (l, eol) -> [ l; eol ]) lines))
      (list_size (int_bound 12) (pair edgelist_line (oneofl [ "\n"; "\r\n"; "\n"; " # \n" ]))))

let prop_token_soup =
  QCheck2.Test.make ~name:"token soup parses or errors, and round-trips" ~count:3000 edgelist_soup
    (fun s ->
      match Edgelist.parse s with
      | Error _ -> true
      | Ok g -> (
          match Edgelist.parse (Edgelist.to_string g) with
          | Ok g' -> Graph.equal g g'
          | Error _ -> false))

let suite =
  [
    Alcotest.test_case "parse basic" `Quick test_parse_basic;
    Alcotest.test_case "parse isolated nodes" `Quick test_parse_isolated;
    Alcotest.test_case "parse tab-separated" `Quick test_parse_tabs;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "string roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
    QCheck_alcotest.to_alcotest prop_token_soup;
  ]
