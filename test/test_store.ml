(* Unit tests for the persistent artifact store (lib/store): framing
   round-trips, every corruption mode degrades to a counted miss,
   concurrent writers never publish a torn entry, and the size-bound GC
   actually bounds the directory. *)

module Store = Nettomo_store.Store

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Scratch directories: one per test, wiped before and after so reruns
   and stale temp state cannot perturb the counters.                   *)

let seq = ref 0

let fresh_dir () =
  incr seq;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "nettomo-test-store-%d-%d" (Unix.getpid ()) !seq)

let wipe dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_dir f =
  let dir = fresh_dir () in
  wipe dir;
  Fun.protect ~finally:(fun () -> wipe dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* The on-disk file backing a single key, via the offline lister (the
   tests never guess the key→filename encoding). *)
let only_entry dir =
  match Store.entries dir with
  | [ e ] -> e
  | es -> Alcotest.failf "expected exactly one entry, found %d" (List.length es)

(* ------------------------------------------------------------------ *)

let test_round_trip () =
  with_dir (fun dir ->
      let t = Store.open_dir dir in
      check cb "usable" true (Store.usable t);
      check cb "miss before put" true (Store.find t "k" = None);
      (* Payloads are opaque bytes: NULs, newlines, high bytes. *)
      let payload = "line1\nline2\000\255 binary \"quoted\"" in
      Store.put t "k" payload;
      check cb "hit after put" true (Store.find t "k" = Some payload);
      (* Overwrite wins. *)
      Store.put t "k" "v2";
      check cb "overwrite" true (Store.find t "k" = Some "v2");
      let st = Store.stats t in
      check ci "hits" 2 st.Store.hits;
      check ci "misses" 1 st.Store.misses;
      check ci "puts" 2 st.Store.puts;
      check ci "corrupt skips" 0 st.Store.corrupt_skips;
      (* A fresh handle on the same directory sees the entry: the store
         is the persistence layer, not the handle. *)
      let t2 = Store.open_dir dir in
      check cb "persists across handles" true (Store.find t2 "k" = Some "v2"))

let test_find_with_decoder () =
  with_dir (fun dir ->
      let t = Store.open_dir dir in
      Store.put t "n" "42";
      check cb "decoded hit" true
        (Store.find_with t "n" ~decode:int_of_string_opt = Some 42);
      (* A decoder rejection is a corrupt skip, not a hit. *)
      Store.put t "s" "not-a-number";
      check cb "decode failure is a miss" true
        (Store.find_with t "s" ~decode:int_of_string_opt = None);
      let st = Store.stats t in
      check ci "hit counted" 1 st.Store.hits;
      check ci "decode failure counted corrupt" 1 st.Store.corrupt_skips)

(* Each corruption mode on its own key: flip a payload byte (checksum),
   bump the version byte, clobber the magic, truncate below the header,
   and empty the file entirely. All five must read as misses counted as
   corrupt skips, be flagged invalid by the offline lister, and be
   repaired by an ordinary re-put. *)
let test_corruption_modes () =
  let corruptions =
    [
      ("flip payload byte (checksum)", fun s -> (
         let b = Bytes.of_string s in
         Bytes.set b 21 (Char.chr (Char.code (Bytes.get b 21) lxor 1));
         Bytes.to_string b));
      ("wrong version", fun s -> (
         let b = Bytes.of_string s in
         Bytes.set b 4 '\254';
         Bytes.to_string b));
      ("wrong magic", fun s -> (
         let b = Bytes.of_string s in
         Bytes.set b 0 'X';
         Bytes.to_string b));
      ("truncated below header", fun s -> String.sub s 0 10);
      ("empty file", fun _ -> "");
    ]
  in
  List.iter
    (fun (name, corrupt) ->
      with_dir (fun dir ->
          let t = Store.open_dir dir in
          Store.put t "victim" "some payload bytes";
          let e = only_entry dir in
          check cb (name ^ ": valid before") true e.Store.valid;
          write_file e.Store.file (corrupt (read_file e.Store.file));
          check cb (name ^ ": reads as miss") true (Store.find t "victim" = None);
          check ci (name ^ ": counted corrupt") 1
            (Store.stats t).Store.corrupt_skips;
          check cb (name ^ ": lister flags invalid") false
            (only_entry dir).Store.valid;
          (* Re-publishing over the corpse repairs the entry. *)
          Store.put t "victim" "fresh payload";
          check cb (name ^ ": repaired by re-put") true
            (Store.find t "victim" = Some "fresh payload")))
    corruptions

let test_inert_store () =
  (* A store whose directory cannot be created (the parent is a regular
     file) opens inert: reads miss, writes drop, nothing raises. *)
  let blocker = Filename.temp_file "nettomo-test-store-blocker" "" in
  Fun.protect
    ~finally:(fun () -> Sys.remove blocker)
    (fun () ->
      let t = Store.open_dir (Filename.concat blocker "sub") in
      check cb "not usable" false (Store.usable t);
      check cb "read misses" true (Store.find t "k" = None);
      Store.put t "k" "v";
      check cb "write dropped" true (Store.find t "k" = None);
      let st = Store.stats t in
      check ci "no puts" 0 st.Store.puts;
      check ci "misses counted" 2 st.Store.misses)

let test_key_encoding () =
  with_dir (fun dir ->
      let t = Store.open_dir dir in
      (* Keys that need escaping, plus a key that collides with another's
         escaped spelling only if the encoding is not injective. *)
      let keys =
        [ "plain-key_1.x"; "a/b"; "a%2Fb"; "spaces and:colons"; ".." ]
      in
      List.iteri (fun i k -> Store.put t k (Printf.sprintf "value-%d" i)) keys;
      check ci "distinct files" (List.length keys)
        (List.length (Store.entries dir));
      List.iteri
        (fun i k ->
          check cb ("retrieves " ^ k) true
            (Store.find t k = Some (Printf.sprintf "value-%d" i)))
        keys;
      (* Every file stays inside the store directory. *)
      List.iter
        (fun e ->
          check cb "file under dir" true
            (String.equal (Filename.dirname e.Store.file) dir))
        (Store.entries dir))

let test_concurrent_writers () =
  (* Four domains hammer the same key with distinct payloads through
     their own handles (a handle is single-domain; the directory is the
     shared medium). The surviving entry must be one of the candidate
     payloads, intact — atomic rename forbids torn or interleaved
     writes. *)
  with_dir (fun dir ->
      let payload i =
        String.concat "," (List.init 200 (fun j -> Printf.sprintf "%d:%d" i j))
      in
      let writer i () =
        let t = Store.open_dir dir in
        for _ = 1 to 50 do
          Store.put t "contended" (payload i)
        done
      in
      let domains = List.init 4 (fun i -> Domain.spawn (writer i)) in
      List.iter Domain.join domains;
      let e = only_entry dir in
      check cb "entry verifies" true e.Store.valid;
      let t = Store.open_dir dir in
      match Store.find t "contended" with
      | None -> Alcotest.fail "entry unreadable after concurrent writes"
      | Some v ->
          check cb "payload is one candidate, untorn" true
            (List.exists (fun i -> String.equal v (payload i)) [ 0; 1; 2; 3 ]))

let total_bytes dir =
  List.fold_left (fun acc e -> acc + e.Store.size) 0 (Store.entries dir)

let test_gc_bound () =
  with_dir (fun dir ->
      (* Each entry is 21 header + 100 payload = 121 bytes; a 600-byte
         bound holds at most 4, so 40 puts must evict heavily. *)
      let bound = 600 in
      let t = Store.open_dir ~max_bytes:bound dir in
      for i = 1 to 40 do
        Store.put t (Printf.sprintf "key-%02d" i) (String.make 100 'x')
      done;
      check cb "bound holds" true (total_bytes dir <= bound);
      check cb "evictions happened" true ((Store.stats t).Store.evictions > 0);
      check ci "all puts succeeded" 40 (Store.stats t).Store.puts;
      (* Survivors verify, and the just-published entry is never the one
         evicted (it is the newest). *)
      List.iter
        (fun e -> check cb "survivor valid" true e.Store.valid)
        (Store.entries dir);
      check cb "newest entry survives" true
        (Store.find t "key-40" = Some (String.make 100 'x')))

let test_gc_dir_offline () =
  with_dir (fun dir ->
      let t = Store.open_dir dir in
      for i = 1 to 10 do
        Store.put t (Printf.sprintf "key-%d" i) (String.make 100 'y')
      done;
      let before = List.length (Store.entries dir) in
      check ci "ten entries" 10 before;
      let removed = Store.gc_dir dir ~max_bytes:400 in
      check cb "removed some" true (removed > 0);
      check ci "removed accounts for all" before
        (removed + List.length (Store.entries dir));
      check cb "offline bound holds" true (total_bytes dir <= 400))

(* Damaged entry files, beyond the five fixed corruption modes: random
   bytes in place of the file, a single flipped byte anywhere, a
   truncation at any length, and a forged length field on a valid blob.
   [find] and [find_with] must return [None] or exactly the payload
   that was put, and never raise. One store serves every case; each
   case re-puts its payload and damages the one entry file. *)
type damage = Random_bytes of string | Flip of int * int | Truncate of int | Forge_length of int64

let damage_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> Random_bytes s) (string_size (int_bound 80));
        map2 (fun pos mask -> Flip (pos, mask)) (int_bound 10_000) (int_range 1 255);
        map (fun k -> Truncate k) (int_bound 10_000);
        map
          (fun l -> Forge_length l)
          (oneof
             [
               oneofl [ 0L; 1L; -1L; 20L; 21L; Int64.max_int; Int64.min_int; 0x7fffffffL ];
               map Int64.of_int int;
             ]);
      ])

let damaged raw = function
  | Random_bytes s -> s
  | Flip (pos, mask) ->
      let b = Bytes.of_string raw in
      let i = pos mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
      Bytes.to_string b
  | Truncate k -> String.sub raw 0 (k mod String.length raw)
  | Forge_length l ->
      let b = Bytes.of_string raw in
      Bytes.set_int64_le b 5 l;
      Bytes.to_string b

let test_fuzzed_entries () =
  with_dir (fun dir ->
      let t = Store.open_dir dir in
      let prop =
        QCheck2.Test.make ~name:"damaged entries read as a miss or the payload" ~count:3000
          QCheck2.Gen.(pair (string_size (int_bound 64)) damage_gen)
          (fun (payload, d) ->
            Store.put t "victim" payload;
            let e = only_entry dir in
            write_file e.Store.file (damaged (read_file e.Store.file) d);
            let ok = function None -> true | Some p -> String.equal p payload in
            ok (Store.find t "victim")
            && ok (Store.find_with t "victim" ~decode:Option.some))
      in
      QCheck2.Test.check_exn ~rand:(Random.State.make [| 19 |]) prop)

let suite =
  [
    Alcotest.test_case "round trip and persistence" `Quick test_round_trip;
    Alcotest.test_case "find_with decoder" `Quick test_find_with_decoder;
    Alcotest.test_case "corruption modes degrade to misses" `Quick
      test_corruption_modes;
    Alcotest.test_case "unusable directory opens inert" `Quick test_inert_store;
    Alcotest.test_case "key filename encoding is injective" `Quick
      test_key_encoding;
    Alcotest.test_case "concurrent writers stay atomic" `Quick
      test_concurrent_writers;
    Alcotest.test_case "size-bound GC" `Quick test_gc_bound;
    Alcotest.test_case "offline gc_dir" `Quick test_gc_dir_offline;
    Alcotest.test_case "fuzzed entry files" `Quick test_fuzzed_entries;
  ]
