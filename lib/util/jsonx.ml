type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of t_float
  | String of string
  | List of t list
  | Obj of (string * t) list

and t_float = float

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    (* Shortest of the fixed precisions that round-trips. *)
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    (* JSON tells integers from floats lexically, so a [Float] must stay
       float-shaped ("1" parses back as [Int 1], and "1." is OCaml float
       syntax but not JSON). *)
    if String.length s > 0 && s.[String.length s - 1] = '.' then s ^ "0"
    else if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_into buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf item)
        items;
      Buffer.add_char buf ']'
  | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_into buf key;
          Buffer.add_char buf ':';
          emit buf value)
        members;
      Buffer.add_char buf '}'

let to_string json =
  let buf = Buffer.create 1024 in
  emit buf json;
  Buffer.contents buf

let to_channel oc json =
  output_string oc (to_string json);
  output_char oc '\n'

let write_file path json =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc json)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

(* Raised inside the parser only; {!parse} turns it into its [Error]. *)
exception Parse_error of { pos : int; message : string }

let parse_error pos fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { pos; message })) fmt

(* Recursive-descent parser over the raw byte string. A depth guard
   bounds recursion so a hostile input cannot blow the stack — the
   parser also reads the serve protocol's untrusted stdin. *)
let max_depth = 512

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let peek_is c = !pos < n && Char.equal s.[!pos] c in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> parse_error !pos "expected %C, got %C" c d
    | None -> parse_error !pos "expected %C, got end of input" c
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else parse_error !pos "invalid literal"
  in
  let hex4 () =
    if !pos + 4 > n then parse_error !pos "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | c -> parse_error !pos "bad hex digit %C in \\u escape" c
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> parse_error !pos "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> parse_error !pos "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  let cp = hex4 () in
                  let cp =
                    if cp >= 0xD800 && cp <= 0xDBFF then begin
                      (* High surrogate: a low surrogate must follow. *)
                      if
                        !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                      then begin
                        advance ();
                        advance ();
                        let lo = hex4 () in
                        if lo < 0xDC00 || lo > 0xDFFF then
                          parse_error !pos "invalid low surrogate";
                        0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                      end
                      else parse_error !pos "lone high surrogate"
                    end
                    else if cp >= 0xDC00 && cp <= 0xDFFF then
                      parse_error !pos "lone low surrogate"
                    else cp
                  in
                  Buffer.add_utf_8_uchar buf (Uchar.of_int cp)
              | c -> parse_error (!pos - 1) "invalid escape \\%C" c);
              loop ())
      | Some c when Char.code c < 0x20 ->
          parse_error !pos "unescaped control character"
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek_is '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = d0 then parse_error !pos "expected digit"
    in
    digits ();
    if peek_is '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let token = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt token with
      | Some f -> Float f
      | None -> parse_error start "bad number %S" token
    else
      match int_of_string_opt token with
      | Some i -> Int i
      | None -> (
          (* Magnitude beyond the native int: degrade to float, as JSON
             numbers have no intrinsic width. *)
          match float_of_string_opt token with
          | Some f -> Float f
          | None -> parse_error start "bad number %S" token)
  in
  let rec parse_value depth =
    if depth > max_depth then parse_error !pos "nesting deeper than %d" max_depth;
    skip_ws ();
    match peek () with
    | None -> parse_error !pos "expected a value, got end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek_is ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elems () =
            items := parse_value (depth + 1) :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems ()
            | Some ']' -> advance ()
            | Some c -> parse_error !pos "expected ',' or ']', got %C" c
            | None -> parse_error !pos "unterminated array"
          in
          elems ();
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek_is '}' then begin
          advance ();
          Obj []
        end
        else begin
          let members = ref [] in
          let rec mems () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value (depth + 1) in
            members := (key, value) :: !members;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                mems ()
            | Some '}' -> advance ()
            | Some c -> parse_error !pos "expected ',' or '}', got %C" c
            | None -> parse_error !pos "unterminated object"
          in
          mems ();
          Obj (List.rev !members)
        end
    | Some c -> parse_error !pos "unexpected character %C" c
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then parse_error !pos "trailing garbage after the document";
  v

let parse s =
  match of_string s with
  | v -> Ok v
  | exception Parse_error { pos; message } ->
      Error (Printf.sprintf "at byte %d: %s" pos message)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_string_opt = function String s -> Some s | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | String x, String y -> String.equal x y
  | List x, List y -> List.equal equal x y
  | Obj x, Obj y ->
      List.equal
        (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
        x y
  | (Null | Bool _ | Int _ | Float _ | String _ | List _ | Obj _), _ -> false
